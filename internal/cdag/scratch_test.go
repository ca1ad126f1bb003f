package cdag

import (
	"reflect"
	"testing"

	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// stagedVerdict runs a pair the way bench/layers.go replays a cold
// build — Query, Update and the three conflict checks called one at a
// time — and fails the test unless each call leaves the engine's
// scratch fully released.
func stagedVerdict(t *testing.T, e *Engine, q xquery.Query, u xquery.Update) Verdict {
	t.Helper()
	released := func(stage string) {
		if e.top != 0 {
			t.Fatalf("%s leaves %d scratch words taken", stage, e.top)
		}
	}
	qc := e.Query(e.RootEnv(), q)
	released("Query")
	uc := e.Update(e.RootEnv(), u)
	released("Update")
	v := Verdict{Query: qc, Update: uc, K: e.K}
	for _, c := range []struct {
		name   string
		reason string
		check  func() bool
	}{
		{"ConflictRetUpdate", "confl(r,U)", func() bool { return ConflictRetUpdate(qc.Ret, uc) }},
		{"ConflictUpdateRet", "confl(U,r)", func() bool { return ConflictUpdateRet(uc, qc.Ret) }},
		{"ConflictUpdateUsed", "confl(U,v)", func() bool { return ConflictUpdateUsed(uc, qc.Used) }},
	} {
		if c.check() {
			v.Reasons = append(v.Reasons, c.reason)
		}
		released(c.name)
	}
	v.Independent = len(v.Reasons) == 0
	return v
}

// TestScratchReleasedAndPoisonProof runs the whole XMark matrix twice
// per pair. A poisoned engine, whose release fills the words it gives
// back with ones, runs CheckIndependence; a plain engine runs the
// stages one at a time. Every call must leave the scratch fully
// released, and the two runs must agree on the verdict, the reasons,
// the change region and the Dot of every inferred set. A sweep read
// after its release would read the poison and change a DAG or a
// verdict.
func TestScratchReleasedAndPoisonProof(t *testing.T) {
	d := xmark.Schema()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range xmark.Updates() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			nu := xquery.NormalizeUpdate(u.AST)
			for _, v := range xmark.Views() {
				nq := xquery.Normalize(v.AST)
				poisoned := EngineForCompiled(c, nq, nu)
				poisoned.poison = true
				got := poisoned.CheckIndependence(nq, nu)
				if poisoned.top != 0 {
					t.Fatalf("%s: CheckIndependence leaves %d scratch words taken", v.Name, poisoned.top)
				}
				want := stagedVerdict(t, EngineForCompiled(c, nq, nu), nq, nu)
				if got.Independent != want.Independent || !reflect.DeepEqual(got.Reasons, want.Reasons) {
					t.Errorf("%s: poisoned %s, plain %s", v.Name, got, want)
				}
				if !marksEqual(got.Update.ChangeRegion, want.Update.ChangeRegion) {
					t.Errorf("%s: poisoned and plain change regions differ", v.Name)
				}
				for _, s := range []struct {
					name      string
					got, want *Set
				}{
					{"ret", got.Query.Ret, want.Query.Ret},
					{"used", got.Query.Used, want.Query.Used},
					{"elem", got.Query.Elem, want.Query.Elem},
					{"update", got.Update.Full, want.Update.Full},
				} {
					if g, w := s.got.Dot(s.name), s.want.Dot(s.name); g != w {
						t.Errorf("%s: poisoned %s\n%s\nplain\n%s", v.Name, s.name, g, w)
					}
				}
			}
		})
	}
}

// TestNilSetReads: a nil *Set is the empty set to every read method
// and to the three conflict checks.
func TestNilSetReads(t *testing.T) {
	e := NewEngine(bib, 2, 0)
	empty := e.NewSet()
	full := e.Query(e.RootEnv(), xquery.MustParseQuery("//book/title"))
	if full.Ret.IsEmpty() {
		t.Fatal("//book/title infers no chains")
	}
	upd := e.Update(e.RootEnv(), xquery.MustParseUpdate("delete //book"))
	var none *Set
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"IsEmpty", none.IsEmpty(), true},
		{"EndCount", none.EndCount(), 0},
		{"Ends", len(none.Ends()), 0},
		{"Chains", len(none.Chains(0)), 0},
		{"Strings", none.Strings(0), empty.Strings(0)},
		{"String", none.String(), empty.String()},
		{"Dot", none.Dot("s"), empty.Dot("s")},
		{"EndpointParents", len(none.EndpointParents()), 0},
		{"ConflictRetUpdate(nil, U)", ConflictRetUpdate(none, upd), false},
		{"ConflictRetUpdate(r, nil U)", ConflictRetUpdate(full.Ret, &UpdateSet{}), false},
		{"ConflictUpdateRet(U, nil)", ConflictUpdateRet(upd, none), false},
		{"ConflictUpdateRet(nil U, r)", ConflictUpdateRet(&UpdateSet{}, full.Ret), false},
		{"ConflictUpdateUsed(U, nil)", ConflictUpdateUsed(upd, none), false},
		{"ConflictUpdateUsed(nil U, v)", ConflictUpdateUsed(&UpdateSet{}, full.Ret), false},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s of a nil set = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	// The same checks on non-empty sides do fire: the nil cases above
	// are decided by the nil side alone.
	if !ConflictUpdateRet(upd, full.Ret) || !ConflictUpdateUsed(upd, full.Ret) {
		t.Error("deleting //book does not conflict with //book/title")
	}
	// Rules leave sides with no chains nil, and accumulators take over
	// the first set added.
	qc := e.Query(e.RootEnv(), xquery.MustParseQuery("for $b in //book return $b/title"))
	if qc.Used != nil || qc.Elem != nil {
		t.Errorf("a forward loop infers used %v and element %v chains, want nil sides", qc.Used, qc.Elem)
	}
	if got := qc.Ret.Strings(0); !reflect.DeepEqual(got, []string{"bib.book.title"}) {
		t.Errorf("loop returns %v", got)
	}
	s := e.SingletonSet(chain.MustParseChain("bib.book"))
	if addAll(nil, s) != s || addAll(s, nil) != s {
		t.Error("addAll does not take over its first set")
	}
}

// TestRecycledScratchIsNotShared: CheckIndependence hands its scratch
// back to the pool, so the engine holds none afterwards, and the three
// conflict checks rerun on its verdict's sets cut their sweeps from a
// slab taken anew while another goroutine's engines build on the
// pooled one. The rerun must give the verdict's reasons; under -race
// two engines writing one slab would be reported. Every engine is
// poisoned, so each slab it hands back is filled with ones.
func TestRecycledScratchIsNotShared(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	views := xmark.Views()
	build := func(v xmark.View, u xmark.Upd) (*Engine, Verdict) {
		nq, nu := xquery.Normalize(v.AST), xquery.NormalizeUpdate(u.AST)
		e := EngineForCompiled(c, nq, nu)
		e.poison = true
		return e, e.CheckIndependence(nq, nu)
	}
	for _, name := range []string{"UB2", "UN1", "UI5"} {
		u, _ := xmark.UpdateByName(name)
		for i, v := range views {
			e, got := build(v, u)
			if e.scratch != nil || e.top != 0 {
				t.Fatalf("%s × %s: CheckIndependence leaves the engine a scratch slab (%d words taken)", v.Name, name, e.top)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				build(views[(i+1)%len(views)], u)
				build(views[(i+2)%len(views)], u)
			}()
			var again []string
			if ConflictRetUpdate(got.Query.Ret, got.Update) {
				again = append(again, "confl(r,U)")
			}
			if ConflictUpdateRet(got.Update, got.Query.Ret) {
				again = append(again, "confl(U,r)")
			}
			if ConflictUpdateUsed(got.Update, got.Query.Used) {
				again = append(again, "confl(U,v)")
			}
			<-done
			if !reflect.DeepEqual(again, got.Reasons) {
				t.Errorf("%s × %s: rerun checks fire %v, the verdict %v", v.Name, name, again, got.Reasons)
			}
		}
	}
}
