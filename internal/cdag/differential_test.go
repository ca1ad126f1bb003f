package cdag

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// TestDifferentialDenseVsReference runs the full XMark view × update
// matrix through both CDAG engines — this dense compiled-schema one
// and the retained map-based reference (internal/refcdag) — and
// demands bit-for-bit agreement: same verdict, same firing reasons,
// and byte-identical Dot renderings of every judgement component's
// DAG (which pins the chain sets too). The pairs run in parallel so the
// shared compiled artifact sees concurrent readers; `go test -race`
// turns that into a synchronization oracle too.
func TestDifferentialDenseVsReference(t *testing.T) {
	d := xmark.Schema()
	views, updates := xmark.Views(), xmark.Updates()
	if testing.Short() {
		// A quarter of the matrix still exercises every rule; the full
		// cross product runs in CI.
		views, updates = views[:(len(views)+1)/2], updates[:(len(updates)+1)/2]
	}
	for _, v := range views {
		for _, u := range updates {
			v, u := v, u
			t.Run(fmt.Sprintf("%s/%s", v.Name, u.Name), func(t *testing.T) {
				t.Parallel()
				dense := Independence(d, v.AST, u.AST)
				ref := refcdag.Independence(d, v.AST, u.AST)

				if dense.Independent != ref.Independent {
					t.Fatalf("verdict: dense %v, reference %v", dense.Independent, ref.Independent)
				}
				if !reflect.DeepEqual(dense.Reasons, ref.Reasons) {
					t.Errorf("reasons: dense %v, reference %v", dense.Reasons, ref.Reasons)
				}
				if dense.K != ref.K {
					t.Errorf("k: dense %d, reference %d", dense.K, ref.K)
				}

				sets := []struct {
					name string
					dn   *Set
					rf   *refcdag.Set
				}{
					{"ret", dense.Query.Ret, ref.Query.Ret},
					{"used", dense.Query.Used, ref.Query.Used},
					{"elem", dense.Query.Elem, ref.Query.Elem},
					{"update", dense.Update.Full, ref.Update.Full},
				}
				for _, s := range sets {
					// The Dot rendering spells out the complete DAG —
					// every node, edge and endpoint — so byte equality
					// is a full structural check, and the chain sets
					// (a pure function of that structure) agree too.
					// Materialising the chains themselves is off the
					// table: on the recursive XMark schema their count
					// is exponential in the depth bound.
					if got, want := s.dn.Dot(s.name), s.rf.Dot(s.name); got != want {
						t.Errorf("%s dot:\ndense:\n%s\nreference:\n%s", s.name, got, want)
					}
				}

				// The change regions must mark the same nodes: every
				// reference mark is set densely and the counts match.
				eng := dense.Update.Full.eng
				marks := 0
				for n, on := range ref.Update.ChangeRegion {
					if !on {
						continue
					}
					marks++
					sym, ok := eng.lookupSym(n.Sym)
					if !ok {
						t.Errorf("change-region symbol %q unknown to the dense engine", n.Sym)
						continue
					}
					if !dense.Update.ChangeRegion.Has(Node{n.Depth, sym}) {
						t.Errorf("change region missing %d:%s", n.Depth, n.Sym)
					}
				}
				if got := dense.Update.ChangeRegion.count(); got != marks {
					t.Errorf("change region size: dense %d, reference %d", got, marks)
				}
			})
		}
	}
}

// smallSchemas are the schemas of cdag_test.go, in a fixed order.
var smallSchemas = []*dtd.DTD{figure1, bib, d1, figure2}

// descendantQueries spell `//` in the places the fused descendant
// sweep (Engine.descendantFor) meets it: after the root, after another
// `//`, before a parent step, in a for body, in an if condition and
// below a let binding. The let over //node() binds every node, so on
// the recursive d1 its binding endpoints sit at the depth bound. Two
// name bib's own tags, and the last two are near misses the sweep must
// leave to the two-step rules: a descendant-or-self step with a tag
// test, and a loop whose descendant-or-self step starts from another
// variable than its own.
var descendantQueries = []string{
	"//a//c",
	"//node()",
	"//text()",
	"//*",
	"//c/..",
	"for $x in //a return $x//b",
	"for $x in //node() return if ($x//b) then $x else ()",
	"let $x := //a return $x//b",
	"let $x := //node() return $x//node()",
	"//book//first",
	"for $x in //author return ($x//text(), $x/..//price)",
	"/descendant-or-self::a/c",
	"for $y in (for $u in //a return /descendant-or-self::node()) return $y/c",
}

// descendantCases returns descendantQueries parsed, and
// for $x in <a>{//b}</a> return $x//c built by hand: the parser keeps
// constructors out of for and let bindings, but the rules bind
// constructed items all the same, so the sweep starts from them too.
func descendantCases() []xquery.Query {
	var out []xquery.Query
	for _, qs := range descendantQueries {
		out = append(out, xquery.MustParseQuery(qs))
	}
	return append(out, xquery.For{
		Var:    "$x",
		In:     xquery.Element{Tag: "a", Content: xquery.MustParseQuery("//b")},
		Return: xquery.MustParseQuery("$x//c"),
	})
}

// descendantUpdates are updates whose targets and sources use `//`.
var descendantUpdates = []string{
	"delete //c",
	"for $x in //a return delete $x//c",
	"for $x in //node() return rename $x//b as zz",
	"for $x in //a return insert <b>{$x//c}</b> into $x",
	"delete //author//text()",
	"()",
}

// diffReference compares a dense verdict with the reference engine's
// on the same pair: the verdict, the firing reasons, k, and the Dot of
// every judgement component's DAG. It returns nil when they agree.
func diffReference(dense Verdict, ref refcdag.Verdict) error {
	if dense.Independent != ref.Independent || !reflect.DeepEqual(dense.Reasons, ref.Reasons) {
		return fmt.Errorf("verdict: dense %s, reference %v %v", dense, ref.Independent, ref.Reasons)
	}
	if dense.K != ref.K {
		return fmt.Errorf("k: dense %d, reference %d", dense.K, ref.K)
	}
	for _, s := range []struct {
		name string
		dn   *Set
		rf   *refcdag.Set
	}{
		{"ret", dense.Query.Ret, ref.Query.Ret},
		{"used", dense.Query.Used, ref.Query.Used},
		{"elem", dense.Query.Elem, ref.Query.Elem},
		{"update", dense.Update.Full, ref.Update.Full},
	} {
		if got, want := s.dn.Dot(s.name), s.rf.Dot(s.name); got != want {
			return fmt.Errorf("%s dot:\ndense:\n%s\nreference:\n%s", s.name, got, want)
		}
	}
	return nil
}

// TestDescendantStepsMatchReference runs every `//` query against
// every `//` update on each small schema through both engines. The
// dense engine infers each `//T` in one descendant sweep; the
// reference keeps the two-step descendant-or-self form, so byte-equal
// Dot shows that the sweep builds the DAG the two steps build.
func TestDescendantStepsMatchReference(t *testing.T) {
	for i, d := range smallSchemas {
		for _, q := range descendantCases() {
			for _, us := range descendantUpdates {
				u := xquery.MustParseUpdate(us)
				if err := diffReference(Independence(d, q, u), refcdag.Independence(d, q, u)); err != nil {
					t.Errorf("schema %d, %s × %s: %v", i, xquery.CanonicalQuery(q), us, err)
				}
			}
		}
	}
	// The binding of the last d1 case does reach the depth bound.
	q := xquery.MustParseQuery("let $x := //node() return $x//node()")
	e := EngineFor(d1, q, nil)
	deepest := 0
	e.Query(e.RootEnv(), xquery.Normalize(xquery.MustParseQuery("//node()"))).Ret.forEachEnd(func(n Node) {
		deepest = max(deepest, n.Depth)
	})
	if deepest != e.MaxDepth {
		t.Errorf("//node() on d1 ends at depth %d, below the bound %d", deepest, e.MaxDepth)
	}
}

// FuzzDenseMatchesReference runs random query and update texts over
// the small schemas through both engines, under one budget, and
// requires what TestDescendantStepsMatchReference requires. Inputs
// that do not parse, or that either engine aborts on for the budget,
// are skipped; any other error fails.
func FuzzDenseMatchesReference(f *testing.F) {
	for i := range smallSchemas {
		for j, qs := range descendantQueries {
			f.Add(uint8(i), qs, descendantUpdates[j%len(descendantUpdates)])
		}
	}
	f.Fuzz(func(t *testing.T, schema uint8, qs, us string) {
		d := smallSchemas[int(schema)%len(smallSchemas)]
		q, err := xquery.ParseQuery(qs)
		if err != nil {
			return
		}
		u, err := xquery.ParseUpdate(us)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		b := guard.New(ctx, guard.Limits{MaxK: 8, MaxNodes: 1 << 16})
		if b.CheckK(infer.KPair(q, u)) != nil {
			return
		}
		var (
			dense Verdict
			ref   refcdag.Verdict
		)
		for _, run := range []func(){
			func() { dense = IndependenceBudget(d, q, u, b) },
			func() { ref = refcdag.IndependenceBudget(d, q, u, b) },
		} {
			if err := guard.Do(run); errors.Is(err, guard.ErrBudgetExceeded) {
				return
			} else if err != nil {
				t.Fatalf("query %q, update %q: %v", qs, us, err)
			}
		}
		if err := diffReference(dense, ref); err != nil {
			t.Fatalf("query %q, update %q: %v", qs, us, err)
		}
	})
}
