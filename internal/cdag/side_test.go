package cdag

import (
	"reflect"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/infer"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// TestUpdateSideStableAboveKPair is the metamorphic gate of the plan
// cache's update tier: an update side inferred under a deeper bound
// than the pair's decides the same conflicts. Every XMark pair runs
// with its update side inferred at k' ∈ {k, k+1, k+2, kmax} — k = kq+ku
// the pair's own, kmax the largest over the update's 36 views — and at
// kmax over the largest alphabet extension of those views, the side
// the tier holds after a pass. The side is adopted by an engine at the
// pair's own k and extension, so only the query side is inferred there.
// The verdict and the reasons must equal the per-pair engine's.
func TestUpdateSideStableAboveKPair(t *testing.T) {
	d := xmark.Schema()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	views, updates := xmark.Views(), xmark.Updates()
	if testing.Short() {
		// The quarter of the matrix TestVerdictStableAboveKPair runs.
		views, updates = views[:(len(views)+1)/2], updates[:(len(updates)+1)/2]
	}
	for _, u := range updates {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			nu := xquery.NormalizeUpdate(u.AST)
			kmax, xmax := 0, 0
			for _, v := range xmark.Views() {
				kmax = max(kmax, infer.KPair(v.AST, u.AST))
				xmax = max(xmax, pairExtras(d, v.AST, u.AST))
			}
			// Sides are shared read-only, so each (k', extension) is
			// inferred once and adopted by every view that needs it.
			sides := map[[2]int]*UpdateSide{}
			side := func(k, extras int) *UpdateSide {
				key := [2]int{k, extras}
				if sides[key] == nil {
					sides[key] = NewEngineCompiled(c, k, extras).InferUpdate(nu)
				}
				return sides[key]
			}
			for _, v := range views {
				nq := xquery.Normalize(v.AST)
				k, extras := infer.KPair(v.AST, u.AST), pairExtras(d, v.AST, u.AST)
				want := NewEngineCompiled(c, k, extras).CheckIndependence(nq, nu)
				for _, at := range [][2]int{{k, extras}, {k + 1, extras}, {k + 2, extras}, {kmax, extras}, {kmax, xmax}} {
					e := NewEngineCompiled(c, k, extras)
					s := side(at[0], at[1])
					if !s.Fits(e) {
						t.Fatalf("%s: the side at k'=%d, %d extras does not fit the pair's engine (k=%d, %d extras)", v.Name, at[0], at[1], k, extras)
					}
					got := e.WithUpdate(s).CheckIndependence(nq, nu)
					if got.Independent != want.Independent || !reflect.DeepEqual(got.Reasons, want.Reasons) {
						t.Errorf("%s: k=%d gives %s, the update side at k'=%d with %d extras gives %s",
							v.Name, k, want, at[0], at[1], got)
					}
				}
			}
		})
	}
}

// TestAdoptedSideWithConstructedTags: on a small schema, updates that
// construct tags outside Σ (renames, and an insert of an element) are
// adopted by engines whose queries construct other tags, one of them
// shared with the update. The adopted side is the one the update tier
// would hold, inferred on the engine of the update's deepest pair.
// Adopting it must give the per-pair engine's verdict and reasons, and
// so must the order of a build without adoption, query side first
// (stagedVerdict).
func TestAdoptedSideWithConstructedTags(t *testing.T) {
	c, err := dtd.Compile(bib)
	if err != nil {
		t.Fatal(err)
	}
	updates := []string{
		"for $b in //book return rename $b/title as heading",
		"for $b in //book return insert <note>{$b/title}</note> into $b",
		"rename //price as cost",
	}
	queries := []string{
		"//title",
		"//heading",
		"//note/title",
		"<heading>{//book/title}</heading>",
		"<note>{//author}</note>",
		"<out>{//cost}</out>",
		"for $b in //book return <entry>{$b/note, $b/price}</entry>",
		"<a><b>{//price}</b></a>",
	}
	dependent, independent := 0, 0
	for _, us := range updates {
		nu := xquery.NormalizeUpdate(xquery.MustParseUpdate(us))
		var deepest *Engine
		for _, qs := range queries {
			nq := xquery.Normalize(xquery.MustParseQuery(qs))
			if e := EngineForCompiled(c, nq, nu); deepest == nil || e.MaxDepth > deepest.MaxDepth {
				deepest = e
			}
		}
		side := deepest.InferUpdate(nu)
		if len(side.extras) == 0 {
			t.Fatalf("%s: the side interned no constructed tag", us)
		}
		for _, qs := range queries {
			nq := xquery.Normalize(xquery.MustParseQuery(qs))
			want := EngineForCompiled(c, nq, nu).CheckIndependence(nq, nu)
			staged := stagedVerdict(t, EngineForCompiled(c, nq, nu), nq, nu)
			e := EngineForCompiled(c, nq, nu)
			if !side.Fits(e) {
				t.Fatalf("%s × %s: the deepest pair's side does not fit", qs, us)
			}
			got := e.WithUpdate(side).CheckIndependence(nq, nu)
			for _, v := range []Verdict{got, staged} {
				if v.Independent != want.Independent || !reflect.DeepEqual(v.Reasons, want.Reasons) {
					t.Errorf("%s × %s: per-pair %s, adopted %s, query first %s", qs, us, want, got, staged)
					break
				}
			}
			if want.Independent {
				independent++
			} else {
				dependent++
			}
		}
	}
	if dependent == 0 || independent == 0 {
		t.Fatalf("%d dependent and %d independent pairs: the cases decide nothing", dependent, independent)
	}
}

// TestUpdateSideFits: an engine adopts only a side inferred under a
// depth bound at least its own and with its row width; anything else
// is refused, and adopting it anyway is an internal error. The schema
// is recursive, so k moves the depth bound; 100 extra tags widen the
// rows to two words while the bound stays below the side's.
func TestUpdateSideFits(t *testing.T) {
	c, err := dtd.Compile(dtd.MustParse("r <- a*\na <- (a | b)*\nb <- #PCDATA"))
	if err != nil {
		t.Fatal(err)
	}
	nu := xquery.NormalizeUpdate(xquery.MustParseUpdate("delete //b"))
	side := NewEngineCompiled(c, 200, 0).InferUpdate(nu)
	for _, tc := range []struct {
		name         string
		e            *Engine
		fits, deeper bool
	}{
		{"same bound", NewEngineCompiled(c, 200, 0), true, false},
		{"shallower engine", NewEngineCompiled(c, 100, 0), true, false},
		{"deeper engine", NewEngineCompiled(c, 201, 0), false, true},
		{"other row width", NewEngineCompiled(c, 1, 100), false, false},
	} {
		if got := side.Fits(tc.e); got != tc.fits {
			t.Errorf("%s: Fits = %v, want %v", tc.name, got, tc.fits)
		}
		if got := tc.e.InferUpdate(nu).Deeper(side); got != tc.deeper {
			t.Errorf("%s: its own side is deeper = %v, want %v", tc.name, got, tc.deeper)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("adopting a side that does not fit did not panic")
		}
	}()
	NewEngineCompiled(c, 201, 0).WithUpdate(side).CheckIndependence(xquery.Normalize(xquery.MustParseQuery("//a")), nu)
}

// sideBytes is what a side retains of slabs and markings.
func sideBytes(s *UpdateSide) int {
	return 8 * (cap(s.full) + cap(s.ends.words) + cap(s.change.words))
}

// TestUpdateSideBytes pins what one update-tier resident retains: the
// side of UN1 and of UB2 after a pass over the 36 views, which is the
// side of the deepest pair (the tier replaces its resident only by a
// deeper one). The ceilings are 1.25 times the bytes measured; the
// tier's one-slot size rests on them (plan.updateTierSize).
func TestUpdateSideBytes(t *testing.T) {
	d := xmark.Schema()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		update   string
		measured float64
	}{
		{"UN1", 13824},
		{"UB2", 11600},
	} {
		u, ok := xmark.UpdateByName(tc.update)
		if !ok {
			t.Fatalf("no update %s", tc.update)
		}
		nu := xquery.NormalizeUpdate(u.AST)
		var deepest *Engine
		for _, v := range xmark.Views() {
			if e := EngineForCompiled(c, v.AST, u.AST); deepest == nil || e.MaxDepth > deepest.MaxDepth {
				deepest = e
			}
		}
		got := sideBytes(deepest.InferUpdate(nu))
		t.Logf("%s: the resident retains %d B", tc.update, got)
		if ceiling := 1.25 * tc.measured; float64(got) > ceiling {
			t.Errorf("%s: the resident retains %d B, ceiling %.0f", tc.update, got, ceiling)
		}
	}
}
