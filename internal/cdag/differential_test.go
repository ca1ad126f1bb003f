package cdag

import (
	"fmt"
	"reflect"
	"testing"

	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
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
