package cdag

import (
	"reflect"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/infer"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// TestVerdictStableAboveKPair is the metamorphic form of Theorem 5.1:
// k = kq + ku already decides independence, so re-running the analysis
// with the depth bound of k+1 and k+2 (same alphabet extension) must
// give the same verdict and the same firing reasons on every XMark
// pair. A change that makes the engine depend on the truncation depth
// — beyond the finite analysis the theorem licenses — fails here.
func TestVerdictStableAboveKPair(t *testing.T) {
	d := xmark.Schema()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	views, updates := xmark.Views(), xmark.Updates()
	if testing.Short() {
		// The same quarter of the matrix TestDifferentialDenseVsReference
		// runs under -short.
		views, updates = views[:(len(views)+1)/2], updates[:(len(updates)+1)/2]
	}
	for _, u := range updates {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			t.Parallel()
			nu := xquery.NormalizeUpdate(u.AST)
			for _, v := range views {
				nq := xquery.Normalize(v.AST)
				k, extras := infer.KPair(v.AST, u.AST), pairExtras(d, v.AST, u.AST)
				want := NewEngineCompiled(c, k, extras).CheckIndependence(nq, nu)
				for _, dk := range []int{1, 2} {
					got := NewEngineCompiled(c, k+dk, extras).CheckIndependence(nq, nu)
					if got.Independent != want.Independent || !reflect.DeepEqual(got.Reasons, want.Reasons) {
						t.Errorf("%s: k=%d gives %s, k=%d gives %s", v.Name, k, want, k+dk, got)
					}
				}
			}
		})
	}
}
