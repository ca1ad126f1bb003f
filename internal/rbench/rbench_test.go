package rbench

import (
	"testing"
	"time"

	"xqindep/internal/cdag"
	"xqindep/internal/xquery"
)

func TestSchemaN(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		d := SchemaN(n)
		if d.Size() != n {
			t.Errorf("|d%d| = %d", n, d.Size())
		}
		if !d.IsRecursive() {
			t.Errorf("d%d must be recursive", n)
		}
		rec := d.RecursiveTypes()
		if len(rec) != n {
			t.Errorf("d%d: recursive types = %v", n, rec)
		}
		// Full mutual recursion: every type reaches every type.
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if !d.Reaches(typeName(i), typeName(j)) {
					t.Errorf("d%d: t%d does not reach t%d", n, i, j)
				}
			}
		}
	}
}

func TestExprM(t *testing.T) {
	q := ExprM(3)
	// Three recursive steps: R = 3, F = 0.
	var count func(xquery.Query) int
	count = func(x xquery.Query) int {
		switch n := x.(type) {
		case xquery.Step:
			if n.Axis == xquery.Descendant {
				return 1
			}
			return 0
		case xquery.For:
			return count(n.In) + count(n.Return)
		default:
			return 0
		}
	}
	if got := count(q); got != 3 {
		t.Errorf("descendant steps = %d", got)
	}
}

// TestInferenceRunsOnHardInstances smoke-checks the scalability
// surface: chain inference over d3-e5 with elevated k stays well under
// a second.
func TestInferenceRunsOnHardInstances(t *testing.T) {
	d := SchemaN(3)
	q := ExprM(5)
	e := cdag.NewEngine(d, 10, 0)
	start := time.Now()
	qc := e.Query(e.RootEnv(), q)
	if qc.Ret.IsEmpty() {
		t.Errorf("no chains inferred for e5 over d3")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("d3-e5 inference took %v", elapsed)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { SchemaN(0) },
		func() { ExprM(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}
