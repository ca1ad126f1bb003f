package experiments

// The benchmarks in this file time the units behind each panel of the
// paper's Figure 3 (see DESIGN.md §7 and EXPERIMENTS.md), the same
// ones the Figure3x functions time for cmd/xqbench, on xqbench's
// default grids:
//
//	BenchmarkFigure3a…  — static analysis time per update vs all views
//	BenchmarkFigure3b…  — full 36×31 matrix classification cost
//	BenchmarkFigure3c…  — view re-materialisation under each strategy
//	BenchmarkFigure3d…  — R-benchmark chain-inference scalability

import (
	"fmt"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/xmark"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// BenchmarkFigure3aChains measures, per update, the chain analysis
// (CDAG engine, k = kq+ku, under the package budget) against all 36
// views — the solid series of Figure 3.a.
func BenchmarkFigure3aChains(b *testing.B) { benchmarkPerUpdate(b, chains) }

// BenchmarkFigure3aTypes is the baseline series of Figure 3.a: the
// type-set analysis of [6] per update against all views.
func BenchmarkFigure3aTypes(b *testing.B) { benchmarkPerUpdate(b, types) }

// benchmarkPerUpdate times verdicts(a, u) in one sub-benchmark per
// update u.
func benchmarkPerUpdate(b *testing.B, a analysis) {
	for _, u := range xmark.Updates() {
		b.Run(u.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				verdicts(a, u)
			}
		})
	}
}

// BenchmarkFigure3bMatrix classifies the full 36×31 pair matrix with
// each technique — the work behind the precision bars of Figure 3.b.
func BenchmarkFigure3bMatrix(b *testing.B) {
	for _, a := range []analysis{chains, types, paths} {
		b.Run(string(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, u := range xmark.Updates() {
					if _, err := verdicts(a, u); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFigure3cRefresh measures the refresh passes after every
// update at three document scales, under the three strategies of
// Figure 3.c: refresh-all, refresh those not independent per the type
// baseline, refresh those not independent per chains. A factor's
// updated documents are built only when a filter selects the factor.
func BenchmarkFigure3cRefresh(b *testing.B) {
	strats := strategies()
	for _, factor := range []float64{1, 4, 16} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			base := xmark.GenerateDocument(figure3cSeed, factor)
			docs := make([]xmltree.Tree, len(xmark.Updates()))
			for i, u := range xmark.Updates() {
				docs[i] = updated(base, u)
			}
			for _, s := range strats {
				b.Run(s.name, func(b *testing.B) {
					for n := 0; n < b.N; n++ {
						for i, doc := range docs {
							refresh(doc, s.skip[i])
						}
					}
				})
			}
		})
	}
}

// BenchmarkFigure3dInference measures CDAG chain inference of em over
// dn at k ∈ {m, m+5, m+10}, plus the XMark ("auctions") column — the
// scalability surface of Figure 3.d.
func BenchmarkFigure3dInference(b *testing.B) {
	figure3dGrid([]int{1, 3, 5, 10, 20}, []int{1, 5, 10}, func(r Figure3dRow, c *dtd.Compiled, q xquery.Query) {
		b.Run(fmt.Sprintf("%s/e%d/k=%d", r.Schema, r.M, r.K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inferAt(c, q, r.K)
			}
		})
	})
}
