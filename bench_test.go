package xqindep

// The benchmarks in this file regenerate the measurements behind every
// panel of the paper's Figure 3 (see DESIGN.md §7 and EXPERIMENTS.md):
//
//	BenchmarkFigure3a…  — static analysis time per update vs all views
//	BenchmarkFigure3b…  — full 36×31 matrix classification cost
//	BenchmarkFigure3c…  — view re-materialisation under each strategy
//	BenchmarkFigure3d…  — R-benchmark chain-inference scalability
//	BenchmarkConflictCheck — the CDAG comparison step alone (§6.1)
//
// cmd/xqbench renders the same experiments as paper-style tables.

import (
	"context"
	"fmt"
	"testing"

	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/eval"
	"xqindep/internal/pathanalysis"
	"xqindep/internal/plan"
	"xqindep/internal/rbench"
	"xqindep/internal/refcdag"
	"xqindep/internal/typeanalysis"
	"xqindep/internal/xmark"
	"xqindep/internal/xmltree"
)

// BenchmarkFigure3aChains measures, per update, the chain analysis
// (CDAG engine, k = kq+ku) against all 36 views — the solid series of
// Figure 3.a.
func BenchmarkFigure3aChains(b *testing.B) {
	d := xmark.Schema()
	views := xmark.Views()
	for _, u := range xmark.Updates() {
		b.Run(u.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, v := range views {
					cdag.Independence(d, v.AST, u.AST)
				}
			}
		})
	}
}

// BenchmarkFigure3aTypes is the baseline series of Figure 3.a: the
// type-set analysis of [6] per update against all views.
func BenchmarkFigure3aTypes(b *testing.B) {
	d := xmark.Schema()
	views := xmark.Views()
	for _, u := range xmark.Updates() {
		b.Run(u.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ta := typeanalysis.New(d)
				for _, v := range views {
					ta.CheckIndependence(v.AST, u.AST)
				}
			}
		})
	}
}

// BenchmarkFigure3bMatrix classifies the full 36×31 pair matrix with
// each technique — the work behind the precision bars of Figure 3.b.
func BenchmarkFigure3bMatrix(b *testing.B) {
	d := xmark.Schema()
	views := xmark.Views()
	updates := xmark.Updates()
	b.Run("chains", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range updates {
				for _, v := range views {
					cdag.Independence(d, v.AST, u.AST)
				}
			}
		}
	})
	b.Run("types", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ta := typeanalysis.New(d)
			for _, u := range updates {
				for _, v := range views {
					ta.CheckIndependence(v.AST, u.AST)
				}
			}
		}
	})
	b.Run("paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range updates {
				for _, v := range views {
					pathanalysis.Independence(v.AST, u.AST)
				}
			}
		}
	})
}

// BenchmarkFigure3cRefresh measures average view refresh time after an
// update at three document scales, under the three strategies of
// Figure 3.c: refresh-all, refresh those not independent per the type
// baseline, refresh those not independent per chains.
func BenchmarkFigure3cRefresh(b *testing.B) {
	d := xmark.Schema()
	views := xmark.Views()
	updates := xmark.Updates()
	// Verdict tables, computed outside the timed loops.
	ta := typeanalysis.New(d)
	chainIndep := map[string]map[string]bool{}
	typeIndep := map[string]map[string]bool{}
	for _, u := range updates {
		chainIndep[u.Name] = map[string]bool{}
		typeIndep[u.Name] = map[string]bool{}
		for _, v := range views {
			chainIndep[u.Name][v.Name] = cdag.Independence(d, v.AST, u.AST).Independent
			typeIndep[u.Name][v.Name] = ta.CheckIndependence(v.AST, u.AST).Independent
		}
	}
	for _, factor := range []float64{1, 4, 16} {
		base := xmark.GenerateDocument(77, factor)
		// One representative updated document per update.
		updated := make(map[string]xmltree.Tree, len(updates))
		for _, u := range updates {
			s := xmltree.NewStore()
			root := s.Copy(base.Store, base.Root)
			if err := eval.Update(s, eval.RootEnv(root), u.AST); err != nil {
				b.Fatal(err)
			}
			updated[u.Name] = xmltree.NewTree(s, root)
		}
		strategies := []struct {
			name  string
			indep map[string]map[string]bool
		}{
			{"refresh-all", nil},
			{"types", typeIndep},
			{"chains", chainIndep},
		}
		for _, st := range strategies {
			b.Run(fmt.Sprintf("factor=%g/%s", factor, st.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, u := range updates {
						doc := updated[u.Name]
						for _, v := range views {
							if st.indep != nil && st.indep[u.Name][v.Name] {
								continue
							}
							s := xmltree.NewStore()
							root := s.Copy(doc.Store, doc.Root)
							if _, err := eval.Query(s, eval.RootEnv(root), v.AST); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			})
		}
	}
}

// BenchmarkFigure3dInference measures CDAG chain inference of em over
// dn at k ∈ {m, m+5, m+10}, plus the XMark ("auctions") column — the
// scalability surface of Figure 3.d.
func BenchmarkFigure3dInference(b *testing.B) {
	for _, n := range []int{1, 3, 5, 10, 20} {
		d := rbench.SchemaN(n)
		for _, m := range []int{1, 5, 10} {
			q := rbench.ExprM(m)
			for _, dk := range []int{0, 5, 10} {
				k := m + dk
				b.Run(fmt.Sprintf("d%d/e%d/k=%d", n, m, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e := cdag.NewEngine(d, k, 0)
						e.Query(e.RootEnv(), q)
					}
				})
			}
		}
	}
	d := xmark.Schema()
	for _, m := range []int{1, 5, 10} {
		q := rbench.ExprM(m)
		for _, dk := range []int{0, 5, 10} {
			k := m + dk
			b.Run(fmt.Sprintf("auctions/e%d/k=%d", m, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := cdag.NewEngine(d, k, 0)
					e.Query(e.RootEnv(), q)
				}
			})
		}
	}
}

// BenchmarkConflictCheck isolates the CDAG comparison step (§6.1:
// O(c·|q|·|u|)): the chain DAGs are inferred once, only the three
// conflict checks are timed.
func BenchmarkConflictCheck(b *testing.B) {
	d := xmark.Schema()
	v, _ := xmark.ViewByName("A3")
	u, _ := xmark.UpdateByName("UB2")
	e := cdag.EngineFor(d, v.AST, u.AST)
	qc := e.Query(e.RootEnv(), v.AST)
	uc := e.Update(e.RootEnv(), u.AST)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdag.ConflictRetUpdate(qc.Ret, uc)
		cdag.ConflictUpdateRet(uc, qc.Ret)
		cdag.ConflictUpdateUsed(uc, qc.Used)
	}
}

// BenchmarkCompiledVsReference pits the dense compiled-schema engine
// against the retained map-based reference (internal/refcdag) on one
// representative XMark pair, for the two phases the compiled-schema
// refactor targets: DAG inference (query + update chains from scratch)
// and the isolated conflict-check step. cmd/xqbench -compiled-bench
// writes the same comparison to BENCH_compiledschema.json.
func BenchmarkCompiledVsReference(b *testing.B) {
	d := xmark.Schema()
	v, _ := xmark.ViewByName("A3")
	u, _ := xmark.UpdateByName("UB2")

	b.Run("infer/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := refcdag.EngineFor(d, v.AST, u.AST)
			e.Query(e.RootEnv(), v.AST)
			e.Update(e.RootEnv(), u.AST)
		}
	})
	b.Run("infer/dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := cdag.EngineFor(d, v.AST, u.AST)
			e.Query(e.RootEnv(), v.AST)
			e.Update(e.RootEnv(), u.AST)
		}
	})

	re := refcdag.EngineFor(d, v.AST, u.AST)
	rq := re.Query(re.RootEnv(), v.AST)
	ru := re.Update(re.RootEnv(), u.AST)
	b.Run("conflict/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refcdag.ConflictRetUpdate(rq.Ret, ru)
			refcdag.ConflictUpdateRet(ru, rq.Ret)
			refcdag.ConflictUpdateUsed(ru, rq.Used)
		}
	})
	de := cdag.EngineFor(d, v.AST, u.AST)
	dq := de.Query(de.RootEnv(), v.AST)
	du := de.Update(de.RootEnv(), u.AST)
	b.Run("conflict/dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cdag.ConflictRetUpdate(dq.Ret, du)
			cdag.ConflictUpdateRet(du, dq.Ret)
			cdag.ConflictUpdateUsed(du, dq.Used)
		}
	})
}

// BenchmarkEvaluator covers the dynamic-semantics substrate: one
// deep view and one update on a mid-size document.
func BenchmarkEvaluator(b *testing.B) {
	doc := xmark.GenerateDocument(9, 4)
	v, _ := xmark.ViewByName("A3")
	u, _ := xmark.UpdateByName("UI4")
	b.Run("query-A3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := xmltree.NewStore()
			root := s.Copy(doc.Store, doc.Root)
			if _, err := eval.Query(s, eval.RootEnv(root), v.AST); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-UI4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := xmltree.NewStore()
			root := s.Copy(doc.Store, doc.Root)
			if err := eval.Update(s, eval.RootEnv(root), u.AST); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xmark.GenerateDocument(int64(i), 1)
		}
	})
}

// BenchmarkPreparedVsCold measures one full 36×31 XMark matrix pass
// through the staged analysis pipeline, cold (a fresh plan cache per
// iteration, so every pair fingerprints, infers and conflict-checks
// from scratch) against warm (one cache populated before the timer, so
// every pair is a fingerprint-keyed lookup plus the per-request
// admission recheck). The bench/ module's warm-matrix workload measures
// the same warm path end to end, over HTTP.
func BenchmarkPreparedVsCold(b *testing.B) {
	d := xmark.Schema()
	a := core.NewAnalyzer(d)
	views, updates := xmark.Views(), xmark.Updates()
	ctx := context.Background()
	pass := func(b *testing.B, opts core.Options) {
		b.Helper()
		for _, v := range views {
			for _, u := range updates {
				if _, err := a.AnalyzeContext(ctx, v.AST, u.AST, core.MethodChains, opts); err != nil {
					b.Fatalf("%s×%s: %v", v.Name, u.Name, err)
				}
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pass(b, core.Options{Plans: plan.NewCache(plan.DefaultCacheSize)})
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		opts := core.Options{Plans: plan.NewCache(plan.DefaultCacheSize)}
		pass(b, opts) // populate: the timed passes all hit
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(b, opts)
		}
	})
}
