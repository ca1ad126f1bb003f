package xqindep

// The benchmarks in this file measure the engine and the serving
// path outside the paper's evaluation: the dense engine against the
// map-based reference, including the §6.1 conflict-check step alone
// (BenchmarkCompiledVsReference/conflict/dense), the evaluator, cold
// against warm plans, and the audit's cost. The Figure 3 benchmarks
// are in internal/experiments, beside the code cmd/xqbench runs.

import (
	"context"
	"testing"

	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/eval"
	"xqindep/internal/plan"
	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
	"xqindep/internal/xmltree"
)

// BenchmarkCompiledVsReference pits the dense compiled-schema engine
// against the retained map-based reference (internal/refcdag) on one
// representative XMark pair, for the two phases the compiled-schema
// refactor targets: DAG inference (query + update chains from scratch)
// and the isolated conflict-check step. BENCH_compiledschema.json
// records an earlier run of the same comparison.
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

// BenchmarkAuditOverhead measures what the runtime verdict audit costs
// the request path: one independent XMark pair (q1 × UB2, so sampled
// audits actually fire) served by a pool with auditing off, then by one
// that audits 1% of Independent verdicts. Observe is a non-blocking
// enqueue and the re-derivations run on the auditor's own workers, so
// the two arms should agree within noise. BENCH_sentinel.json records
// an earlier measurement of the same comparison.
func BenchmarkAuditOverhead(b *testing.B) {
	s := MustParseSchema(xmark.SchemaText)
	v, _ := xmark.ViewByName("q1")
	u, _ := xmark.UpdateByName("UB2")
	q, up := MustParseQuery(v.Text), MustParseUpdate(u.Text)
	ctx := context.Background()
	for _, arm := range []struct {
		name string
		rate float64
	}{{"off", 0}, {"sampled-1pct", 0.01}} {
		b.Run(arm.name, func(b *testing.B) {
			p := NewPool(PoolOptions{Workers: 2, AuditRate: arm.rate, AuditSeed: 1})
			defer p.Close()
			// The first request builds the plan; the timed ones are the
			// warm serving path the audit rides on.
			if _, err := p.Analyze(ctx, s, q, up, Chains, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := p.Analyze(ctx, s, q, up, Chains, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Independent {
					b.Fatal("q1 × UB2 is not independent, so no audit would fire")
				}
			}
			b.StopTimer()
			p.Flush()
			if st, _ := p.AuditStats(); st.Disagreements != 0 {
				b.Fatalf("audit disagreements on a fault-free run: %+v", st)
			}
		})
	}
}
