package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// Over all 1,116 XMark pairs, Resident declines before the pair's plan
// is built and then answers what the ladder answers from the same
// resident. Under a MaxK below the plan's k it declines, and the
// ladder degrades.
func TestResidentMatchesTheLadderOverTheXMarkMatrix(t *testing.T) {
	a := NewAnalyzer(xmark.Schema())
	plans := plan.NewCache(plan.DefaultCacheSize)
	ctx := context.Background()
	var views []*xquery.PreparedQuery
	for _, v := range xmark.Views() {
		views = append(views, xquery.PrepareQuery(v.Text, v.AST))
	}
	// bare drops what two answers to one question may differ in: the
	// time taken.
	bare := func(r Result) Result {
		r.Elapsed = 0
		return r
	}
	pairs, degraded := 0, 0
	for _, xu := range xmark.Updates() {
		u := xquery.PrepareUpdate(xu.Text, xu.AST)
		for _, q := range views {
			opts := Options{Plans: plans}
			if res, ok := a.Resident(ctx, q, u, opts); ok {
				t.Fatalf("%s | %s: answered %+v before the plan was built", q.Text, u.Text, res)
			}
			if cold, err := a.AnalyzePrepared(ctx, q, u, MethodChains, opts); err != nil || cold.Plan != "cold" {
				t.Fatalf("%s | %s: cold build %+v, %v", q.Text, u.Text, cold, err)
			}
			ladder, err := a.AnalyzePrepared(ctx, q, u, MethodChains, opts)
			if err != nil || ladder.Plan != "warm" {
				t.Fatalf("%s | %s: ladder %+v, %v", q.Text, u.Text, ladder, err)
			}
			hit, ok := a.Resident(ctx, q, u, opts)
			if !ok || !reflect.DeepEqual(bare(hit), bare(ladder)) {
				t.Fatalf("%s | %s: Resident %+v (answered %v), ladder %+v", q.Text, u.Text, hit, ok, ladder)
			}
			pairs++
			if ladder.K < 2 {
				continue
			}
			low := Options{Plans: plans, Limits: guard.Limits{MaxK: ladder.K - 1}}
			if res, ok := a.Resident(ctx, q, u, low); ok {
				t.Fatalf("%s | %s: MaxK %d below k: answered %+v", q.Text, u.Text, ladder.K-1, res)
			}
			if got, err := a.AnalyzePrepared(ctx, q, u, MethodChains, low); err != nil || !got.Degraded {
				t.Fatalf("%s | %s: MaxK %d: ladder %+v, %v, want a degraded verdict", q.Text, u.Text, ladder.K-1, got, err)
			}
			degraded++
		}
	}
	if pairs != 1116 || degraded == 0 {
		t.Fatalf("checked %d pairs, %d of them under a lower MaxK; want 1,116 and some", pairs, degraded)
	}
	// One miss per cold build, one hit per warm request, and one per
	// ladder run under the lower MaxK: a decline counts nothing.
	if st, _ := plans.TierStats(); st.Misses != 1116 || st.Hits != 2*1116+int64(degraded) {
		t.Fatalf("plan tier %+v, want 1,116 misses and %d hits", st, 2*1116+degraded)
	}
}

// Resident answers a plan that AnalyzePrepared made resident on a bare
// context, and declines the same request once its context carries a
// fault schedule, even one that arms nothing: a fault-injected request
// runs the ladder, where the fault points are.
func TestResidentDeclinesAFaultInjectedRequest(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.PrepareQuery("//title", xquery.MustParseQuery("//title"))
	u := xquery.PrepareUpdate("delete //price", xquery.MustParseUpdate("delete //price"))
	opts := Options{Plans: plan.NewCache(plan.DefaultCacheSize)}
	ctx := context.Background()
	if res, err := a.AnalyzePrepared(ctx, q, u, MethodChains, opts); err != nil || res.Plan != "cold" {
		t.Fatalf("cold build %+v, %v", res, err)
	}
	if res, ok := a.Resident(ctx, q, u, opts); !ok || res.Plan != "warm" {
		t.Fatalf("bare context: Resident %+v (answered %v), want a warm answer", res, ok)
	}
	if res, ok := a.Resident(faultinject.With(ctx, faultinject.NewSchedule()), q, u, opts); ok {
		t.Fatalf("fault-injected context: Resident answered %+v, want a decline", res)
	}
}

// A fault schedule reaches only the request whose context carries it,
// with no process-wide setup: a budget fault armed at cdag.build
// degrades each request that carries one, and the same pair analyzed
// concurrently on bare contexts does not degrade.
func TestFaultScheduleIsRequestScoped(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")
	const requests = 8
	var (
		wg      sync.WaitGroup
		results [requests]Result
		errs    [requests]error
		scheds  [requests]*faultinject.Schedule
	)
	for i := range requests {
		ctx := context.Background()
		if i%2 == 0 {
			scheds[i] = faultinject.NewSchedule(faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindBudget})
			ctx = faultinject.With(ctx, scheds[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No plan cache, so every request builds cold and reaches
			// cdag.build.
			results[i], errs[i] = a.AnalyzeContext(ctx, q, u, MethodChains, Options{})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if scheds[i] == nil {
			if res.Degraded || !res.Independent || res.Plan != "cold" {
				t.Errorf("bare request %d: %+v, want the undegraded cold chains verdict", i, res)
			}
			continue
		}
		var le *guard.LimitError
		if !res.Degraded || !errors.As(res.Err, &le) || le.Resource != "fault:cdag.build" {
			t.Errorf("scheduled request %d: %+v, want a degradation by the fault at cdag.build", i, res)
		}
		if fired := scheds[i].Fired(); len(fired) != 1 || fired[0] != "cdag.build/budget@1" {
			t.Errorf("scheduled request %d fired %v, want its one fault once", i, fired)
		}
	}
}
