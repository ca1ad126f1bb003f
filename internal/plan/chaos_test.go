package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"xqindep/internal/core"
	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/xquery"
)

// The plan-cache containment proof: under 50 seeded fault schedules
// arming the core.plan/* stage points (budget, error, panic, and
// corrupt-artifact at the handoff),
//
//  1. no corrupted plan ever becomes a cache resident — after every
//     request, every resident passes its Verify self-check,
//  2. a corruption-free request never serves an unsound verdict; an
//     unsound serve is possible only on the request whose own
//     schedule fired a corrupt-artifact fault (the clone is private,
//     so the damage dies with the request),
//  3. after the chaos rounds, the surviving cache serves every pair
//     of the corpus with its ground-truth verdict — faults never
//     leak through the cache into later, fault-free requests,
//  4. injected failures come back typed (budget, injected error, or
//     InternalError from an injected panic), never as raw panics.
//
// CHAOS_SEED overrides the base seed for soak runs.

func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

type planChaosPair struct {
	qs, us string
	q      xquery.Query
	u      xquery.Update
	indep  bool
}

func planChaosCorpus(t *testing.T) []planChaosPair {
	t.Helper()
	pairs := []planChaosPair{
		{qs: "//title", us: "delete //price"},
		{qs: "//title", us: "delete //title"},
		{qs: "//author", us: "for $x in //book return insert <author>x</author> into $x"},
		{qs: "//price", us: "delete //author"},
		{qs: "/bib/book/title", us: "delete /bib/book/price"},
		{qs: "//book[price]/title", us: "delete //price"},
	}
	a := core.NewAnalyzer(bib)
	opts := core.Options{Plans: plan.NewCache(64)}
	for i := range pairs {
		pairs[i].q = xquery.MustParseQuery(pairs[i].qs)
		pairs[i].u = xquery.MustParseUpdate(pairs[i].us)
		r, err := a.AnalyzeContext(context.Background(), pairs[i].q, pairs[i].u, core.MethodChains, opts)
		if err != nil {
			t.Fatalf("ground truth for %s | %s: %v", pairs[i].qs, pairs[i].us, err)
		}
		pairs[i].indep = r.Independent
	}
	return pairs
}

func TestChaosPlanCacheContainment(t *testing.T) {
	faultinject.Enable()
	const runs = 50
	seed := int64(chaosEnvInt("CHAOS_SEED", 7))
	pairs := planChaosCorpus(t)

	for run := 0; run < runs; run++ {
		run := run
		t.Run(fmt.Sprintf("run%03d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(run)))
			sched := faultinject.RandomPlanSchedule(rng, 1+rng.Intn(3))
			cache := plan.NewCache(256)
			reg := quarantine.NewRegistry(1)
			opts := core.Options{Plans: cache, Quarantine: reg}
			analyzer := core.NewAnalyzer(bib)
			ctx := faultinject.With(context.Background(), sched)

			for round := 0; round < 3; round++ {
				for _, p := range pairs {
					res, err := analyzer.AnalyzeContext(ctx, p.q, p.u, core.MethodChains, opts)
					if err != nil {
						// Invariant 4: typed failures only.
						var ierr *guard.InternalError
						if !errors.As(err, &ierr) && !errors.Is(err, faultinject.ErrInjected) &&
							!errors.Is(err, guard.ErrBudgetExceeded) && !errors.Is(err, context.Canceled) {
							t.Fatalf("unexpected error class: %v (schedule %s)", err, sched)
						}
					} else if res.Independent && !p.indep {
						// Invariant 2: unsound only under a fired
						// corruption fault.
						corrupted := false
						for _, f := range sched.Fired() {
							if strings.Contains(f, "corrupt-artifact") {
								corrupted = true
								break
							}
						}
						if !corrupted {
							t.Fatalf("unsound verdict for %s | %s without a corruption fault (schedule %s, fired %v)",
								p.qs, p.us, sched, sched.Fired())
						}
					}
					// Invariant 1: injected damage never reaches the
					// cache — every resident stays self-consistent after
					// every request, faulted or not.
					for _, r := range cache.Residents() {
						if verr := r.Verify(); verr != nil {
							t.Fatalf("corrupted plan leaked into the cache after %s | %s: %v (schedule %s, fired %v)",
								p.qs, p.us, verr, sched, sched.Fired())
						}
					}
				}
			}

			// Invariant 3: with the faults spent and a clean context,
			// the surviving cache must serve only ground-truth verdicts
			// — a corrupted plan that slipped in would poison these.
			for _, p := range pairs {
				res, err := analyzer.AnalyzeContext(context.Background(), p.q, p.u, core.MethodChains, opts)
				if err != nil {
					t.Fatalf("post-chaos request %s | %s: %v", p.qs, p.us, err)
				}
				if res.Independent != p.indep {
					t.Fatalf("post-chaos verdict for %s | %s = %v, ground truth %v (schedule %s, fired %v): a faulted plan crossed requests",
						p.qs, p.us, res.Independent, p.indep, sched, sched.Fired())
				}
				if res.Method == core.MethodChains && res.Plan == "" {
					t.Fatalf("chains verdict without plan provenance: %+v", res)
				}
			}
		})
	}
}

// TestChaosPlanScheduleDeterminism pins RandomPlanSchedule to its
// seeded contract: the same seed draws the same schedule, and every
// schedule arms at least one plan-stage fault.
func TestChaosPlanScheduleDeterminism(t *testing.T) {
	for s := int64(0); s < 20; s++ {
		a := faultinject.RandomPlanSchedule(rand.New(rand.NewSource(s)), 3)
		b := faultinject.RandomPlanSchedule(rand.New(rand.NewSource(s)), 3)
		if a.String() != b.String() {
			t.Fatalf("seed %d not deterministic: %s vs %s", s, a, b)
		}
		armed := false
		for _, p := range faultinject.PlanPoints {
			if strings.Contains(a.String(), p) {
				armed = true
				break
			}
		}
		if !armed {
			t.Fatalf("seed %d armed no plan-stage fault: %s", s, a)
		}
	}
}

// TestChaosCorruptSchemaLeavesNoUpdateSide: a build under a
// WithCorruption schema (core.artifact's corrupt-artifact fault) runs
// with no plan cache, so it never leaves an update-tier resident. Over
// 20 seeded schedules that arm such a fault beside a plan-stage one,
// every request whose own schedule fired it leaves the update tier's
// counters and resident exactly as they were, and after the faults the
// cache serves every pair of the corpus its ground-truth verdict.
func TestChaosCorruptSchemaLeavesNoUpdateSide(t *testing.T) {
	faultinject.Enable()
	seed := int64(chaosEnvInt("CHAOS_SEED", 7))
	pairs := planChaosCorpus(t)
	corrupted := 0
	for run := 0; run < 20; run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)))
		sched := faultinject.NewSchedule(
			faultinject.Fault{Point: "core.artifact", Kind: faultinject.KindCorruptArtifact, After: 1 + rng.Intn(len(pairs))},
			faultinject.Fault{
				Point: faultinject.PlanPoints[rng.Intn(len(faultinject.PlanPoints))],
				Kind:  faultinject.Kind(rng.Intn(3)),
				After: 1 + rng.Intn(3),
			})
		cache := plan.NewCache(256)
		opts := core.Options{Plans: cache}
		analyzer := core.NewAnalyzer(bib)
		ctx := faultinject.With(context.Background(), sched)
		for round := 0; round < 2; round++ {
			for _, p := range pairs {
				before, fired := cache.Stats().Update, len(sched.Fired())
				analyzer.AnalyzeContext(ctx, p.q, p.u, core.MethodChains, opts)
				for _, f := range sched.Fired()[fired:] {
					if !strings.HasPrefix(f, "core.artifact/corrupt-artifact") {
						continue
					}
					corrupted++
					if after := cache.Stats().Update; after != before {
						t.Fatalf("run %d: a build under a corrupted schema moved the update tier from %+v to %+v (schedule %s)",
							run, before, after, sched)
					}
				}
			}
		}
		for _, p := range pairs {
			res, err := analyzer.AnalyzeContext(context.Background(), p.q, p.u, core.MethodChains, opts)
			if err != nil || res.Independent != p.indep {
				t.Fatalf("run %d: post-chaos verdict for %s | %s = %+v, %v; ground truth %v (schedule %s)",
					run, p.qs, p.us, res, err, p.indep, sched)
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no schedule fired a corrupt-schema build")
	}
}
