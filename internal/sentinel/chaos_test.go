package sentinel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/quarantine"
	"xqindep/internal/xquery"
)

// The chaos containment proof: under seeded fault schedules that
// include the unsoundness faults (corrupt-artifact, flip-verdict),
// with auditing at sample rate 1.0,
//
//  1. zero unsound Independent verdicts escape un-audited — every
//     serve of Independent=true for a ground-truth-dependent pair is
//     matched by a recorded disagreement,
//  2. every disagreement quarantines its fingerprint within the
//     request window (here: by the next request after Flush),
//  3. nothing ever upgrades a verdict — once quarantined, every
//     served verdict is conservative until clean retrials recover it,
//  4. no goroutine leaks.
//
// CHAOS_SEED and CHAOS_RUNS override the defaults for soak runs.

func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// chaosPair is one corpus entry with its ground-truth verdict,
// established once by the clean engines (differentially tested
// elsewhere) before any fault is armed.
type chaosPair struct {
	qs, us string
	q      xquery.Query
	u      xquery.Update
	indep  bool
}

func chaosCorpus(t *testing.T) []chaosPair {
	t.Helper()
	pairs := []chaosPair{
		{qs: "//title", us: "delete //price"},
		{qs: "//title", us: "delete //title"},
		{qs: "//author", us: "for $x in //book return insert <author>x</author> into $x"},
		{qs: "//price", us: "delete //author"},
		{qs: "/bib/book/title", us: "delete /bib/book/price"},
		{qs: "//book[price]/title", us: "delete //price"},
	}
	a := core.NewAnalyzer(bib)
	for i := range pairs {
		pairs[i].q = xquery.MustParseQuery(pairs[i].qs)
		pairs[i].u = xquery.MustParseUpdate(pairs[i].us)
		r, err := a.Analyze(pairs[i].q, pairs[i].u, core.MethodChains)
		if err != nil {
			t.Fatalf("ground truth for %s | %s: %v", pairs[i].qs, pairs[i].us, err)
		}
		pairs[i].indep = r.Independent
	}
	return pairs
}

func TestChaosAuditContainment(t *testing.T) {
	runs := chaosEnvInt("CHAOS_RUNS", 200)
	seed := int64(chaosEnvInt("CHAOS_SEED", 1))
	if testing.Short() {
		runs = 40
	}
	pairs := chaosCorpus(t)
	g0 := runtime.NumGoroutine()

	for run := 0; run < runs; run++ {
		run := run
		t.Run(fmt.Sprintf("run%03d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(run)))
			sched := faultinject.RandomAuditSchedule(rng, 1+rng.Intn(3))
			reg := quarantine.NewRegistry(1)
			aud := New(Config{
				SampleRate: 1,
				Seed:       seed + int64(run),
				Quarantine: reg,
			})
			defer aud.Close()

			analyzer := core.NewAnalyzer(bib)
			ctx := faultinject.With(context.Background(), sched)
			unsoundServed := 0
			for round := 0; round < 3; round++ {
				for _, p := range pairs {
					res, err := analyzer.AnalyzeContext(ctx, p.q, p.u, core.MethodChains, core.Options{Quarantine: reg})
					if err != nil {
						// Injected errors/panics must come back typed —
						// never a raw panic, never a wrong verdict.
						var ierr *guard.InternalError
						if !errors.As(err, &ierr) && !errors.Is(err, faultinject.ErrInjected) &&
							!errors.Is(err, guard.ErrBudgetExceeded) && !errors.Is(err, context.Canceled) {
							t.Fatalf("unexpected error class: %v", err)
						}
						continue
					}
					if res.Independent && !p.indep {
						unsoundServed++
					}
					if res.Independent && quarantine.IsQuarantined(res.Err) {
						t.Fatalf("quarantine path upgraded a verdict: %+v", res)
					}
					aud.Observe(Observation{
						D: bib, Query: xquery.PrepareQuery(p.qs, p.q), Update: xquery.PrepareUpdate(p.us, p.u),
						Result: res, FaultSchedule: sched.String(),
					})
				}
			}
			aud.Flush()
			st := aud.Stats()

			// Invariant 1: every unsound serve was audited and refuted.
			// (Sample rate 1.0 and Flush make this deterministic; the
			// shadow engine is immune to both fault kinds, so it
			// refutes every flip/corruption that changed a verdict.)
			if unsoundServed > 0 && st.Disagreements == 0 {
				t.Fatalf("%d unsound verdicts served, zero disagreements recorded (schedule %s, stats %+v)",
					unsoundServed, sched, st)
			}
			if st.Dropped != 0 {
				t.Fatalf("audits dropped in chaos run: %+v", st)
			}

			// Invariant 2: a disagreement quarantines the fingerprint by
			// the next request.
			if st.Disagreements > 0 {
				if got := reg.State(bib.Fingerprint()); got != "quarantined" {
					t.Fatalf("disagreements recorded but fingerprint %s", got)
				}
				res, err := analyzer.AnalyzeContext(context.Background(), pairs[0].q, pairs[0].u, core.MethodChains, core.Options{Quarantine: reg})
				if err != nil {
					t.Fatalf("post-quarantine request: %v", err)
				}
				// Invariant 3: only downgrades.
				if res.Independent || res.Method != core.MethodConservative {
					t.Fatalf("post-quarantine request not conservative: %+v", res)
				}
				if len(aud.Incidents()) == 0 {
					t.Fatal("disagreements recorded but incident ring empty")
				}
			}
		})
	}

	// Invariant 4: no goroutine leaks once every auditor is closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= g0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: started with %d, now %d", g0, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosRecoveryAfterQuarantine drives the full lifecycle under a
// one-shot flip schedule: trip, half-open retrials, recovery, full
// service — mirroring the PR 2 breaker proof at the audit layer.
func TestChaosRecoveryAfterQuarantine(t *testing.T) {
	pairs := chaosCorpus(t)
	seed := int64(chaosEnvInt("CHAOS_SEED", 1))
	for run := 0; run < 20; run++ {
		reg := quarantine.NewRegistry(1)
		now := time.Unix(0, 0)
		reg.SetNow(func() time.Time { return now })
		aud := New(Config{SampleRate: 1, Seed: seed + int64(run), Quarantine: reg})

		// Pick a dependent pair and flip its verdict once.
		var dep chaosPair
		for _, p := range pairs {
			if !p.indep {
				dep = p
				break
			}
		}
		sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
		analyzer := core.NewAnalyzer(bib)
		res, err := analyzer.AnalyzeContext(faultinject.With(context.Background(), sched), dep.q, dep.u, core.MethodChains, core.Options{Quarantine: reg})
		if err != nil || !res.Independent {
			t.Fatalf("run %d: flip not served: %+v, %v", run, res, err)
		}
		aud.Observe(Observation{D: bib, Query: xquery.PrepareQuery(dep.qs, dep.q), Update: xquery.PrepareUpdate(dep.us, dep.u), Result: res, FaultSchedule: sched.String()})
		aud.Flush()
		if got := reg.State(bib.Fingerprint()); got != "quarantined" {
			t.Fatalf("run %d: not quarantined: %s", run, got)
		}

		// The 30s backoff elapses; clean retrials (no fault armed now)
		// recover.
		now = now.Add(31 * time.Second)
		for i := 0; i < 16 && reg.State(bib.Fingerprint()) != "clean"; i++ {
			res, err := analyzer.AnalyzeContext(context.Background(), pairs[0].q, pairs[0].u, core.MethodChains, core.Options{Quarantine: reg})
			if err != nil {
				t.Fatalf("run %d: retrial request: %v", run, err)
			}
			if res.Independent {
				t.Fatalf("run %d: upgraded verdict before recovery: %+v", run, res)
			}
			aud.Observe(Observation{D: bib, Query: xquery.PrepareQuery(pairs[0].qs, pairs[0].q), Update: xquery.PrepareUpdate(pairs[0].us, pairs[0].u), Result: res})
			aud.Flush()
		}
		if got := reg.State(bib.Fingerprint()); got != "clean" {
			t.Fatalf("run %d: never recovered: %s (stats %+v / %+v)", run, got, aud.Stats(), reg.Stats())
		}
		res, err = analyzer.AnalyzeContext(context.Background(), pairs[0].q, pairs[0].u, core.MethodChains, core.Options{Quarantine: reg})
		if err != nil || !res.Independent {
			t.Fatalf("run %d: full service not restored: %+v, %v", run, res, err)
		}
		aud.Close()
	}
}
