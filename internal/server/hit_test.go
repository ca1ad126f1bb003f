package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/guard"
	"xqindep/internal/obs"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/sentinel"
)

// wedge holds s's lone run slot, until the test ends, with a request
// on a schema of its own that stalls at core.analyze.
func wedge(t *testing.T, s *Server) {
	t.Helper()
	task, ctx, cancel, stalled := stalledTask(t, ownSchemaA)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Do(ctx, task)
	}()
	<-stalled
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// mustDo runs task through s and fails the test on an error; a request
// that waits for a run slot gives up after a few seconds.
func mustDo(t *testing.T, s *Server, ctx context.Context, task Task) core.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	res, err := s.Do(ctx, task)
	if err != nil {
		t.Fatalf("%s | %s: %v", task.Query.Text, task.Update.Text, err)
	}
	return res
}

// Servers built without Config.Plans each own a plan cache: a pair
// server A answers warm is still cold on server B.
func TestServersWithoutPlansShareNone(t *testing.T) {
	a, b := New(Config{Workers: 1}), New(Config{Workers: 1})
	t.Cleanup(func() { a.Close(); b.Close() })
	task := mustTask(t, bibSchema, "//title", "delete //author")
	for _, want := range []string{"cold", "warm"} {
		if res := mustDo(t, a, context.Background(), task); res.Plan != want {
			t.Fatalf("server A: plan %q, want %s", res.Plan, want)
		}
	}
	if res := mustDo(t, b, context.Background(), task); res.Plan != "cold" {
		t.Fatalf("server B after A's warm answer: plan %q, want cold", res.Plan)
	}
}

// A request whose plan is resident is answered without a run slot:
// with the lone slot wedged by a request whose plan is not, it is
// still answered, warm.
func TestWarmHitNeedsNoRunSlot(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: time.Hour, Plans: plan.NewCache(16)})
	t.Cleanup(func() { s.Close() })
	task := mustTask(t, bibSchema, "//author", "delete //price")
	cold := mustDo(t, s, context.Background(), task)
	if cold.Plan != "cold" {
		t.Fatalf("first request: %+v", cold)
	}
	wedge(t, s)
	res := mustDo(t, s, context.Background(), task)
	if res.Plan != "warm" || res.Independent != cold.Independent || res.K != cold.K || res.Degraded {
		t.Fatalf("resident pair with the run slot wedged: %+v, cold %+v", res, cold)
	}
	if st := s.Stats(); st.Completed != 2 || st.InFlight != 1 {
		t.Fatalf("stats %+v, want both requests completed and the wedged one in flight", st)
	}
}

// Each request counts one plan-tier hit or one miss: a warm hit, a
// cold build, and a resident plan above the request's MaxK, which the
// ladder degrades. A quarantined schema is downgraded once and a
// half-open breaker probe that hits a resident plan closes the breaker,
// both without a run slot.
func TestWarmHitCounters(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	plans := plan.NewCache(16)
	s := New(Config{
		Workers:        1,
		RequestTimeout: time.Hour,
		Plans:          plans,
		Quarantine:     reg,
		Breaker:        BreakerConfig{Threshold: 3, Backoff: 100 * time.Millisecond},
	})
	t.Cleanup(func() { s.Close() })
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }
	s.breakers.cfg.Jitter = 0

	bg := context.Background()
	resident := mustTask(t, bibSchema, "//author", "delete //price")
	fp := resident.Analyzer.D.Fingerprint()
	tier := func(step string, hits, misses int64) {
		t.Helper()
		if st, _ := plans.TierStats(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("%s: plan tier %+v, want %d hits and %d misses", step, st, hits, misses)
		}
	}
	stats := func(step string, completed, degraded uint64) {
		t.Helper()
		if st := s.Stats(); st.Completed != completed || st.Degraded != degraded {
			t.Fatalf("%s: stats %+v, want %d completed and %d degraded", step, st, completed, degraded)
		}
	}

	mustDo(t, s, bg, resident)
	tier("cold build", 0, 1)
	warm := mustDo(t, s, bg, resident)
	if warm.Plan != "warm" || warm.K < 2 {
		t.Fatalf("warm hit: %+v", warm)
	}
	tier("warm hit", 1, 1)
	low := resident
	low.Limits = guard.Limits{MaxK: warm.K - 1}
	if res := mustDo(t, s, bg, low); !res.Degraded || res.Method != core.MethodTypes {
		t.Fatalf("MaxK %d below the plan's k %d: %+v", warm.K-1, warm.K, res)
	}
	tier("resident plan above MaxK", 2, 1)
	mustDo(t, s, bg, mustTask(t, bibSchema, "//title", "delete //author"))
	tier("second cold build", 2, 2)
	stats("before the breaker", 4, 1)

	// Three blowups in cold builds open the breaker.
	blown := mustTask(t, bibSchema, "//price", "delete //title")
	for i := 0; i < 3; i++ {
		if res := mustDo(t, s, blowupCtx(t), blown); !res.Degraded {
			t.Fatalf("blowup %d: %+v", i, res)
		}
	}
	tier("blowups", 2, 5)
	if st := s.BreakerState(fp); st != "open" {
		t.Fatalf("after 3 blowups: breaker %s", st)
	}
	stats("blowups", 7, 4)

	wedge(t, s)
	now = now.Add(150 * time.Millisecond)
	if res := mustDo(t, s, bg, resident); res.Plan != "warm" {
		t.Fatalf("half-open probe: %+v", res)
	}
	if st, bs := s.BreakerState(fp), s.Stats(); st != "closed" || bs.BreakerProbes != 1 {
		t.Fatalf("after a warm probe: breaker %s, stats %+v", st, bs)
	}
	tier("warm probe", 3, 5)
	stats("warm probe", 8, 4)

	reg.Quarantine(fp)
	res := mustDo(t, s, bg, resident)
	if !quarantine.IsQuarantined(res.Err) || !res.Degraded || res.Independent {
		t.Fatalf("quarantined schema: %+v", res)
	}
	if st := reg.Stats(); st.Downgrades != 1 {
		t.Fatalf("quarantine %+v, want one downgrade", st)
	}
	tier("quarantined", 3, 5)
	stats("quarantined", 9, 5)
	if st := s.BreakerState(fp); st != "closed" {
		t.Fatalf("a quarantine downgrade moved the breaker to %s", st)
	}
}

// An auditor at rate 1 observes every warm hit, and samples each
// independent one.
func TestAuditorObservesEveryWarmHit(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	aud := sentinel.New(sentinel.Config{SampleRate: 1, Quarantine: reg, Seed: 1})
	s := New(Config{Workers: 1, RequestTimeout: time.Hour, Plans: plan.NewCache(16), Auditor: aud, Quarantine: reg})
	t.Cleanup(func() {
		s.Close()
		aud.Close()
	})
	task := mustTask(t, bibSchema, "//author", "delete //price")
	if res := mustDo(t, s, context.Background(), task); !res.Independent {
		t.Fatalf("cold build: %+v", res)
	}
	wedge(t, s)
	const hits = 5
	for i := 0; i < hits; i++ {
		if res := mustDo(t, s, context.Background(), task); res.Plan != "warm" {
			t.Fatalf("hit %d: %+v", i, res)
		}
	}
	aud.Flush()
	if st := aud.Stats(); st.Observed != hits+1 || st.Sampled != hits+1 || st.Disagreements != 0 {
		t.Fatalf("auditor %+v, want %d observed and sampled, no disagreement", st, hits+1)
	}
}

// Warm hits race purges of their schema's plans and the schema's
// quarantine: two clients send resident and purged pairs while one
// goroutine purges the plan cache and another quarantines the schema.
// Every verdict is the pair's or the conservative one, and a request
// sent after the quarantine engaged is downgraded. Run it under -race.
func TestWarmHitsRacePurgeAndQuarantine(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	plans := plan.NewCache(64)
	s := New(Config{Workers: 2, QueueDepth: 4, Plans: plans, Quarantine: reg})
	t.Cleanup(func() { s.Close() })
	type pair struct {
		task  Task
		indep bool
	}
	var pairs []pair
	for _, q := range []string{"//title", "//author", "//price", "/bib/book"} {
		for _, u := range []string{"delete //price", "delete //author", "rename //title as heading"} {
			task := mustTask(t, bibSchema, q, u)
			ref, err := task.Analyzer.AnalyzePrepared(context.Background(), task.Query, task.Update, core.MethodChains, core.Options{Plans: plan.NewCache(1)})
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{task, ref.Independent})
		}
	}
	fp := pairs[0].task.Analyzer.D.Fingerprint()
	var (
		wg          sync.WaitGroup
		quarantined atomic.Bool
		errs        = make(chan string, 2)
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				p := pairs[(i*(c+1)+c)%len(pairs)]
				after := quarantined.Load()
				res, err := s.Do(context.Background(), p.task)
				var msg string
				switch down := quarantine.IsQuarantined(res.Err); {
				case err != nil:
					msg = err.Error()
				case after && !down:
					msg = fmt.Sprintf("served %+v after the quarantine engaged", res)
				case down && (res.Independent || !res.Degraded):
					msg = fmt.Sprintf("downgrade %+v", res)
				case !down && (res.Independent != p.indep || res.Degraded):
					msg = fmt.Sprintf("verdict %+v, want independent %v", res, p.indep)
				default:
					continue
				}
				errs <- fmt.Sprintf("client %d, %s | %s: %s", c, p.task.Query.Text, p.task.Update.Text, msg)
				return
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			plans.PurgeSchema(fp)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			runtime.Gosched()
		}
		reg.Quarantine(fp)
		quarantined.Store(true)
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if reg.State(fp) != "quarantined" {
		t.Fatalf("schema %s, want quarantined", reg.State(fp))
	}
}

// A warm hit leaves the trace a warm ladder run leaves: one rung:chains
// span annotated warm, with the rung's marks under it in the order the
// ladder marks them.
func TestWarmHitTraceMarksTheRung(t *testing.T) {
	h := obsHandler(t, 0)
	req := AnalyzeRequest{Schema: obsSchema, Query: "//name", Update: "delete //cost", Trace: true}
	if resp := obsAnalyze(t, h, req); resp.Plan != "cold" {
		t.Fatalf("first request: %+v", resp)
	}
	resp := obsAnalyze(t, h, req)
	var rung *obs.Span
	var marks []string
	for i, sp := range resp.Trace {
		switch {
		case sp.Name == "rung:chains":
			rung = &resp.Trace[i]
		case rung != nil && sp.Depth == rung.Depth+1:
			marks = append(marks, sp.Name)
		}
	}
	want := []string{"core.analyze", "core.artifact", "core.plan/fingerprint", "core.plan/lookup", "core.plan/artifact", "core.verdict"}
	if resp.Plan != "warm" || rung == nil || rung.Detail != "warm" || !reflect.DeepEqual(marks, want) {
		t.Fatalf("warm trace: rung %+v with marks %v, want %v: %+v", rung, marks, want, resp.Trace)
	}
}
