package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/sentinel"
	"xqindep/internal/xquery"
)

const bibSchema = "bib <- book*\nbook <- title, author*, price?\ntitle <- #PCDATA\nauthor <- #PCDATA\nprice <- #PCDATA"

// mustTask returns a chains task for the schema and the query and
// update texts, each side parsed and prepared with its text.
func mustTask(t *testing.T, schema, q, u string) Task {
	t.Helper()
	d, err := dtd.Parse(schema)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := xquery.ParsePreparedQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	us, err := xquery.ParsePreparedUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	return Task{Analyzer: core.NewAnalyzer(d), Query: qs, Update: us, Method: core.MethodChains}
}

func TestDoBasic(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	res, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Independent || res.Degraded {
		t.Fatalf("want clean independent verdict, got %+v", res)
	}
	res, err = s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //title"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent {
		t.Fatalf("want dependent verdict, got %+v", res)
	}
	st := s.Stats()
	if st.Admitted != 2 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// stalledTask returns a task whose analysis wedges at the core.analyze
// fault point until its context dies, a channel closed the moment the
// stall takes hold (the worker is provably wedged inside the job), and
// the context cancel that releases it.
func stalledTask(t *testing.T, schema string) (Task, context.Context, context.CancelFunc, <-chan struct{}) {
	t.Helper()
	faultinject.Enable()
	stalled := make(chan struct{})
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.analyze", Kind: faultinject.KindStall})
	sched.OnFire = func(faultinject.Fault) { close(stalled) }
	ctx, cancel := context.WithCancel(context.Background())
	return mustTask(t, schema, "//title", "delete //price"), faultinject.With(ctx, sched), cancel, stalled
}

// waitStat blocks until cond holds for the server's stats, failing the
// test if it doesn't within a generous timeout. Synchronization is by
// timer channels only — no wall-clock arithmetic.
func waitStat(t *testing.T, s *Server, cond func(Stats) bool, msg string) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(10 * time.Second)
	for !cond(s.Stats()) {
		select {
		case <-tick.C:
		case <-timeout:
			t.Fatalf("timeout waiting for %s (stats %+v)", msg, s.Stats())
		}
	}
}

func TestOverloadSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: time.Hour})
	defer s.Close()

	var wg sync.WaitGroup
	doStalled := func(ctx context.Context, task Task) {
		defer wg.Done()
		if _, err := s.Do(ctx, task); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("stalled request: %v", err)
		}
	}

	// Wedge the lone worker: once <-stalledA fires, request A has been
	// admitted, dequeued, and is provably stalled inside its job.
	taskA, ctxA, cancelA, stalledA := stalledTask(t, bibSchema)
	defer cancelA()
	wg.Add(1)
	go doStalled(ctxA, taskA)
	<-stalledA

	// The worker holds A and the queue is empty, so request B is
	// admitted into the queue deterministically — no shed race. It
	// never reaches a worker, so its admission is observed via stats.
	taskB, ctxB, cancelB, _ := stalledTask(t, bibSchema)
	defer cancelB()
	wg.Add(1)
	go doStalled(ctxB, taskB)
	waitStat(t, s, func(st Stats) bool { return st.InFlight == 2 }, "second stalled request admitted")

	// Worker wedged and queue full: the next admission must shed.
	shedBefore := s.Stats().Shed
	_, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if got := s.Stats().Shed; got != shedBefore+1 {
		t.Fatalf("shed %d -> %d, want +1 (stats %+v)", shedBefore, got, s.Stats())
	}
	cancelA()
	cancelB()
	wg.Wait()
}

// TestCancelWhileWaitingFreesPlace: a caller that gives up while its
// request waits for a run slot frees its admission place at once, so
// the next request waits instead of being shed.
func TestCancelWhileWaitingFreesPlace(t *testing.T) {
	// A cache of its own, so B's plan is not resident and B waits for
	// the slot rather than being answered from the plan cache.
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: time.Hour, Plans: plan.NewCache(16)})
	defer s.Close()

	// Wedge the lone run slot.
	taskA, ctxA, cancelA, stalledA := stalledTask(t, bibSchema)
	defer cancelA()
	doneA := make(chan error, 1)
	go func() {
		_, err := s.Do(ctxA, taskA)
		doneA <- err
	}()
	<-stalledA

	// Request B takes the last place and waits; its caller gives up.
	task := mustTask(t, bibSchema, "//title", "delete //price")
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneB := make(chan error, 1)
	go func() {
		_, err := s.Do(ctxB, task)
		doneB <- err
	}()
	waitStat(t, s, func(st Stats) bool { return st.InFlight == 2 }, "second request admitted")
	cancelB()
	if err := <-doneB; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: want context.Canceled, got %v", err)
	}
	if st := s.Stats(); st.InFlight != 1 {
		t.Fatalf("cancelled waiter kept its place: %+v", st)
	}

	// Request C finds B's place free: it waits instead of being shed,
	// and runs once A's slot is released.
	type result struct {
		res core.Result
		err error
	}
	doneC := make(chan result, 1)
	go func() {
		res, err := s.Do(context.Background(), task)
		doneC <- result{res, err}
	}()
	waitStat(t, s, func(st Stats) bool { return st.Admitted == 3 || st.Shed > 0 }, "third request admitted or shed")
	if st := s.Stats(); st.Shed != 0 || st.InFlight != 2 {
		t.Fatalf("third request: want it waiting, got %+v", st)
	}
	cancelA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled request: want context.Canceled, got %v", err)
	}
	if c := <-doneC; c.err != nil || !c.res.Independent || c.res.Degraded {
		t.Fatalf("third request: want a clean independent verdict, got %v %+v", c.err, c.res)
	}
}

// TestCallerDeadlineDegrades: a caller deadline that passes
// mid-analysis yields a degraded verdict, as in AnalyzeContext, rather
// than the bare context error.
func TestCallerDeadlineDegrades(t *testing.T) {
	s := New(Config{Workers: 1, Plans: plan.NewCache(16)})
	defer s.Close()
	// The exact engine blows up on the recursive 3-clique schema, so
	// the deadline passes long before the analysis could finish.
	task := mustTask(t, recSchema, "//x//y//x//y//z", "delete //y//x//y//x//z")
	task.Method = core.MethodChainsExact
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := s.Do(ctx, task)
	if err != nil {
		t.Fatalf("want a degraded verdict, got error %v", err)
	}
	if res.Independent || !res.Degraded || !errors.Is(res.Err, guard.ErrBudgetExceeded) {
		t.Fatalf("want a conservative degraded verdict with a budget cause, got %+v", res)
	}
	if st := s.Stats(); st.Degraded != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDrainRejectsAndCompletes: the stalled analysis runs under an
// hour-long RequestTimeout, so only the drain can end it. A drain
// deadline that passes hard-cancels it within bounded time, the
// request fails with context.Canceled, and admission afterwards fails
// with ErrClosed.
func TestDrainRejectsAndCompletes(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: time.Hour})

	task, ctx, cancel, stalled := stalledTask(t, bibSchema)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, task)
		done <- err
	}()
	// The stall firing proves the request was admitted and is wedged
	// inside the worker — no stats polling needed.
	<-stalled

	// Shutdown with a short deadline: the stalled analysis cannot
	// finish voluntarily, so the drain must hard-cancel it and still
	// terminate.
	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(sctx) }()
	select {
	case err := <-shut:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded from forced drain, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the drain did not cancel an analysis running under RequestTimeout")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want the stalled request cancelled, got %v", err)
	}

	// After shutdown, admission fails with ErrClosed.
	if _, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	res, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
	if err != nil || !res.Independent {
		t.Fatalf("warmup: %v %+v", err, res)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	faultinject.Enable()
	// A private plan cache: the injected fault fires during a cold plan
	// build, so a warm hit from another test would mask it.
	s := New(Config{Workers: 1, Plans: plan.NewCache(64)})
	defer s.Close()

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindPanic})
	ctx := faultinject.With(context.Background(), sched)
	_, err := s.Do(ctx, mustTask(t, bibSchema, "//title", "delete //price"))
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want InternalError, got %v", err)
	}
	if _, ok := ie.Value.(faultinject.PanicValue); !ok {
		t.Fatalf("unexpected panic payload %v", ie.Value)
	}
	// The pool survives: the next request succeeds.
	res, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
	if err != nil || !res.Independent {
		t.Fatalf("pool did not survive panic: %v %+v", err, res)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestInferenceMarksAreFaultPoints: the marks a cold build fires before
// query and update inference are fault points. A budget fault at
// either degrades the verdict to a weaker rung, and a panic at either
// fails only its own request.
func TestInferenceMarksAreFaultPoints(t *testing.T) {
	faultinject.Enable()
	for _, point := range []string{"cdag.infer_query", "cdag.infer_update"} {
		t.Run(point+"/budget", func(t *testing.T) {
			s := New(Config{Workers: 1, Plans: plan.NewCache(64)})
			defer s.Close()
			sched := faultinject.NewSchedule(faultinject.Fault{Point: point, Kind: faultinject.KindBudget})
			res, err := s.Do(faultinject.With(context.Background(), sched), mustTask(t, bibSchema, "//title", "delete //price"))
			if err != nil {
				t.Fatalf("budget fault: %v", err)
			}
			if !res.Degraded || len(sched.Fired()) != 1 {
				t.Fatalf("budget fault did not degrade the verdict: fired %v, %+v", sched.Fired(), res)
			}
		})
		t.Run(point+"/panic", func(t *testing.T) {
			s := New(Config{Workers: 1, Plans: plan.NewCache(64)})
			defer s.Close()
			sched := faultinject.NewSchedule(faultinject.Fault{Point: point, Kind: faultinject.KindPanic})
			_, err := s.Do(faultinject.With(context.Background(), sched), mustTask(t, bibSchema, "//title", "delete //price"))
			var ie *guard.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("want InternalError, got %v", err)
			}
			if pv, ok := ie.Value.(faultinject.PanicValue); !ok || pv.Point != point {
				t.Fatalf("unexpected panic payload %v", ie.Value)
			}
			res, err := s.Do(context.Background(), mustTask(t, bibSchema, "//title", "delete //price"))
			if err != nil || !res.Independent || s.Stats().Panics != 1 {
				t.Fatalf("pool did not survive the panic: %v %+v %+v", err, res, s.Stats())
			}
		})
	}
}

// TestGluePanicIsContained: a panic in the serving glue around the
// analysis — here the auditor hand-off, given an Auditor that
// sentinel.New never initialised — fails only its own request, as a
// *guard.InternalError counted in Stats.Panics.
func TestGluePanicIsContained(t *testing.T) {
	s := New(Config{Workers: 1, Auditor: &sentinel.Auditor{}})
	defer s.Close()
	task := mustTask(t, bibSchema, "//title", "delete //price")
	for i := 1; i <= 2; i++ {
		_, err := s.Do(context.Background(), task)
		var ie *guard.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("request %d: want InternalError, got %v", i, err)
		}
		if st := s.Stats(); st.Panics != uint64(i) || st.InFlight != 0 {
			t.Fatalf("request %d: stats %+v", i, st)
		}
	}
}

func TestBudgetSubdivisionClamps(t *testing.T) {
	lim := guard.Limits{MaxNodes: 1000, MaxChains: 800}
	s := New(Config{Workers: 4, Limits: lim})
	defer s.Close()
	if s.share.MaxNodes != 250 || s.share.MaxChains != 200 {
		t.Fatalf("share: %+v", s.share)
	}
	// A request asking for more than the share is clamped to it; one
	// asking for less keeps its own bound.
	got := clamp(guard.Limits{MaxNodes: guard.NoLimit, MaxChains: 50}, s.share)
	if got.MaxNodes != 250 || got.MaxChains != 50 {
		t.Fatalf("clamp: %+v", got)
	}
}

// blowupCtx returns a context whose analysis hits an injected budget
// fault at the CDAG build, forcing a degraded verdict.
func blowupCtx(t *testing.T) context.Context {
	t.Helper()
	faultinject.Enable()
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindBudget})
	return faultinject.With(context.Background(), sched)
}

func TestBreakerLifecycle(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Breaker: BreakerConfig{Threshold: 3, Backoff: 100 * time.Millisecond},
		Plans:   plan.NewCache(64), // blowups fire inside cold builds
	})
	defer s.Close()
	// Deterministic clock and no jitter, so the backoff arithmetic
	// below is exact.
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }
	s.breakers.cfg.Jitter = 0

	task := mustTask(t, bibSchema, "//title", "delete //price")
	fp := task.Analyzer.D.Fingerprint()

	// Three consecutive budget blowups trip the breaker.
	for i := 0; i < 3; i++ {
		res, err := s.Do(blowupCtx(t), task)
		if err != nil {
			t.Fatalf("blowup %d: %v", i, err)
		}
		if !res.Degraded {
			t.Fatalf("blowup %d: want degraded, got %+v", i, res)
		}
	}
	if st := s.BreakerState(fp); st != "open" {
		t.Fatalf("after 3 blowups want open, got %s (stats %+v)", st, s.Stats())
	}

	// While open: immediate conservative verdict, no analysis burned.
	res, err := s.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent || !res.Degraded || !errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("open-breaker verdict: %+v", res)
	}
	if !errors.Is(res.Err, guard.ErrBudgetExceeded) {
		t.Fatal("ErrCircuitOpen must unwrap to ErrBudgetExceeded")
	}
	completedBefore := s.Stats().Completed

	// A failed probe after the backoff re-opens with doubled backoff.
	now = now.Add(150 * time.Millisecond)
	res, err = s.Do(blowupCtx(t), task)
	if err != nil || !res.Degraded || errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("probe should run a real (failing) analysis: %v %+v", err, res)
	}
	if st := s.BreakerState(fp); st != "open" {
		t.Fatalf("failed probe should re-open, got %s", st)
	}
	// Doubled backoff: 100ms was not enough to half-open again.
	now = now.Add(150 * time.Millisecond)
	res, _ = s.Do(context.Background(), task)
	if !errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("breaker should still be open under doubled backoff: %+v", res)
	}

	// After the doubled backoff a clean probe closes the breaker.
	now = now.Add(200 * time.Millisecond)
	res, err = s.Do(context.Background(), task)
	if err != nil || res.Degraded || !res.Independent {
		t.Fatalf("recovery probe: %v %+v", err, res)
	}
	if st := s.BreakerState(fp); st != "closed" {
		t.Fatalf("after clean probe want closed, got %s", st)
	}
	// And subsequent traffic flows normally.
	res, err = s.Do(context.Background(), task)
	if err != nil || !res.Independent {
		t.Fatalf("after recovery: %v %+v", err, res)
	}
	if s.Stats().Completed <= completedBefore {
		t.Fatal("post-recovery requests should reach the pool")
	}
	if s.Stats().BreakerTrips != 2 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestBreakerIsPerSchema(t *testing.T) {
	s := New(Config{Workers: 1, Breaker: BreakerConfig{Threshold: 1, Backoff: time.Hour}, Plans: plan.NewCache(64)})
	defer s.Close()

	bib := mustTask(t, bibSchema, "//title", "delete //price")
	other := mustTask(t, "doc <- a*\na <- #PCDATA", "//a", "delete //a")
	if _, err := s.Do(blowupCtx(t), bib); err != nil {
		t.Fatal(err)
	}
	if st := s.BreakerState(bib.Analyzer.D.Fingerprint()); st != "open" {
		t.Fatalf("bib breaker: %s", st)
	}
	// The other schema is unaffected.
	res, err := s.Do(context.Background(), other)
	if err != nil || errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("other schema tripped too: %v %+v", err, res)
	}
}

// TestBreakerKeepsNoEntryForHealthySchemas: a fingerprint has an entry
// only while it has consecutive blowups or an open or half-open
// breaker. Distinct healthy schemas served from several goroutines
// leave none, and neither does a blowup followed by a success or a
// recovered probe.
func TestBreakerKeepsNoEntryForHealthySchemas(t *testing.T) {
	s := New(Config{
		Workers: 2,
		Breaker: BreakerConfig{Threshold: 2, Backoff: time.Second},
		Plans:   plan.NewCache(64), // blowups fire inside cold builds
	})
	defer s.Close()
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }
	entries := func() int {
		s.breakers.mu.Lock()
		defer s.breakers.mu.Unlock()
		return len(s.breakers.m)
	}

	const schemas, clients = 200, 4
	tasks := make([]Task, schemas)
	for i := range tasks {
		tasks[i] = mustTask(t, fmt.Sprintf("r <- e%d*\ne%d <- #PCDATA", i, i), "//r", fmt.Sprintf("delete //e%d", i))
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < schemas; i += clients {
				if res, err := s.Do(context.Background(), tasks[i]); err != nil || res.Degraded {
					t.Errorf("schema %d: %v %+v", i, err, res)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := entries(); n != 0 {
		t.Fatalf("%d healthy schemas left %d breaker entries, want 0", schemas, n)
	}

	bib := mustTask(t, bibSchema, "//title", "delete //price")
	if _, err := s.Do(blowupCtx(t), bib); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != 1 {
		t.Fatalf("after one blowup: %d entries, want 1", n)
	}
	if res, err := s.Do(context.Background(), bib); err != nil || res.Degraded {
		t.Fatalf("clean request: %v %+v", err, res)
	}
	if n := entries(); n != 0 {
		t.Fatalf("a success after a blowup left %d entries, want 0", n)
	}

	other := mustTask(t, "doc <- a*\na <- #PCDATA", "//a", "delete //a")
	for i := 0; i < 2; i++ {
		if _, err := s.Do(blowupCtx(t), other); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.BreakerState(other.Analyzer.D.Fingerprint()); st != "open" {
		t.Fatalf("after 2 blowups want open, got %s", st)
	}
	now = now.Add(2 * time.Second) // past the 1s backoff and its jitter
	if res, err := s.Do(context.Background(), other); err != nil || res.Degraded {
		t.Fatalf("recovery probe: %v %+v", err, res)
	}
	if n := entries(); n != 0 {
		t.Fatalf("a recovered probe left %d entries, want 0", n)
	}
}

func TestConservativeVerdictIsSound(t *testing.T) {
	// The breaker-served verdict must never claim independence, even
	// for a pair that IS independent — conservatism costs precision,
	// never soundness.
	res := conservative("x", ErrCircuitOpen)
	if res.Independent {
		t.Fatal("conservative verdict claims independence")
	}
	if !res.Degraded || res.Method != core.MethodConservative {
		t.Fatalf("conservative shape: %+v", res)
	}
}

func TestSubdivideLimits(t *testing.T) {
	l := guard.Limits{MaxNodes: 100, MaxChains: guard.NoLimit}.Subdivide(8)
	if l.MaxNodes != 12 {
		t.Fatalf("MaxNodes: %d", l.MaxNodes)
	}
	if l.MaxChains != guard.NoLimit {
		t.Fatalf("NoLimit must survive subdivision: %d", l.MaxChains)
	}
	if l.MaxK != guard.DefaultMaxK {
		t.Fatalf("the structural bound must not be divided: %+v", l)
	}
	one := guard.Limits{MaxNodes: 3}.Subdivide(100)
	if one.MaxNodes != 1 {
		t.Fatalf("share floor: %+v", one)
	}
}

func TestSchemaFingerprintStability(t *testing.T) {
	a, err := dtd.Parse(bibSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Same declarations in <!ELEMENT> notation → same fingerprint.
	classic := `<!ELEMENT bib (book*)>
<!ELEMENT book (title, author*, price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>`
	b, err := dtd.Parse(classic)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	c, err := dtd.Parse(strings.Replace(bibSchema, "price?", "price*", 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different schemas must not collide")
	}
}
