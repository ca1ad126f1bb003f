package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// The chaos harness drives randomized fault schedules through the
// full serving stack and asserts the invariants that make degradation
// *sound* rather than merely survivable:
//
//  1. No wrong "independent" verdict, ever. Ground truth comes from
//     the internal/eval dynamic oracle evaluated on a sample of
//     schema-valid documents: when some document witnesses dependence,
//     any static verdict of independence — degraded, faulted,
//     breaker-served or not — is a soundness bug.
//  2. Panics never escape the request that caused them, and every
//     surfaced internal error traces back to an injected fault.
//  3. Drain always completes: Close returns within its deadline no
//     matter which faults are in flight.
//  4. No goroutine leaks across hundreds of server lifecycles.
//
// Schedules are deterministic per (CHAOS_SEED, run index); override
// the defaults with CHAOS_SEED / CHAOS_RUNS to reproduce or extend.

const recSchema = "r <- (x | y | z)*\nx <- (x | y | z)*\ny <- (x | y | z)*\nz <- #PCDATA"

// chaosPair is one corpus entry with oracle ground truth.
type chaosPair struct {
	name      string
	analyzer  *core.Analyzer
	query     xquery.Query
	update    xquery.Update
	dependent bool // some sampled document witnesses dependence
}

func buildChaosCorpus(t testing.TB) []chaosPair {
	t.Helper()
	type spec struct{ schema, q, u string }
	specs := []spec{
		{bibSchema, "//title", "delete //price"},
		{bibSchema, "//title", "delete //title"},
		{bibSchema, "//book", "delete //author"},
		{bibSchema, "//book/title", "for $x in //book return insert <author/> into $x"},
		{bibSchema, "//author", "for $x in //book return insert <author/> into $x"},
		{bibSchema, "//price", "for $b in //bib return delete $b/book"},
		{recSchema, "//y//z", "delete //x//z"},
		{recSchema, "//z", "delete //y"},
		{recSchema, "//x//y", "delete //z"},
	}
	analyzers := map[string]*core.Analyzer{}
	docs := map[string][]xmltree.Tree{}
	var corpus []chaosPair
	for i, sp := range specs {
		a := analyzers[sp.schema]
		if a == nil {
			d, err := dtd.Parse(sp.schema)
			if err != nil {
				t.Fatal(err)
			}
			a = core.NewAnalyzer(d)
			analyzers[sp.schema] = a
			// A fixed sample of valid documents for the oracle.
			for s := int64(1); s <= 24; s++ {
				tree, err := d.GenerateTree(rand.New(rand.NewSource(s)), 0.45, 7)
				if err != nil {
					t.Fatal(err)
				}
				docs[sp.schema] = append(docs[sp.schema], tree)
			}
		}
		q, err := xquery.ParseQuery(sp.q)
		if err != nil {
			t.Fatal(err)
		}
		u, err := xquery.ParseUpdate(sp.u)
		if err != nil {
			t.Fatal(err)
		}
		dep := eval.DependentOnAny(docs[sp.schema], q, u) >= 0
		corpus = append(corpus, chaosPair{
			name:      fmt.Sprintf("pair%d(%s|%s)", i, sp.q, sp.u),
			analyzer:  a,
			query:     q,
			update:    u,
			dependent: dep,
		})
	}
	// The corpus must exercise both truth values or the soundness
	// check is vacuous.
	deps := 0
	for _, p := range corpus {
		if p.dependent {
			deps++
		}
	}
	if deps == 0 || deps == len(corpus) {
		t.Fatalf("degenerate corpus: %d/%d dependent", deps, len(corpus))
	}
	return corpus
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func TestChaosRandomFaultSchedules(t *testing.T) {
	faultinject.Enable()
	seed := int64(envInt("CHAOS_SEED", 20260806))
	runs := envInt("CHAOS_RUNS", 200)
	if testing.Short() {
		runs = min(runs, 25)
	}
	corpus := buildChaosCorpus(t)

	before := runtime.NumGoroutine()
	var totalReqs, totalTrips uint64

	for run := 0; run < runs && !t.Failed(); run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)))
		reqs, trips := chaosRun(t, rng, corpus, run)
		totalReqs += reqs
		totalTrips += trips
	}
	t.Logf("chaos: %d runs, %d requests, %d breaker trips", runs, totalReqs, totalTrips)

	// Goroutine-leak check: after every server has shut down, the
	// count must settle back to (about) the starting level. Timer
	// channels bound the wait — no wall-clock arithmetic.
	timeout := time.After(5 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for runtime.NumGoroutine() > before+4 {
		select {
		case <-tick.C:
		case <-timeout:
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
	}
}

// mustDrain runs drain and returns its error, failing the test if it
// does not terminate within limit. The bound is a channel select, not
// a wall-clock measurement.
func mustDrain(t *testing.T, run int, limit time.Duration, drain func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- drain() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("run %d: drain did not terminate within %v", run, limit)
		return nil
	}
}

// chaosRun drives one randomized server lifecycle and returns the
// request and breaker-trip counts.
func chaosRun(t *testing.T, rng *rand.Rand, corpus []chaosPair, run int) (uint64, uint64) {
	cfg := Config{
		Workers:        1 + rng.Intn(4),
		QueueDepth:     1 + rng.Intn(4),
		RequestTimeout: time.Duration(30+rng.Intn(120)) * time.Millisecond,
		DrainTimeout:   3 * time.Second,
		Breaker: BreakerConfig{
			Threshold: 1 + rng.Intn(3),
			Backoff:   time.Duration(1+rng.Intn(5)) * time.Millisecond,
			Seed:      rng.Int63(),
		},
	}
	if rng.Intn(2) == 0 {
		// Sometimes a starvation budget, so real (non-injected) budget
		// exhaustion and deep degradation happen too.
		cfg.Limits = guard.Limits{
			MaxNodes:  1 << (4 + rng.Intn(10)),
			MaxChains: 1 << (3 + rng.Intn(8)),
			MaxK:      1 + rng.Intn(8),
		}
	}
	s := New(cfg)

	type outcome struct {
		pair  chaosPair
		res   core.Result
		err   error
		sched *faultinject.Schedule
	}
	n := 6 + rng.Intn(10)
	outs := make(chan outcome, n)
	var wg sync.WaitGroup
	var cancels []context.CancelFunc
	for i := 0; i < n; i++ {
		pair := corpus[rng.Intn(len(corpus))]
		sched := faultinject.RandomSchedule(rng, rng.Intn(4))
		ctx := faultinject.With(context.Background(), sched)
		if rng.Intn(5) == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(40))*time.Millisecond)
			cancels = append(cancels, cancel)
		}
		method := core.Method(rng.Intn(2)) // chains or chains-exact
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Do(ctx, Task{
				Analyzer: pair.analyzer,
				Query:    xquery.PrepareQuery("", pair.query),
				Update:   xquery.PrepareUpdate("", pair.update),
				Method:   method,
			})
			outs <- outcome{pair: pair, res: res, err: err, sched: sched}
		}()
	}
	// A quarter of the runs shut down while requests are in flight,
	// exercising the drain paths under fault load.
	earlyDrain := rng.Intn(4) == 0

	if earlyDrain {
		if err := mustDrain(t, run, cfg.DrainTimeout+2*time.Second, s.Close); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("run %d: drain error: %v", run, err)
		}
	}
	wg.Wait()
	if !earlyDrain {
		if err := mustDrain(t, run, cfg.DrainTimeout+2*time.Second, s.Close); err != nil {
			t.Errorf("run %d: clean drain error: %v", run, err)
		}
	}
	for _, c := range cancels {
		c()
	}

	close(outs)
	for o := range outs {
		if o.err != nil {
			var ie *guard.InternalError
			if errors.As(o.err, &ie) {
				// Panics must trace back to an injected fault; anything
				// else is a genuine engine bug the chaos run uncovered.
				if _, injected := ie.Value.(faultinject.PanicValue); !injected {
					t.Errorf("run %d %s: non-injected panic: %v\nschedule %v fired %v",
						run, o.pair.name, o.err, o.sched, o.sched.Fired())
				}
			}
			continue
		}
		// THE invariant: no wrong independent verdict, under any fault
		// schedule, budget, breaker state or drain race.
		if o.res.Independent && o.pair.dependent {
			t.Errorf("run %d: UNSOUND: %s verdict independent (method %v degraded %v fallback %v) but oracle found a dependence witness\nschedule %v fired %v",
				run, o.pair.name, o.res.Method, o.res.Degraded, o.res.FallbackChain, o.sched, o.sched.Fired())
		}
		if o.res.Degraded && !errors.Is(o.res.Err, guard.ErrBudgetExceeded) {
			t.Errorf("run %d %s: degraded verdict without budget cause: %+v", run, o.pair.name, o.res)
		}
	}
	st := s.Stats()
	return st.Admitted, st.BreakerTrips
}

// TestChaosBreakerStorm pins the breaker lifecycle end to end under a
// deterministic fault storm: repeated injected budget blowups on one
// schema must open its breaker (serving conservative verdicts
// immediately), and a clean probe after the backoff must close it.
func TestChaosBreakerStorm(t *testing.T) {
	faultinject.Enable()
	// A private plan cache: the storm's faults fire inside cold plan
	// builds, so a warm hit from another test would defuse them.
	s := New(Config{Workers: 2, Breaker: BreakerConfig{Threshold: 2, Backoff: 50 * time.Millisecond}, Plans: plan.NewCache(64)})
	defer s.Close()
	now := time.Unix(0, 0)
	s.breakers.now = func() time.Time { return now }
	s.breakers.cfg.Jitter = 0

	task := mustTask(t, bibSchema, "//title", "delete //price")
	fp := task.Analyzer.D.Fingerprint()

	// Storm: every request blows its budget at a random phase point.
	rng := rand.New(rand.NewSource(7))
	points := []string{"cdag.build", "cdag.conflict", "core.analyze"}
	sawConservative := false
	for i := 0; i < 12; i++ {
		sched := faultinject.NewSchedule(faultinject.Fault{
			Point: points[rng.Intn(len(points))],
			Kind:  faultinject.KindBudget,
		})
		res, err := s.Do(faultinject.With(context.Background(), sched), task)
		if err != nil {
			t.Fatalf("storm %d: %v", i, err)
		}
		if !res.Degraded {
			t.Fatalf("storm %d: injected blowup produced a clean verdict: %+v", i, res)
		}
		if errors.Is(res.Err, ErrCircuitOpen) {
			sawConservative = true
		}
	}
	if !sawConservative {
		t.Fatal("breaker never served a conservative verdict during the storm")
	}
	if st := s.BreakerState(fp); st != "open" {
		t.Fatalf("after storm want open, got %s", st)
	}

	// Recovery: past the backoff a clean probe closes the breaker and
	// full-strength verdicts resume.
	now = now.Add(10 * time.Minute)
	res, err := s.Do(context.Background(), task)
	if err != nil || res.Degraded || !res.Independent {
		t.Fatalf("recovery probe: %v %+v", err, res)
	}
	if st := s.BreakerState(fp); st != "closed" {
		t.Fatalf("after recovery want closed, got %s", st)
	}
}
