package sentinel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/faultinject"
	"xqindep/internal/quarantine"
	"xqindep/internal/xquery"
)

var bib = dtd.MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- #PCDATA
price <- #PCDATA
`)

// analyzeAndObserve runs the pair under ctx and hands the result to
// the auditor the way a serving layer would.
func analyzeAndObserve(t *testing.T, a *Auditor, reg *quarantine.Registry, ctx context.Context, qs, us string, sched string) core.Result {
	t.Helper()
	q := xquery.MustParseQuery(qs)
	u := xquery.MustParseUpdate(us)
	res, err := core.NewAnalyzer(bib).AnalyzeContext(ctx, q, u, core.MethodChains, core.Options{Quarantine: reg})
	if err != nil {
		t.Fatalf("analyze(%s | %s): %v", qs, us, err)
	}
	a.Observe(Observation{
		D: bib, Query: xquery.PrepareQuery(qs, q), Update: xquery.PrepareUpdate(us, u),
		Result: res, FaultSchedule: sched,
	})
	return res
}

func TestAuditAgreesOnSoundVerdict(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	a := New(Config{SampleRate: 1, Quarantine: reg, Seed: 1})
	defer a.Close()

	res := analyzeAndObserve(t, a, reg, context.Background(), "//title", "delete //price", "")
	if !res.Independent {
		t.Fatal("pair should be independent")
	}
	a.Flush()
	st := a.Stats()
	if st.Agreements != 1 || st.Disagreements != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := reg.State(bib.Fingerprint()); got != "clean" {
		t.Fatalf("sound verdict quarantined: %s", got)
	}
}

func TestAuditCatchesFlippedVerdict(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	var spooled bytes.Buffer
	a := New(Config{SampleRate: 1, Quarantine: reg, Seed: 2, Spool: &spooled})
	defer a.Close()

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	ctx := faultinject.With(context.Background(), sched)
	// Dependent pair; the flip serves the unsound Independent=true.
	res := analyzeAndObserve(t, a, reg, ctx, "//title", "delete //title", sched.String())
	if !res.Independent {
		t.Fatal("flip did not produce the unsound verdict this test audits")
	}
	a.Flush()

	st := a.Stats()
	if st.Disagreements != 1 {
		t.Fatalf("disagreement not recorded: %+v", st)
	}
	if got := reg.State(bib.Fingerprint()); got != "quarantined" {
		t.Fatalf("fingerprint not quarantined: %s", got)
	}
	incs := a.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents: %d", len(incs))
	}
	in := incs[0]
	if in.Kind != "audit-disagreement" || !in.FastIndependent || in.ShadowIndependent {
		t.Fatalf("incident: %+v", in)
	}
	if in.Fingerprint != bib.Fingerprint() || in.QueryText != "//title" {
		t.Fatalf("incident provenance: %+v", in)
	}
	if !strings.Contains(in.FaultSchedule, "flip-verdict") {
		t.Fatalf("fault schedule not threaded into incident: %q", in.FaultSchedule)
	}
	// The oracle replay should also have found a concrete witness for
	// this pair on the generated documents.
	if in.OracleWitness < 0 {
		t.Logf("no oracle witness (acceptable: witness depends on generated docs): %+v", in)
	}
	// Spooled as one JSON line that round-trips.
	var back Incident
	if err := json.Unmarshal(spooled.Bytes(), &back); err != nil {
		t.Fatalf("spool line does not parse: %v (%q)", err, spooled.String())
	}
	if back.Fingerprint != in.Fingerprint {
		t.Fatalf("spool round-trip mismatch: %+v", back)
	}

	// The next request for the fingerprint is downgraded.
	res = analyzeAndObserve(t, a, reg, context.Background(), "//title", "delete //price", "")
	if res.Independent || res.Method != core.MethodConservative {
		t.Fatalf("quarantined fingerprint served %+v", res)
	}
}

// TestAuditorWithoutRegistryQuarantinesPrivately: an auditor given no
// registry quarantines into one of its own, so an analysis handed no
// registry is never downgraded by it.
func TestAuditorWithoutRegistryQuarantinesPrivately(t *testing.T) {
	a := New(Config{SampleRate: 1, Seed: 7})
	defer a.Close()

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	analyzeAndObserve(t, a, nil, faultinject.With(context.Background(), sched), "//title", "delete //title", sched.String())
	a.Flush()
	if got := a.Registry().State(bib.Fingerprint()); got != "quarantined" {
		t.Fatalf("auditor's own registry: state %s", got)
	}
	res := analyzeAndObserve(t, a, nil, context.Background(), "//title", "delete //price", "")
	if !res.Independent || res.Degraded {
		t.Fatalf("an analysis given no registry was downgraded: %+v", res)
	}
}

func TestProbeRecoveryLiftsQuarantine(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	now := time.Unix(0, 0)
	reg.SetNow(func() time.Time { return now })
	a := New(Config{SampleRate: 1, Quarantine: reg, Seed: 3})
	defer a.Close()

	// Trip the quarantine with one flipped verdict.
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	analyzeAndObserve(t, a, reg, faultinject.With(context.Background(), sched), "//title", "delete //title", sched.String())
	a.Flush()
	if got := reg.State(bib.Fingerprint()); got != "quarantined" {
		t.Fatalf("state: %s", got)
	}

	// While active, downgraded requests do not probe.
	analyzeAndObserve(t, a, reg, context.Background(), "//title", "delete //price", "")
	a.Flush()
	if st := a.Stats(); st.Probes != 0 {
		t.Fatalf("probe before backoff elapsed: %+v", st)
	}

	// The 30s backoff elapses: each downgraded request claims the
	// retrial slot; three clean retrials lift the quarantine.
	now = now.Add(31 * time.Second)
	for i := 0; i < 3; i++ {
		res := analyzeAndObserve(t, a, reg, context.Background(), "//title", "delete //price", "")
		if res.Independent {
			t.Fatalf("half-open served an Independent verdict (upgrade): %+v", res)
		}
		a.Flush()
	}
	st := a.Stats()
	if st.Probes != 3 || st.ProbesClean != 3 {
		t.Fatalf("probe stats: %+v", st)
	}
	if got := reg.State(bib.Fingerprint()); got != "clean" {
		t.Fatalf("quarantine not lifted after clean retrials: %s", got)
	}
	// Full-ladder service restored.
	res := analyzeAndObserve(t, a, reg, context.Background(), "//title", "delete //price", "")
	if !res.Independent {
		t.Fatalf("service not restored: %+v", res)
	}
}

func TestDirtyProbeReTrips(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	now := time.Unix(0, 0)
	reg.SetNow(func() time.Time { return now })
	a := New(Config{SampleRate: 1, Quarantine: reg, Seed: 4})
	defer a.Close()

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	analyzeAndObserve(t, a, reg, faultinject.With(context.Background(), sched), "//title", "delete //title", sched.String())
	a.Flush()

	now = now.Add(31 * time.Second)
	// The probe re-runs the *observed* pair; this dependent pair now
	// re-derives dependent on the fast path too, so the probe is clean
	// — but a pair that still flips would be dirty. Simulate the dirty
	// case by observing a downgraded request whose original pair still
	// disagrees under a fresh flip on the probe's own re-analysis:
	// easiest deterministic route is a pair whose oracle replay refutes
	// independence while the fast path (clean) proves it — impossible
	// for a sound engine — so instead assert the machinery via
	// RecordProbe directly.
	if !reg.TryProbe(bib.Fingerprint()) {
		t.Fatal("no probe slot after backoff")
	}
	reg.RecordProbe(bib.Fingerprint(), quarantine.ProbeDirty)
	if got := reg.State(bib.Fingerprint()); got != "quarantined" {
		t.Fatalf("dirty probe did not re-trip: %s", got)
	}
}

func TestSamplingRespectsRate(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	a := New(Config{SampleRate: 0.2, Quarantine: reg, Seed: 5})
	defer a.Close()
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")
	res, err := core.NewAnalyzer(bib).Analyze(q, u, core.MethodChains)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		a.Observe(Observation{D: bib, Query: xquery.PrepareQuery("", q), Update: xquery.PrepareUpdate("", u), Result: res})
	}
	a.Flush()
	st := a.Stats()
	if st.Observed != n {
		t.Fatalf("observed %d, want %d", st.Observed, n)
	}
	if st.Sampled < n/10 || st.Sampled > n/2 {
		t.Fatalf("sampled %d of %d at rate 0.2", st.Sampled, n)
	}
}

func TestObserveAfterCloseIsNoop(t *testing.T) {
	reg := quarantine.NewRegistry(1)
	a := New(Config{SampleRate: 1, Quarantine: reg})
	a.Close()
	a.Close() // idempotent
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")
	a.Observe(Observation{D: bib, Query: xquery.PrepareQuery("", q), Update: xquery.PrepareUpdate("", u), Result: core.Result{Independent: true}})
	if st := a.Stats(); st.Observed != 0 {
		t.Fatalf("observe after close counted: %+v", st)
	}
	var nilA *Auditor
	nilA.Observe(Observation{}) // nil-safe
}

// TestQueueOverflowDropsNotBlocks: with the worker wedged inside an
// audit, the queue takes 256 more audits and Observe drops every one
// beyond them, without blocking.
func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	wedged := make(chan struct{})
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindStall})
	sched.OnFire = func(faultinject.Fault) { close(wedged) }
	a := New(Config{SampleRate: 1, Seed: 6, BaseContext: faultinject.With(context.Background(), sched)})
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")
	res, err := core.NewAnalyzer(bib).Analyze(q, u, core.MethodChains)
	if err != nil {
		t.Fatal(err)
	}
	o := Observation{D: bib, Query: xquery.PrepareQuery("", q), Update: xquery.PrepareUpdate("", u), Result: res}
	a.Observe(o)
	<-wedged // the worker holds the first audit and takes no more

	const depth, extra = 256, 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < depth+extra; i++ {
			a.Observe(o)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Observe blocked on a full queue")
	}
	if st := a.Stats(); st.Sampled != 1+depth+extra || st.Dropped != extra {
		t.Fatalf("want %d of %d audits dropped: %+v", extra, 1+depth+extra, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := a.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the wedged audit hard-cancelled", err)
	}
	if st := a.Stats(); st.Dropped != extra {
		t.Fatalf("after Shutdown: %+v", st)
	}
}

// TestFlushWhileObserving: Flush may run while another goroutine
// observes, as Pool.Flush may while the pool serves. Each Flush waits
// for the audits enqueued so far; an enqueue during the wait must not
// be the WaitGroup misuse the race detector reports (an Add from zero
// concurrent with Wait), on which Wait can also panic.
func TestFlushWhileObserving(t *testing.T) {
	a := New(Config{SampleRate: 1, Seed: 7})
	defer a.Close()
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")
	res, err := core.NewAnalyzer(bib).Analyze(q, u, core.MethodChains)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			a.Observe(Observation{D: bib, Query: xquery.PrepareQuery("", q), Update: xquery.PrepareUpdate("", u), Result: res})
		}
	}()
	for observing := true; observing; {
		select {
		case <-done:
			observing = false
		default:
		}
		a.Flush()
	}
	st := a.Stats()
	if st.Sampled != n || st.Audited+st.Dropped != n {
		t.Fatalf("after the last Flush: %+v", st)
	}
}
