package sentinel

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/faultinject"
	"xqindep/internal/quarantine"
	"xqindep/internal/statefile"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// The drain-vs-budget satellite proof: an in-flight audit whose guard
// budget would outlive the drain deadline is hard-cancelled by
// Shutdown, and nothing already persisted — neither the spooled
// incident nor the quarantine transition — is lost. The wedge is a
// KindStall fault on the audit lane's own base context: the shadow
// engine blocks at "cdag.build" until that context dies, which is
// exactly an audit that will never finish on its own.
func TestShutdownHardCancelsWedgedAuditWithoutLosingState(t *testing.T) {
	faultinject.Enable()

	mem := statefile.NewMemFS()
	store, _, err := statefile.Open(mem, "state")
	if err != nil {
		t.Fatal(err)
	}
	spool, err := statefile.OpenSpool(mem, "state", "incidents.jsonl", 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := quarantine.NewRegistry(1)
	reg.SetPersist(func(recs []quarantine.Record) error {
		b, merr := json.Marshal(recs)
		if merr != nil {
			t.Errorf("marshal quarantine records: %v", merr)
			return merr
		}
		if werr := store.Write(b); werr != nil {
			t.Errorf("persist quarantine records: %v", werr)
			return werr
		}
		return nil
	})

	// The audit lane's schedule: the SECOND audit to reach the shadow
	// engine stalls until the base context is cancelled. (The first
	// audit — the one that must land an incident — passes untouched.)
	wedged := make(chan struct{})
	sched := faultinject.NewSchedule(faultinject.Fault{
		Point: "cdag.build", Kind: faultinject.KindStall, After: 2,
	})
	sched.OnFire = func(faultinject.Fault) { close(wedged) }

	aud := New(Config{
		SampleRate:  1,
		Quarantine:  reg,
		Spool:       spool,
		BaseContext: faultinject.With(context.Background(), sched),
	})

	// Audit 1: a flipped Independent verdict for a dependent pair →
	// disagreement → incident spooled, fingerprint quarantined and
	// persisted.
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //title")
	flip := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	res, err := core.NewAnalyzer(bib).AnalyzeContext(
		faultinject.With(context.Background(), flip), q, u,
		core.MethodChains, core.Options{Quarantine: reg})
	if err != nil || !res.Independent {
		t.Fatalf("flip not served: %+v, %v", res, err)
	}
	aud.Observe(Observation{D: bib, Query: xquery.PrepareQuery("//title", q), Update: xquery.PrepareUpdate("delete //title", u), Result: res})
	aud.Flush()
	if st := aud.Stats(); st.Disagreements != 1 || st.Incidents != 1 {
		t.Fatalf("incident not recorded: %+v", st)
	}

	// Audit 2: a legitimate Independent verdict; its shadow wedges at
	// cdag.build and would hold the worker forever.
	q2 := xquery.MustParseQuery("//title")
	u2 := xquery.MustParseUpdate("delete //price")
	res2, err := core.NewAnalyzer(bib).AnalyzeContext(context.Background(), q2, u2, core.MethodChains, core.Options{})
	if err != nil || !res2.Independent {
		t.Fatalf("independent pair not served: %+v, %v", res2, err)
	}
	aud.Observe(Observation{D: bib, Query: xquery.PrepareQuery("//title", q2), Update: xquery.PrepareUpdate("delete //price", u2), Result: res2})
	<-wedged // the worker is now provably stuck inside the audit

	// Drain with a deadline the wedged audit cannot meet.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := aud.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (hard cancel)", err)
	}

	// The wedged audit was cancelled and counted inconclusive, not
	// lost in limbo; no disagreement was fabricated for it.
	st := aud.Stats()
	if st.Audited != 2 || st.Inconclusive != 1 || st.Disagreements != 1 {
		t.Fatalf("post-shutdown stats: %+v", st)
	}

	// The incident spool was flushed during drain: the pre-crash
	// incident is durable (what a reboot would read), not just
	// buffered.
	durable, ok := mem.Durable("state/incidents.jsonl")
	if !ok || !strings.Contains(string(durable), `"audit-disagreement"`) {
		t.Fatalf("incident not durable after drain: %q", durable)
	}

	// The quarantine state survived too: a fresh registry restored
	// from the state file still refuses the fingerprint.
	_, rec, err := statefile.Open(mem, "state")
	if err != nil {
		t.Fatal(err)
	}
	var recs []quarantine.Record
	if err := json.Unmarshal(rec.State, &recs); err != nil {
		t.Fatalf("state file does not decode: %v (%q)", err, rec.State)
	}
	reg2 := quarantine.NewRegistry(1)
	if held := reg2.Restore(recs); held != 1 {
		t.Fatalf("restored %d held fingerprints, want 1 (records %+v)", held, recs)
	}
	if !reg2.Downgrade(bib.Fingerprint()) {
		t.Fatal("restored registry does not downgrade the pre-shutdown quarantine")
	}
}

// TestShutdownSkipsQueuedAuditsAfterHardCancel: once Shutdown's
// deadline hard-cancels the base context, the audit in flight skips the
// oracle and every audit still queued is counted inconclusive unrun,
// so no oracle document is generated or replayed past the deadline. An
// XMark auditor is wedged on its first audit with a full queue of
// q20 × UI1 audits behind it; when each replayed the oracle, Shutdown
// returned after about 2 s.
func TestShutdownSkipsQueuedAuditsAfterHardCancel(t *testing.T) {
	faultinject.Enable()
	wedged := make(chan struct{})
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindStall})
	sched.OnFire = func(faultinject.Fault) { close(wedged) }
	a := New(Config{SampleRate: 1, Seed: 8, BaseContext: faultinject.With(context.Background(), sched)})
	d := xmark.Schema()
	v, _ := xmark.ViewByName("q20")
	u, _ := xmark.UpdateByName("UI1")
	res, err := core.NewAnalyzer(d).Analyze(v.AST, u.AST, core.MethodChains)
	if err != nil || !res.Independent {
		t.Fatalf("q20 × UI1: %+v, %v; want an Independent verdict to audit", res, err)
	}
	o := Observation{D: d, Query: xquery.PrepareQuery(v.Text, v.AST), Update: xquery.PrepareUpdate(u.Text, u.AST), Result: res}
	a.Observe(o)
	<-wedged // the worker holds the first audit and takes no more
	for i := 0; i < queueDepth; i++ {
		a.Observe(o)
	}
	if st := a.Stats(); st.Sampled != 1+queueDepth || st.Dropped != 0 {
		t.Fatalf("want %d audits queued behind the wedged one: %+v", queueDepth, st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := a.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the wedged audit hard-cancelled", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown with a 50ms deadline took %v, want under 1s", took)
	}
	if st := a.Stats(); st.Audited != 1+queueDepth || st.Inconclusive != 1+queueDepth || st.OracleWitness != 0 || st.Disagreements != 0 {
		t.Fatalf("want all %d audits counted inconclusive: %+v", 1+queueDepth, st)
	}
	if st := a.docs.Stats(); st.Misses != 0 || st.Resident != 0 {
		t.Fatalf("oracle documents were generated after the hard cancel: %+v", st)
	}
}
