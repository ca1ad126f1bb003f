package quarantine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for driving backoff windows.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func TestPersistHookRunsOnAuditLaneTransitions(t *testing.T) {
	clk := newClock()
	r := NewRegistry(1)
	r.SetNow(clk.now)
	var exports [][]Record
	r.SetPersist(func(recs []Record) error {
		exports = append(exports, recs)
		return nil
	})

	r.Quarantine("fp1")
	if len(exports) != 1 || len(exports[0]) != 1 ||
		exports[0][0].State != StateQuarantined || exports[0][0].Remaining != 30*time.Second {
		t.Fatalf("after quarantine: %+v", exports)
	}

	clk.advance(31 * time.Second)
	if !r.Downgrade("fp1") {
		t.Fatal("fp1 not downgraded")
	}
	// The active→half-open aging inside Downgrade is clock-derived and
	// must NOT persist.
	if len(exports) != 1 {
		t.Fatalf("clock transition persisted: %+v", exports)
	}

	if !r.TryProbe("fp1") {
		t.Fatal("probe slot not claimed")
	}
	r.RecordProbe("fp1", ProbeInconclusive) // no transition: nothing written
	r.TryProbe("fp1")
	r.RecordProbe("fp1", ProbeClean)
	if len(exports) != 2 || exports[1][0].State != StateHalfOpen || exports[1][0].Clean != 1 {
		t.Fatalf("after clean probe: %+v", exports)
	}

	// Every export is the whole registry: fp2's write carries fp1.
	r.Quarantine("fp2")
	if len(exports) != 3 || len(exports[2]) != 2 {
		t.Fatalf("after quarantining fp2: %+v", exports)
	}

	r.TryProbe("fp1")
	r.RecordProbe("fp1", ProbeClean)
	if len(exports) != 4 || exports[3][0].State != StateHalfOpen || exports[3][0].Clean != 2 {
		t.Fatalf("after the second clean probe: %+v", exports)
	}
	r.TryProbe("fp1")
	r.RecordProbe("fp1", ProbeClean) // the third clean lifts it
	if len(exports) != 5 || len(exports[4]) != 1 || exports[4][0].Fingerprint != "fp2" {
		t.Fatalf("after recovery: %+v", exports)
	}
	if err := r.Persist(); err != nil || len(exports) != 6 {
		t.Fatalf("Persist: %v, %d exports", err, len(exports))
	}
}

// TestPersistRunsOutsideTheRegistryLock: a hook that is still writing
// does not hold up Downgrade on the request path.
func TestPersistRunsOutsideTheRegistryLock(t *testing.T) {
	r := NewRegistry(1)
	entered, release := make(chan struct{}), make(chan struct{})
	r.SetPersist(func([]Record) error {
		close(entered)
		<-release
		return nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Quarantine("fp")
	}()
	<-entered
	downgraded := make(chan bool)
	go func() { downgraded <- r.Downgrade("fp") }()
	select {
	case ok := <-downgraded:
		if !ok {
			t.Fatal("quarantined fingerprint not downgraded while its write is in flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Downgrade waited on the persistence hook")
	}
	close(release)
	<-done
}

// TestPersistExportsOnlyMoveForward: concurrent transitions hand the
// hook exports in order, each holding every fingerprint the one before
// it held, so the last write is the whole registry.
func TestPersistExportsOnlyMoveForward(t *testing.T) {
	r := NewRegistry(1)
	var sizes []int
	r.SetPersist(func(recs []Record) error {
		sizes = append(sizes, len(recs)) // calls never overlap
		return nil
	})
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Quarantine(fmt.Sprintf("fp-%d-%d", w, i))
			}
		}()
	}
	wg.Wait()
	if len(sizes) != workers*each || sizes[len(sizes)-1] != workers*each {
		t.Fatalf("%d writes, last of %d records", len(sizes), sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("write %d holds %d records, after a write of %d", i, sizes[i], sizes[i-1])
		}
	}
}

func TestRestoreRebasesBackoffOntoNewClock(t *testing.T) {
	clk := newClock()
	r := NewRegistry(1)
	r.SetNow(clk.now)
	r.Quarantine("fp1")
	clk.advance(10 * time.Second) // 20s of backoff left
	recs := r.Export()
	if len(recs) != 1 || recs[0].Remaining != 20*time.Second {
		t.Fatalf("export: %+v", recs)
	}

	// "Reboot" onto a clock that jumped far backwards: the quarantine
	// must still hold for its remaining 20s, not expire or extend.
	clk2 := &fakeClock{t: time.Unix(1000, 0)}
	r2 := NewRegistry(1)
	r2.SetNow(clk2.now)
	if held := r2.Restore(recs); held != 1 {
		t.Fatalf("restored %d held", held)
	}
	if !r2.Downgrade("fp1") {
		t.Fatal("restored quarantine not downgrading")
	}
	if r2.State("fp1") != "quarantined" {
		t.Fatalf("state: %s", r2.State("fp1"))
	}
	clk2.advance(21 * time.Second)
	r2.Downgrade("fp1")
	if r2.State("fp1") != "half-open" {
		t.Fatalf("after remaining elapsed: %s", r2.State("fp1"))
	}
}

// TestRestoreWatchedAndGarbage: a watched entry keeps its
// disagreement count across a restore, and a record without a
// fingerprint is ignored.
func TestRestoreWatchedAndGarbage(t *testing.T) {
	r := NewRegistry(2)
	n := r.Restore([]Record{
		{Fingerprint: "b", State: StateQuarantined, Trips: 2, Backoff: time.Second, Remaining: time.Second},
		{Fingerprint: "c", State: StateWatched, Disagreements: 1},
		{Fingerprint: "", State: StateQuarantined}, // garbage: ignored
	})
	if n != 1 {
		t.Fatalf("held after restore: %d", n)
	}
	if r.State("b") != "quarantined" || r.State("c") != "clean" {
		t.Fatalf("states: b=%s c=%s", r.State("b"), r.State("c"))
	}
	// One more disagreement on c reaches QuarantineAfter=2.
	if purge := r.Quarantine("c"); !purge {
		t.Fatal("restored watched count did not engage quarantine")
	}
}

func TestRestoreHalfOpenForgetsProbe(t *testing.T) {
	clk := newClock()
	r := NewRegistry(1)
	r.SetNow(clk.now)
	r.Quarantine("fp")
	clk.advance(31 * time.Second)
	r.TryProbe("fp") // slot claimed, probe in flight
	recs := r.Export()

	r2 := NewRegistry(1)
	r2.SetNow(clk.now)
	r2.Restore(recs)
	if r2.State("fp") != "half-open" {
		t.Fatalf("state: %s", r2.State("fp"))
	}
	if !r2.TryProbe("fp") {
		t.Fatal("probe slot still held across restart")
	}
}

func TestExportRestoreRoundTripReproducesRegistry(t *testing.T) {
	clk := newClock()
	r := NewRegistry(1)
	r.SetNow(clk.now)
	r.Quarantine("x")
	r.Quarantine("y")
	r.Quarantine("y") // re-trip: doubled backoff
	clk.advance(3 * time.Second)

	r2 := NewRegistry(1)
	r2.SetNow(clk.now)
	r2.Restore(r.Export())
	for _, fp := range []string{"x", "y"} {
		if r.State(fp) != r2.State(fp) {
			t.Fatalf("%s: %s vs %s", fp, r.State(fp), r2.State(fp))
		}
		if !r2.Downgrade(fp) {
			t.Fatalf("%s not downgraded after restore", fp)
		}
	}
	// x had 27s of its 30s backoff left and y, re-tripped to 60s, had
	// 57s: the windows re-open independently.
	clk.advance(27 * time.Second) // x's remaining elapsed, y's not
	r2.Downgrade("x")
	r2.Downgrade("y")
	if r2.State("x") != "half-open" || r2.State("y") != "quarantined" {
		t.Fatalf("windows: x=%s y=%s", r2.State("x"), r2.State("y"))
	}
}
