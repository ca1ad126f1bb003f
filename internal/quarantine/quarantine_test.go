package quarantine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"xqindep/internal/guard"
)

func frozen(r *Registry) *time.Time {
	now := time.Unix(0, 0)
	r.SetNow(func() time.Time { return now })
	return &now
}

func TestErrQuarantinedIsBudgetError(t *testing.T) {
	if !errors.Is(ErrQuarantined, guard.ErrBudgetExceeded) {
		t.Fatal("ErrQuarantined must unwrap to ErrBudgetExceeded")
	}
}

func TestLifecycle(t *testing.T) {
	r := NewRegistry(1)
	now := frozen(r)
	const fp = "abc"

	if r.Downgrade(fp) {
		t.Fatal("clean fingerprint downgraded")
	}
	if got := r.State(fp); got != "clean" {
		t.Fatalf("state = %q, want clean", got)
	}

	// First disagreement: engages immediately (QuarantineAfter default
	// 1) and requests exactly one purge.
	if !r.Quarantine(fp) {
		t.Fatal("first quarantine must request a purge")
	}
	if !r.Downgrade(fp) {
		t.Fatal("quarantined fingerprint not downgraded")
	}
	if got := r.State(fp); got != "quarantined" {
		t.Fatalf("state = %q, want quarantined", got)
	}
	// A retrial before the 30s backoff elapses must not be admitted.
	if r.TryProbe(fp) {
		t.Fatal("probe admitted before backoff elapsed")
	}
	*now = now.Add(30*time.Second - time.Nanosecond)
	if r.TryProbe(fp) || r.State(fp) != "quarantined" {
		t.Fatal("probe admitted before the 30s backoff elapsed")
	}

	// Backoff elapses: still downgraded (half-open never upgrades),
	// but a single retrial slot opens.
	*now = now.Add(time.Nanosecond)
	if !r.Downgrade(fp) {
		t.Fatal("half-open fingerprint must still be downgraded")
	}
	if got := r.State(fp); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	if !r.TryProbe(fp) {
		t.Fatal("half-open must admit one probe")
	}
	if r.TryProbe(fp) {
		t.Fatal("second concurrent probe admitted")
	}

	// An inconclusive retrial frees the slot without progress.
	r.RecordProbe(fp, ProbeInconclusive)
	if !r.TryProbe(fp) {
		t.Fatal("slot not freed after inconclusive probe")
	}
	// Two clean retrials of three leave it half-open; the third lifts
	// it.
	for i := 1; i <= 2; i++ {
		r.RecordProbe(fp, ProbeClean)
		if got := r.State(fp); got != "half-open" {
			t.Fatalf("%d clean retrials of three lifted quarantine: %q", i, got)
		}
		if !r.TryProbe(fp) {
			t.Fatalf("probe slot closed after clean retrial %d", i)
		}
	}
	r.RecordProbe(fp, ProbeClean)
	if got := r.State(fp); got != "clean" {
		t.Fatalf("state after three clean retrials = %q, want clean", got)
	}
	if r.Downgrade(fp) {
		t.Fatal("recovered fingerprint still downgraded")
	}

	st := r.Stats()
	if st.Recovered != 1 || st.Trips != 1 || st.Quarantined != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestDirtyRetrialDoublesBackoff(t *testing.T) {
	r := NewRegistry(1)
	now := frozen(r)
	const fp = "fp"

	if !r.Quarantine(fp) {
		t.Fatal("want purge on first trip")
	}
	// The first backoff is 30s.
	*now = now.Add(30*time.Second - time.Nanosecond)
	if r.TryProbe(fp) {
		t.Fatal("probe admitted before the 30s backoff elapsed")
	}
	*now = now.Add(time.Nanosecond)
	if !r.TryProbe(fp) {
		t.Fatal("no probe slot after the 30s backoff")
	}
	r.RecordProbe(fp, ProbeDirty)
	if got := r.State(fp); got != "quarantined" {
		t.Fatalf("dirty retrial must re-trip, state %q", got)
	}
	// Doubled backoff: 60s now.
	*now = now.Add(60*time.Second - time.Nanosecond)
	if r.TryProbe(fp) {
		t.Fatal("probe admitted before the doubled 60s backoff elapsed")
	}
	*now = now.Add(time.Nanosecond)
	if !r.TryProbe(fp) {
		t.Fatal("probe not admitted after the doubled 60s backoff")
	}
}

// TestBackoffDoublesUpToAnHour: re-trips double the backoff from 30s
// and stop at one hour.
func TestBackoffDoublesUpToAnHour(t *testing.T) {
	r := NewRegistry(1)
	frozen(r)
	want := []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 4 * time.Minute,
		8 * time.Minute, 16 * time.Minute, 32 * time.Minute, time.Hour, time.Hour}
	for i, w := range want {
		r.Quarantine("fp")
		if got := r.Export()[0].Remaining; got != w {
			t.Fatalf("trip %d: backoff %v, want %v", i+1, got, w)
		}
	}
}

func TestPurgeRequestedExactlyOnce(t *testing.T) {
	r := NewRegistry(1)
	frozen(r)
	if !r.Quarantine("fp") {
		t.Fatal("first trip must purge")
	}
	if r.Quarantine("fp") {
		t.Fatal("second trip must not purge again")
	}
	if r.Quarantine("fp") {
		t.Fatal("third trip must not purge again")
	}
}

func TestQuarantineAfterThreshold(t *testing.T) {
	r := NewRegistry(3)
	frozen(r)
	const fp = "fp"
	if r.Quarantine(fp) || r.Downgrade(fp) {
		t.Fatal("one disagreement of three must not engage")
	}
	if r.Quarantine(fp) || r.Downgrade(fp) {
		t.Fatal("two disagreements of three must not engage")
	}
	if !r.Quarantine(fp) {
		t.Fatal("third disagreement must engage and purge")
	}
	if !r.Downgrade(fp) {
		t.Fatal("engaged fingerprint not downgraded")
	}
	// Once tripped, every further disagreement re-trips regardless of
	// the threshold.
	if got := r.State(fp); got != "quarantined" {
		t.Fatalf("state %q", got)
	}
}

func TestNilAndUnknownSafe(t *testing.T) {
	var r *Registry
	if r.Downgrade("x") {
		t.Fatal("nil registry downgraded")
	}
	if st := r.Stats(); !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("nil registry stats: %+v", st)
	}
	reg := NewRegistry(1)
	reg.RecordProbe("never-seen", ProbeClean) // must not panic
	if reg.TryProbe("never-seen") {
		t.Fatal("probe on unknown fingerprint")
	}
	// A threshold below 1 is taken as 1: the first disagreement engages.
	for _, after := range []int{0, -1} {
		if r := NewRegistry(after); !r.Quarantine("fp") || r.State("fp") != "quarantined" {
			t.Fatalf("NewRegistry(%d): the first disagreement did not engage", after)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := NewRegistry(1)
	frozen(r)
	r.Quarantine("b")
	r.Quarantine("a")
	r.Downgrade("a")
	st := r.Stats()
	if st.Quarantined != 2 || st.Disagreements != 2 || st.Downgrades != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Fingerprints) != 2 || st.Fingerprints[0].Fingerprint != "a" {
		t.Fatalf("fingerprints not sorted: %+v", st.Fingerprints)
	}
}
