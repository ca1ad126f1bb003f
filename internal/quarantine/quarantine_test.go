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
	r := NewRegistry(Config{Backoff: 10 * time.Second, RecoverAfter: 2})
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
	// A retrial before the backoff elapses must not be admitted.
	if r.TryProbe(fp) {
		t.Fatal("probe admitted before backoff elapsed")
	}

	// Backoff elapses: still downgraded (half-open never upgrades),
	// but a single retrial slot opens.
	*now = now.Add(11 * time.Second)
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
	r.RecordProbe(fp, ProbeClean)
	if got := r.State(fp); got != "half-open" {
		t.Fatalf("one clean retrial of two lifted quarantine: %q", got)
	}
	if !r.TryProbe(fp) {
		t.Fatal("probe slot closed after clean retrial")
	}
	r.RecordProbe(fp, ProbeClean)
	if got := r.State(fp); got != "clean" {
		t.Fatalf("state after RecoverAfter clean retrials = %q, want clean", got)
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
	r := NewRegistry(Config{Backoff: 10 * time.Second, RecoverAfter: 1})
	now := frozen(r)
	const fp = "fp"

	if !r.Quarantine(fp) {
		t.Fatal("want purge on first trip")
	}
	*now = now.Add(11 * time.Second)
	if !r.TryProbe(fp) {
		t.Fatal("no probe slot after backoff")
	}
	r.RecordProbe(fp, ProbeDirty)
	if got := r.State(fp); got != "quarantined" {
		t.Fatalf("dirty retrial must re-trip, state %q", got)
	}
	// Doubled backoff: 20s now. 11s is not enough.
	*now = now.Add(11 * time.Second)
	if r.TryProbe(fp) {
		t.Fatal("probe admitted before doubled backoff elapsed")
	}
	*now = now.Add(10 * time.Second)
	if !r.TryProbe(fp) {
		t.Fatal("probe not admitted after doubled backoff")
	}
}

func TestPurgeRequestedExactlyOnce(t *testing.T) {
	r := NewRegistry(Config{Backoff: time.Second})
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
	r := NewRegistry(Config{QuarantineAfter: 3, Backoff: time.Second})
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
	reg := NewRegistry(Config{})
	reg.RecordProbe("never-seen", ProbeClean) // must not panic
	if reg.TryProbe("never-seen") {
		t.Fatal("probe on unknown fingerprint")
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := NewRegistry(Config{Backoff: time.Second})
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
