package quarantine

import (
	"sort"
	"time"
)

// Durable persistence for the containment registry.
//
// Quarantine decisions are the one piece of runtime state whose loss
// changes verdict behaviour: a fingerprint quarantined before a crash
// must still be downgraded after the restart, or the process reboots
// into trusting an engine the auditor already caught lying. The
// registry therefore hands its whole Export to a hook installed with
// SetPersist after every AUDIT-LANE transition — the ones driven by
// evidence (Quarantine, RecordProbe) — and rebuilds itself from the
// last stored export via Restore at boot.
//
// Clock-derived transitions (an active quarantine aging into
// half-open inside Downgrade/TryProbe, a probe slot being claimed)
// are deliberately NOT persisted: they carry no evidence, they are
// recomputed from the restored deadlines, and persisting them would
// put an fsync on the verdict-serving path.
//
// Deadlines are persisted as durations-remaining, not wall-clock
// instants: a Record captured with 20s of backoff left is restored as
// openUntil = now+20s on whatever clock the rebooted process runs,
// so a clock jump across the restart can only lengthen a quarantine,
// never silently expire one.

// Record is the durable snapshot of one fingerprint's containment
// state; an Export holds one per tracked fingerprint.
type Record struct {
	Fingerprint string `json:"fp"`
	// State is one of "watched" (disagreements below the engagement
	// threshold), "quarantined" or "half-open".
	State         string        `json:"state"`
	Disagreements int           `json:"disagreements,omitempty"`
	Trips         int           `json:"trips,omitempty"`
	Purged        bool          `json:"purged,omitempty"`
	Backoff       time.Duration `json:"backoff,omitempty"`
	// Remaining is how much of the active backoff window was left when
	// the record was captured; Restore rebases it onto its own clock.
	Remaining time.Duration `json:"remaining,omitempty"`
	Clean     int           `json:"clean,omitempty"`
}

// Record state names.
const (
	StateWatched     = "watched"
	StateQuarantined = "quarantined"
	StateHalfOpen    = "half-open"
)

// SetPersist installs the persistence hook. After every audit-lane
// transition the registry calls fn with its whole Export, outside the
// registry lock, so Downgrade never waits on fn's I/O. Calls run under
// a mutex of their own and take the export inside it: they never
// overlap, and each export holds every transition the one before it
// held, so a store that keeps the latest export only moves forward.
// The transition returns after fn does, so fn's durability is the
// transition's. fn must not call SetPersist or Persist, which wait
// for it. A nil fn disables persistence.
func (r *Registry) SetPersist(fn func([]Record) error) {
	if r == nil {
		return
	}
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.hook = fn
}

// Persist calls the persistence hook with the current Export, in
// turn with the transitions' calls, and returns its error (nil when
// no hook is installed). The serving layer calls it once at shutdown
// so a clean restart resumes each backoff where it stopped.
func (r *Registry) Persist() error {
	if r == nil {
		return nil
	}
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	if r.hook == nil {
		return nil
	}
	return r.hook(r.Export())
}

// recordLocked captures the state of the tracked fingerprint fp.
func (r *Registry) recordLocked(fp string, e *entry) Record {
	rec := Record{
		Fingerprint:   fp,
		Disagreements: e.disagreements,
		Trips:         e.trips,
		Purged:        e.purged,
		Backoff:       e.backoff,
		Clean:         e.clean,
	}
	switch {
	case e.trips == 0:
		rec.State = StateWatched
	case e.state == qHalfOpen:
		rec.State = StateHalfOpen
	default:
		rec.State = StateQuarantined
		if rem := e.openUntil.Sub(r.now()); rem > 0 {
			rec.Remaining = rem
		}
	}
	return rec
}

// Export captures every tracked fingerprint, sorted. Restore(Export())
// on a fresh registry reproduces the containment state (with backoff
// deadlines rebased).
func (r *Registry) Export() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fps := make([]string, 0, len(r.m))
	for fp := range r.m {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	recs := make([]Record, 0, len(fps))
	for _, fp := range fps {
		recs = append(recs, r.recordLocked(fp, r.m[fp]))
	}
	return recs
}

// Restore loads an Export into the registry, rebasing every Remaining
// onto the registry clock. It is meant to run once at boot, before the
// registry serves Downgrade decisions, and does not call the
// persistence hook. A restored half-open fingerprint forgets any
// in-flight probe — the slot re-opens, which can only delay recovery,
// never weaken containment. Restore returns the number of fingerprints
// held (quarantined or half-open) afterwards.
func (r *Registry) Restore(recs []Record) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		if rec.Fingerprint == "" {
			continue
		}
		e := &entry{
			disagreements: rec.Disagreements,
			trips:         rec.Trips,
			purged:        rec.Purged,
			backoff:       rec.Backoff,
			clean:         rec.Clean,
		}
		switch rec.State {
		case StateHalfOpen:
			e.state = qHalfOpen
		default:
			// "watched" entries have trips == 0 and never downgrade;
			// "quarantined" entries re-arm with the remaining backoff on
			// this process's clock.
			e.state = qActive
			e.openUntil = r.now().Add(rec.Remaining)
		}
		r.m[rec.Fingerprint] = e
	}
	held := 0
	for _, e := range r.m {
		if e.trips > 0 {
			held++
		}
	}
	return held
}
