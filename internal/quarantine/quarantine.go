// Package quarantine is the containment registry behind the runtime
// verdict auditor (package sentinel): when an audit catches the fast
// engine producing an `Independent` verdict that the independent
// shadow machinery refutes, the schema's fingerprint is quarantined
// here, and every subsequent analysis for that fingerprint is
// *downgraded* to the conservative "not independent" rung of the
// degradation ladder until the schema proves itself clean again.
//
// The registry only ever weakens verdicts. Downgrading is always sound
// (PR 1's ladder argument: "not independent" can never be wrong), so
// the registry cannot introduce an unsoundness of its own — it can
// only cost precision while a fingerprint is under suspicion. Nothing
// in this package can flip a verdict to Independent; the xqvet
// verdictflow gate enforces that mechanically.
//
// Lifecycle of one fingerprint, mirroring the serving layer's circuit
// breaker (DESIGN.md §4c):
//
//	clean ──disagreement──▶ quarantined (active, 30s)
//	   ▲                         │ backoff elapses
//	   │                         ▼
//	   └──3 clean retrials──half-open ──dirty retrial──▶ quarantined
//	                                                  (backoff doubled, ≤1h)
//
// On the FIRST disagreement the caller is told to purge the schema's
// compiled-schema cache entry (Quarantine returns purge=true): a corrupted
// compiled artifact is the most likely benign cause, and recompiling
// from the source DTD repairs it. If disagreements continue on the
// fresh artifact the quarantine becomes sticky — backoff doubles on
// every re-trip and only clean half-open retrials lift it.
//
// All methods are safe for concurrent use. The clock is injectable so
// the sentinel chaos suite drives the state machine deterministically.
package quarantine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"xqindep/internal/guard"
)

// ErrQuarantined marks a conservative verdict served because the
// schema's fingerprint is quarantined. It unwraps to ErrBudgetExceeded
// so the Degraded/Err reporting contract of the analysis ladder (and
// every chaos invariant stated over it) covers quarantine downgrades
// unchanged.
var ErrQuarantined = fmt.Errorf("quarantine: schema fingerprint quarantined after audit disagreement: %w", guard.ErrBudgetExceeded)

// IsQuarantined reports whether err marks a quarantine downgrade.
func IsQuarantined(err error) bool { return errors.Is(err, ErrQuarantined) }

// The backoff of a fingerprint's first trip is initialBackoff. Every
// re-trip doubles it, up to maxBackoff; recoverAfter consecutive clean
// half-open retrials lift the quarantine.
const (
	initialBackoff = 30 * time.Second
	maxBackoff     = time.Hour
	recoverAfter   = 3
)

type qState int

const (
	qActive qState = iota
	qHalfOpen
)

// entry is the per-fingerprint state machine.
type entry struct {
	state         qState
	disagreements int // total recorded, across trips
	trips         int // times the quarantine engaged
	purged        bool
	backoff       time.Duration
	openUntil     time.Time
	clean         int  // consecutive clean retrials in half-open
	probing       bool // a retrial is in flight
}

// Stats is a point-in-time snapshot of a Registry, exposed by the
// daemon's /statz and /incidentz endpoints.
type Stats struct {
	Quarantined   int64 `json:"quarantined"` // fingerprints currently held
	Trips         int64 `json:"trips"`
	Disagreements int64 `json:"disagreements"`
	Probes        int64 `json:"probes"`
	Recovered     int64 `json:"recovered"`
	Downgrades    int64 `json:"downgrades"` // verdicts served conservatively
	// Fingerprints lists the held fingerprints with their state, sorted.
	Fingerprints []FingerprintState `json:"fingerprints,omitempty"`
}

// FingerprintState describes one held fingerprint.
type FingerprintState struct {
	Fingerprint   string `json:"fingerprint"`
	State         string `json:"state"` // "quarantined" or "half-open"
	Trips         int    `json:"trips"`
	Disagreements int    `json:"disagreements"`
	CleanRetrials int    `json:"clean_retrials"`
}

// Registry holds the quarantined fingerprints. The zero value is not
// usable; construct with NewRegistry. A nil *Registry downgrades
// nothing and reports zero Stats.
type Registry struct {
	// quarantineAfter is the number of recorded disagreements on one
	// fingerprint that engages its quarantine; it never changes.
	quarantineAfter int

	mu  sync.Mutex
	m   map[string]*entry
	now func() time.Time

	trips, disagreements, probes, recovered, downgrades int64

	// hookMu serializes calls of hook, the audit-lane persistence hook
	// (see persist.go). It is taken before mu, never while mu is held.
	hookMu sync.Mutex
	hook   func([]Record) error
}

// NewRegistry builds an empty registry whose quarantine engages on a
// fingerprint's quarantineAfter-th recorded disagreement. A value below
// 1 is taken as 1: the first unsound verdict is already an incident.
func NewRegistry(quarantineAfter int) *Registry {
	return &Registry{
		quarantineAfter: max(quarantineAfter, 1),
		m:               make(map[string]*entry),
		now:             time.Now, //xqvet:ignore clockinject injectable-clock default; tests and chaos harnesses replace via SetNow
	}
}

// SetNow injects the clock (tests and chaos harnesses only).
func (r *Registry) SetNow(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// Downgrade reports whether verdicts for fp must be served
// conservatively right now, and counts the downgrade when so. An
// active quarantine whose backoff has elapsed transitions to half-open
// here; half-open fingerprints are still downgraded — recovery is
// driven by the sentinel's retrials (TryProbe/RecordProbe), never by
// trusting an unaudited verdict.
func (r *Registry) Downgrade(fp string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil || e.trips == 0 {
		// Unknown, or disagreements recorded but still below the
		// engagement threshold.
		return false
	}
	if e.state == qActive && !r.now().Before(e.openUntil) {
		e.state = qHalfOpen
		e.clean = 0
		e.probing = false
	}
	r.downgrades++
	return true
}

// Quarantine records one audit disagreement for fp and engages (or
// re-engages) its quarantine once the registry's threshold is
// reached. It returns purge=true exactly once per fingerprint — on the
// first engagement — telling the caller to purge and recompile the
// schema's cached compiled artifact before the quarantine becomes
// sticky. It returns after the persistence hook has run.
func (r *Registry) Quarantine(fp string) (purge bool) {
	purge = r.quarantine(fp)
	_ = r.Persist() // the hook counts its own failures
	return purge
}

func (r *Registry) quarantine(fp string) (purge bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil {
		e = &entry{}
		r.m[fp] = e
	}
	e.disagreements++
	r.disagreements++
	if e.disagreements < r.quarantineAfter && e.trips == 0 {
		return false
	}
	if e.backoff == 0 {
		e.backoff = initialBackoff
	} else {
		e.backoff = min(2*e.backoff, maxBackoff)
	}
	e.state = qActive
	e.openUntil = r.now().Add(e.backoff)
	e.clean = 0
	e.probing = false
	e.trips++
	r.trips++
	purge = !e.purged
	e.purged = true
	return purge
}

// TryProbe claims the single half-open retrial slot for fp. It
// returns true when fp is half-open and no retrial is in flight; the
// caller must finish with RecordProbe.
func (r *Registry) TryProbe(fp string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil || e.trips == 0 {
		return false
	}
	if e.state == qActive && !r.now().Before(e.openUntil) {
		e.state = qHalfOpen
		e.clean = 0
		e.probing = false
	}
	if e.state != qHalfOpen || e.probing {
		return false
	}
	e.probing = true
	r.probes++
	return true
}

// ProbeOutcome classifies one finished retrial.
type ProbeOutcome int

const (
	// ProbeClean: the fresh verdict and its shadow re-derivation agree.
	ProbeClean ProbeOutcome = iota
	// ProbeDirty: the retrial disagreed again — re-trip with doubled
	// backoff.
	ProbeDirty
	// ProbeInconclusive: the retrial could not be judged (audit budget
	// exhausted, oracle error); the slot frees and the next retrial
	// decides.
	ProbeInconclusive
)

// RecordProbe releases the retrial slot claimed by TryProbe and feeds
// the outcome back: three consecutive clean retrials lift the
// quarantine, a dirty retrial re-trips it. A clean or dirty outcome
// returns after the persistence hook has run.
func (r *Registry) RecordProbe(fp string, o ProbeOutcome) {
	if r.recordProbe(fp, o) {
		_ = r.Persist() // the hook counts its own failures
	}
}

// recordProbe applies o and reports whether fp's state changed.
func (r *Registry) recordProbe(fp string, o ProbeOutcome) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil {
		return false
	}
	e.probing = false
	if e.state != qHalfOpen {
		return false
	}
	switch o {
	case ProbeClean:
		e.clean++
		if e.clean >= recoverAfter {
			delete(r.m, fp)
			r.recovered++
		}
		return true
	case ProbeDirty:
		e.backoff = min(2*e.backoff, maxBackoff)
		e.state = qActive
		e.openUntil = r.now().Add(e.backoff)
		e.clean = 0
		e.trips++
		r.trips++
		return true
	}
	return false
}

// State reports fp's state: "clean", "quarantined" or "half-open". It
// does not advance the state machine.
func (r *Registry) State(fp string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	switch {
	case e == nil || e.trips == 0:
		return "clean"
	case e.state == qHalfOpen:
		return "half-open"
	default:
		return "quarantined"
	}
}

// Stats snapshots the registry.
func (r *Registry) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Trips:         r.trips,
		Disagreements: r.disagreements,
		Probes:        r.probes,
		Recovered:     r.recovered,
		Downgrades:    r.downgrades,
	}
	for fp, e := range r.m {
		if e.trips == 0 {
			// Watched but below the engagement threshold.
			continue
		}
		st.Quarantined++
		state := "quarantined"
		if e.state == qHalfOpen {
			state = "half-open"
		}
		st.Fingerprints = append(st.Fingerprints, FingerprintState{
			Fingerprint:   fp,
			State:         state,
			Trips:         e.trips,
			Disagreements: e.disagreements,
			CleanRetrials: e.clean,
		})
	}
	sort.Slice(st.Fingerprints, func(i, j int) bool {
		return st.Fingerprints[i].Fingerprint < st.Fingerprints[j].Fingerprint
	})
	return st
}
