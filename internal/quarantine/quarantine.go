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
//	clean ──disagreement──▶ quarantined (active)
//	   ▲                         │ backoff elapses
//	   │                         ▼
//	   └──RecoverAfter clean──half-open ──dirty retrial──▶ quarantined
//	        retrials                                        (doubled backoff)
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

// Config tunes a Registry. The zero value of every field selects a
// default.
type Config struct {
	// QuarantineAfter is the number of recorded disagreements on one
	// fingerprint that engages its quarantine (default 1: the first
	// unsound verdict is already an incident).
	QuarantineAfter int
	// Backoff is the initial quarantine duration before a half-open
	// retrial window opens (default 30s). It doubles on every re-trip,
	// up to one hour.
	Backoff time.Duration
	// RecoverAfter is the number of consecutive clean half-open
	// retrials that lift the quarantine (default 3).
	RecoverAfter int
}

func (c Config) withDefaults() Config {
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 30 * time.Second
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	return c
}

// maxBackoff caps the doubling of a fingerprint's quarantine backoff.
const maxBackoff = time.Hour

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
	mu      sync.Mutex
	cfg     Config
	m       map[string]*entry
	now     func() time.Time
	journal func(Record) // audit-lane transition hook; see persist.go

	trips, disagreements, probes, recovered, downgrades int64
}

// NewRegistry builds an empty registry with cfg (zero fields
// defaulted).
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg: cfg.withDefaults(),
		m:   make(map[string]*entry),
		now: time.Now, //xqvet:ignore clockinject injectable-clock default; tests and chaos harnesses replace via SetNow
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
// re-engages) its quarantine once the configured threshold is
// reached. It returns purge=true exactly once per fingerprint — on the
// first engagement — telling the caller to purge and recompile the
// schema's cached compiled artifact before the quarantine becomes
// sticky.
func (r *Registry) Quarantine(fp string) (purge bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil {
		e = &entry{}
		r.m[fp] = e
	}
	e.disagreements++
	r.disagreements++
	if e.disagreements < r.cfg.QuarantineAfter && e.trips == 0 {
		r.journalLocked(fp)
		return false
	}
	if e.backoff == 0 {
		e.backoff = r.cfg.Backoff
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
	r.journalLocked(fp)
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
// the outcome back: RecoverAfter consecutive clean retrials lift the
// quarantine, a dirty retrial re-trips it.
func (r *Registry) RecordProbe(fp string, o ProbeOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[fp]
	if e == nil {
		return
	}
	e.probing = false
	if e.state != qHalfOpen {
		return
	}
	switch o {
	case ProbeClean:
		e.clean++
		if e.clean >= r.cfg.RecoverAfter {
			delete(r.m, fp)
			r.recovered++
		}
		r.journalLocked(fp)
	case ProbeDirty:
		e.backoff = min(2*e.backoff, maxBackoff)
		e.state = qActive
		e.openUntil = r.now().Add(e.backoff)
		e.clean = 0
		e.trips++
		r.trips++
		r.journalLocked(fp)
	}
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
