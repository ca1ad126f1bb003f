package server

// This file assembles every introspection payload the daemon serves,
// in one place: /statz (JSON counters), /incidentz (audit incident
// ring), /metricz (Prometheus text exposition) and /tracez (slowest
// traces).

import (
	"encoding/json"
	"net/http"

	"xqindep/internal/dtd"
	"xqindep/internal/obs"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/sentinel"
)

// StatzPayload is the /statz response: the server counters plus the
// process-wide schema-compilation cache counters (every cold plan
// build resolves its compiled schema through that cache, so
// hits/misses there measure real recompilation avoided).
type StatzPayload struct {
	Server       Stats          `json:"server"`
	CompileCache dtd.CacheStats `json:"compile_cache"`
	// PlanCache reports the prepared-plan cache the pool consults
	// (Config.Plans, or the server's own).
	PlanCache plan.CacheStats `json:"plan_cache"`
	// Audit and Quarantine report the runtime verdict-audit layer;
	// zero-valued when no auditor or registry is wired.
	Audit      sentinel.Stats   `json:"audit"`
	Quarantine quarantine.Stats `json:"quarantine"`
	// Durability reports the crash-safe state layer (state file,
	// incident spool); nil when the daemon runs without -state-dir.
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// Metrics digests every latency histogram (count, sum and
	// interpolated p50/p90/p99) — the same data /metricz exposes in
	// full, summarized for humans.
	Metrics []obs.Summary `json:"metrics,omitempty"`
	// TraceRing reports the slow-trace ring counters; nil when the
	// ring is disabled.
	TraceRing *obs.RingStatus `json:"trace_ring,omitempty"`
}

// statz assembles the full status payload — the one place every
// introspection section is wired together.
func (h *Handler) statz() StatzPayload {
	p := StatzPayload{
		Server:       h.srv.Stats(),
		CompileCache: dtd.CompileCacheStats(),
		PlanCache:    h.srv.cfg.Plans.Stats(),
		Quarantine:   h.srv.cfg.Quarantine.Stats(),
		Metrics:      h.metrics.reg.Summaries(),
	}
	if a := h.srv.cfg.Auditor; a != nil {
		p.Audit = a.Stats()
	}
	if ds := h.srv.cfg.State; ds != nil {
		st := ds.Status()
		p.Durability = &st
	}
	if h.ring != nil {
		rs := h.ring.Status()
		p.TraceRing = &rs
	}
	return p
}

func (h *Handler) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h.statz())
}

// IncidentzPayload is the /incidentz response: the audit incident ring
// plus the quarantine registry snapshot that explains the containment
// currently in force.
type IncidentzPayload struct {
	Audit      sentinel.Stats      `json:"audit"`
	Quarantine quarantine.Stats    `json:"quarantine"`
	Incidents  []sentinel.Incident `json:"incidents"`
}

func (h *Handler) handleIncidentz(w http.ResponseWriter, r *http.Request) {
	p := IncidentzPayload{
		Quarantine: h.srv.cfg.Quarantine.Stats(),
		Incidents:  []sentinel.Incident{},
	}
	if a := h.srv.cfg.Auditor; a != nil {
		p.Audit = a.Stats()
		p.Incidents = a.Incidents()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p)
}

// handleMetricz serves the metrics registry in the Prometheus text
// exposition format.
func (h *Handler) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = h.metrics.reg.WriteTo(w)
}

// TracezPayload is the /tracez response: the ring counters and the
// retained traces, slowest first.
type TracezPayload struct {
	Ring    obs.RingStatus  `json:"ring"`
	Slowest []obs.RingEntry `json:"slowest"`
}

func (h *Handler) handleTracez(w http.ResponseWriter, r *http.Request) {
	p := TracezPayload{Ring: h.ring.Status(), Slowest: h.ring.Snapshot()}
	if p.Slowest == nil {
		p.Slowest = []obs.RingEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p)
}
