package sentinel

import (
	"encoding/json"
	"io"
	"time"
)

// Incident is the structured record of one audit disagreement: the
// fast engine served Independent=true and the independent re-derivation
// (shadow engine and/or oracle replay) refuted it. Incidents land in
// the auditor's in-memory ring (served by /incidentz) and, when a
// spool is configured, as one JSON line each.
type Incident struct {
	// Time is stamped from the auditor's injectable clock.
	Time time.Time `json:"time"`
	// Kind is "audit-disagreement" for a sampled live verdict or
	// "probe-dirty" for a failed half-open retrial.
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	QueryText   string `json:"query"`
	UpdateText  string `json:"update"`
	// QueryChains (return, then used) and UpdateChains are the chain
	// evidence of the pair in dotted notation, taken from the shadow
	// re-derivation and capped per set; update evidence is full update
	// chains, not c:c' pairs. Both are empty when the shadow ran out of
	// audit budget.
	QueryChains  []string `json:"query_chains,omitempty"`
	UpdateChains []string `json:"update_chains,omitempty"`
	// FastIndependent is the verdict that was served; always true for
	// an audited incident (only Independent verdicts are audited).
	FastIndependent bool `json:"fast_independent"`
	// ShadowIndependent is the reference engine's re-derivation;
	// ShadowErr records why it is missing when the audit budget ran out.
	ShadowIndependent bool   `json:"shadow_independent"`
	ShadowErr         string `json:"shadow_err,omitempty"`
	// ShadowReasons lists the conflict checks that fired in the shadow.
	ShadowReasons []string `json:"shadow_reasons,omitempty"`
	// OracleWitness is the index of the example document on which
	// replaying the pair changed the query result (-1: no witness or
	// oracle disabled). A witness is a concrete counterexample — proof,
	// not suspicion.
	OracleWitness int `json:"oracle_witness"`
	// Method and FallbackChain echo the served result's provenance.
	Method        string   `json:"method"`
	FallbackChain []string `json:"fallback_chain,omitempty"`
	// FaultSchedule describes the chaos schedule active on the audited
	// request, when any — it ties an incident back to its injection.
	FaultSchedule string `json:"fault_schedule,omitempty"`
}

// ringSize bounds the in-memory incident ring.
const ringSize = 128

// ring is a fixed-size overwrite-oldest incident buffer.
type ring struct {
	buf  []Incident
	next int
	n    int
}

func newRing() *ring { return &ring{buf: make([]Incident, ringSize)} }

func (r *ring) add(in Incident) {
	r.buf[r.next] = in
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot returns the retained incidents, oldest first.
func (r *ring) snapshot() []Incident {
	out := make([]Incident, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// spool writes in as one JSON line; errors are reported to the caller
// (the auditor counts them but never fails an audit over a spool).
func spool(w io.Writer, in Incident) error {
	return json.NewEncoder(w).Encode(in)
}
