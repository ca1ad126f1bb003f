package obs

import (
	"sync"
	"time"
)

// RingEntry is one retained trace: the request summary the operator
// needs to reproduce it, plus the finished span tree.
type RingEntry struct {
	// When is the request start on the serving clock.
	When time.Time `json:"when"`
	// TotalUS is the request wall-clock total in microseconds — the
	// ranking key of the ring.
	TotalUS int64 `json:"total_us"`
	// Schema is the schema fingerprint; Query/Update are the (possibly
	// truncated) source texts; Method/Plan/Outcome summarise what
	// happened.
	Schema  string `json:"schema,omitempty"`
	Query   string `json:"query,omitempty"`
	Update  string `json:"update,omitempty"`
	Method  string `json:"method,omitempty"`
	Plan    string `json:"plan,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Spans   []Span `json:"spans"`
}

// SlowRing retains the N slowest finished traces, slowest first — the
// store behind GET /tracez. Add is called once per traced request,
// under one short mutex hold; a request faster than the current N
// slowest is discarded immediately, so steady state costs one
// comparison. Admits tells a caller beforehand whether Add would keep
// an entry, so it can skip finishing a trace the ring would discard.
type SlowRing struct {
	mu      sync.Mutex
	max     int
	entries []RingEntry
	added   uint64
	evicted uint64
}

// NewSlowRing returns a ring keeping the max slowest traces
// (minimum 1).
func NewSlowRing(max int) *SlowRing {
	if max < 1 {
		max = 1
	}
	return &SlowRing{max: max}
}

// Add offers a finished trace to the ring. Entries are kept sorted
// slowest first; among equal totals the earlier arrival ranks higher,
// so a flood of identical requests cannot churn the ring.
func (r *SlowRing) Add(e RingEntry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added++
	if !r.admits(e.TotalUS) {
		r.evicted++
		return
	}
	// Insert after the last entry at least as slow (stable for ties).
	i := len(r.entries)
	for i > 0 && r.entries[i-1].TotalUS < e.TotalUS {
		i--
	}
	r.entries = append(r.entries, RingEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
	if len(r.entries) > r.max {
		r.entries = r.entries[:r.max]
		r.evicted++
	}
}

// Admits reports whether Add would keep an entry of the given total
// now; a nil ring admits nothing. Once the ring is full the bar an entry
// must pass only rises, so an entry Admits rejects is rejected by a
// later Add as well, and is counted there as added and evicted.
func (r *SlowRing) Admits(totalUS int64) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admits(totalUS)
}

// admits is Admits under r.mu.
func (r *SlowRing) admits(totalUS int64) bool {
	return len(r.entries) < r.max || totalUS > r.entries[len(r.entries)-1].TotalUS
}

// RingStatus snapshots the ring counters for /statz and /tracez.
type RingStatus struct {
	Capacity int    `json:"capacity"`
	Held     int    `json:"held"`
	Added    uint64 `json:"added"`
	Evicted  uint64 `json:"evicted"`
}

// Status reports the ring counters (zero for a nil ring).
func (r *SlowRing) Status() RingStatus {
	if r == nil {
		return RingStatus{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStatus{Capacity: r.max, Held: len(r.entries), Added: r.added, Evicted: r.evicted}
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRing) Snapshot() []RingEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RingEntry, len(r.entries))
	copy(out, r.entries)
	return out
}
