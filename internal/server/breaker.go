package server

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerConfig tunes the per-schema circuit breakers. The breaker
// protects the pool from schemas whose analyses keep blowing their
// budget (deeply recursive DTDs under the exact engine, adversarial
// content models): after Threshold consecutive blowups every request
// for that schema is answered immediately with the conservative
// verdict until a backoff elapses, then a single half-open probe
// decides between closing and re-opening with doubled backoff.
type BreakerConfig struct {
	// Threshold is the number of consecutive budget blowups that
	// opens the breaker (default 5; negative disables breaking).
	Threshold int
	// Backoff is the initial open duration (default 1s).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 60s).
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomized around its
	// nominal value, in [0,1) (default 0.2). Jitter desynchronizes
	// probe storms when many schemas trip together.
	Jitter float64
	// Seed seeds the jitter source, making backoff schedules
	// deterministic for tests (default 1).
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 60 * time.Second
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// outcome classifies a completed analysis for the breaker.
type outcome int

const (
	// outcomeOK: full-strength verdict within budget.
	outcomeOK outcome = iota
	// outcomeBlowup: budget exceeded (degraded verdict or budget
	// error) or an internal panic.
	outcomeBlowup
	// outcomeNeutral: says nothing about the schema (caller
	// cancelled, malformed input, shed probe).
	outcomeNeutral
)

type breakerState int

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stClosed:
		return "closed"
	case stOpen:
		return "open"
	default:
		return "half-open"
	}
}

// breaker is the per-fingerprint state machine.
type breaker struct {
	state       breakerState
	consecutive int           // blowups since the last success (closed)
	backoff     time.Duration // current open duration
	openUntil   time.Time
	probing     bool // half-open: the single probe slot is taken
}

// breakerStats aggregates counters across all breakers.
type breakerStats struct {
	rejected uint64
	trips    uint64
	probes   uint64
}

// breakerSet holds a breaker for each schema fingerprint that has
// consecutive blowups or is open or half-open. An absent fingerprint
// is closed, so healthy schemas keep no entry. All methods are safe
// for concurrent use; the clock is injectable for tests.
type breakerSet struct {
	mu    sync.Mutex
	cfg   BreakerConfig
	rng   *rand.Rand
	m     map[string]*breaker
	now   func() time.Time
	stats breakerStats
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		m:   make(map[string]*breaker),
		now: time.Now, //xqvet:ignore clockinject injectable-clock default; tests and chaos harnesses replace breakerSet.now
	}
}

func (bs *breakerSet) disabled() bool { return bs.cfg.Threshold < 0 }

// allow decides admission for a schema: (true, false) when closed,
// (true, true) for the single half-open probe, (false, false) while
// open or while a probe is already in flight.
func (bs *breakerSet) allow(fp string) (admit, probe bool) {
	if bs.disabled() {
		return true, false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[fp]
	switch {
	case b == nil || b.state == stClosed:
		return true, false
	case b.state == stOpen:
		if bs.now().Before(b.openUntil) {
			bs.stats.rejected++
			return false, false
		}
		b.state = stHalfOpen
		b.probing = true
		bs.stats.probes++
		return true, true
	default: // half-open
		if b.probing {
			bs.stats.rejected++
			return false, false
		}
		b.probing = true
		bs.stats.probes++
		return true, true
	}
}

// record feeds one analysis outcome back.
func (bs *breakerSet) record(fp string, o outcome, probe bool) {
	if bs.disabled() {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[fp]
	if probe {
		// allow left fp half-open with the probe slot taken, and only
		// this record ends that, so the entry is there.
		b.probing = false
		switch o {
		case outcomeOK:
			// Recovery: a closed breaker without blowups is no entry.
			delete(bs.m, fp)
		case outcomeBlowup:
			bs.trip(b)
		default:
			// Neutral probe: stay half-open, the next allow re-probes.
		}
		return
	}
	if b != nil && b.state != stClosed {
		// A request admitted before the trip finished late; the open
		// timer already reflects the failure pattern.
		return
	}
	switch o {
	case outcomeOK:
		delete(bs.m, fp)
	case outcomeBlowup:
		if b == nil {
			b = &breaker{}
			bs.m[fp] = b
		}
		b.consecutive++
		if b.consecutive >= bs.cfg.Threshold {
			bs.trip(b)
		}
	}
}

// trip opens the breaker with the next (jittered, capped) backoff.
// Callers hold bs.mu.
func (bs *breakerSet) trip(b *breaker) {
	if b.backoff == 0 {
		b.backoff = bs.cfg.Backoff
	} else {
		b.backoff *= 2
		if b.backoff > bs.cfg.MaxBackoff {
			b.backoff = bs.cfg.MaxBackoff
		}
	}
	d := b.backoff
	if j := bs.cfg.Jitter; j > 0 {
		f := 1 + j*(2*bs.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	b.state = stOpen
	b.openUntil = bs.now().Add(d)
	b.consecutive = 0
	b.probing = false
	bs.stats.trips++
}

// retryAfter reports how long requests for fp will keep being
// rejected: the remaining open window while the breaker is open, zero
// otherwise (closed, half-open, or unknown fingerprint).
func (bs *breakerSet) retryAfter(fp string) time.Duration {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[fp]
	if b == nil || b.state != stOpen {
		return 0
	}
	if d := b.openUntil.Sub(bs.now()); d > 0 {
		return d
	}
	return 0
}

// stateOf reports the state name for a fingerprint (a never-seen
// schema is closed).
func (bs *breakerSet) stateOf(fp string) string {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[fp]
	if b == nil {
		return stClosed.String()
	}
	// An expired open breaker reads as open until the next allow
	// flips it; report it as-is for observability.
	return b.state.String()
}

func (bs *breakerSet) snapshot() breakerStats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.stats
}
