package xqindep

import (
	"context"
	"io"
	"net/http"
	"slices"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/sentinel"
	"xqindep/internal/server"
	"xqindep/internal/statefile"
)

// Serving-layer sentinel errors, re-exported for callers of Pool.
var (
	// ErrOverloaded: Workers+QueueDepth requests were already admitted
	// and the request was shed without waiting.
	ErrOverloaded = server.ErrOverloaded
	// ErrDraining: the pool is shutting down and no longer admits.
	ErrDraining = server.ErrDraining
	// ErrClosed: the pool has fully shut down.
	ErrClosed = server.ErrClosed
	// ErrCircuitOpen marks a conservative verdict served because the
	// schema's circuit breaker is open; it unwraps to
	// ErrBudgetExceeded.
	ErrCircuitOpen = server.ErrCircuitOpen
)

// PoolOptions configures NewPool. Zero fields take defaults.
type PoolOptions struct {
	// Workers bounds the analyses that run at once (default
	// GOMAXPROCS); each runs on its caller's goroutine.
	Workers int
	// QueueDepth bounds the admitted requests that wait for one of the
	// Workers run slots (default 2×Workers); admissions beyond
	// Workers+QueueDepth are shed with ErrOverloaded.
	QueueDepth int
	// Limits is the pool-wide resource budget, subdivided across the
	// Workers run slots; each request runs under its share.
	Limits Limits
	// RequestTimeout bounds one analysis once it holds a run slot
	// (default 5s; negative disables); like a caller deadline, it
	// degrades the verdict when it passes mid-analysis.
	RequestTimeout time.Duration
	// NoFallback disables the degradation ladder pool-wide.
	NoFallback bool
	// DrainTimeout bounds Close's graceful drain (default 10s).
	DrainTimeout time.Duration
	// BreakerThreshold is the number of consecutive budget blowups on
	// one schema that opens its circuit breaker (default 5; negative
	// disables breaking).
	BreakerThreshold int
	// BreakerBackoff is the initial open duration (default 1s); it
	// doubles on every re-open up to BreakerMaxBackoff (default 60s),
	// jittered by BreakerJitter (default 0.2) from BreakerSeed.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	BreakerJitter     float64
	BreakerSeed       int64
	// AuditRate, when positive, enables the runtime verdict audit: the
	// given fraction of Independent verdicts is re-derived off the
	// request path on independent machinery (the reference chain engine
	// plus a dynamic-oracle replay on generated documents); a
	// disagreement quarantines the schema fingerprint so subsequent
	// verdicts degrade to the conservative "not independent" until
	// clean retrials recover it. 1 audits everything; 0 disables.
	AuditRate float64
	// AuditBudget bounds each audit re-derivation's node and chain
	// consumption, keeping the audit lane from competing with serving
	// (0 = the audit lane's own defaults).
	AuditBudget int
	// QuarantineAfter is the number of audit disagreements on one
	// fingerprint that engages its quarantine (default 1 — a single
	// refuted proof is already an unsoundness incident).
	QuarantineAfter int
	// AuditSeed seeds audit sampling and oracle document generation,
	// making audit decisions reproducible (default 1).
	AuditSeed int64
	// AuditSpool, when non-nil, additionally receives every incident as
	// one JSON object per line (an append-only audit trail; the in-memory
	// incident ring is bounded).
	AuditSpool io.Writer
	// StateDir, when non-empty, makes the pool's containment state
	// durable under this directory: quarantine decisions are journaled
	// on every audit-lane transition (each append individually fsynced)
	// and audit incidents land in a size-capped, rotated
	// incidents.jsonl spool there. A restarted pool pointed at the same
	// directory replays the journal before admitting work, so a
	// fingerprint quarantined before a crash is still refused after it.
	// Open failures do not fail NewPool — the pool runs without
	// durability and StateStatus reports the error; callers that
	// require durability must check it.
	StateDir string
	// MemoryWatermark, when positive, sheds admissions while the process
	// heap exceeds this many bytes.
	MemoryWatermark uint64
	// PlanCacheSize bounds the pool's prepared-plan cache: compiled
	// analysis plans (fingerprinted pair + verdict) are reused across
	// requests on the same schema, keyed by (schema fingerprint, pair
	// fingerprint). 0 selects the default (4096 plans); negative
	// disables reuse with a single-slot cache. The pool owns a private
	// cache so that an audit-lane quarantine purges exactly the plans
	// this pool built for the offending schema.
	PlanCacheSize int
	// TraceRing sizes the HTTP front end's ring of the slowest request
	// traces, served on GET /tracez (0 disables the ring). Per-request
	// traces — "trace": true in an analyze request — work either way.
	TraceRing int
}

// PoolStats snapshots the pool counters.
type PoolStats = server.Stats

// Pool is a concurrent analysis service: counted admission (a bounded
// number of analyses at once, each on its caller's goroutine, and load
// shedding instead of unbounded queueing),
// per-schema circuit breaking keyed on Schema.Fingerprint, per-request
// budget subdivision and panic isolation, and graceful drain. Every
// short-circuit path — shed, breaker open, drain — either errors or
// answers the conservative "not independent", so the soundness
// invariant of AnalyzeContext ("independent" is a proof) carries over
// to the serving layer unchanged.
type Pool struct {
	srv   *server.Server
	h     *server.Handler
	aud   *sentinel.Auditor
	reg   *quarantine.Registry
	plans *plan.Cache

	state    *server.DurableState
	stateErr error
}

// NewPool starts a pool. Callers must Close (or Shutdown) it to drain
// in-flight requests and release the audit lane and durable state.
func NewPool(o PoolOptions) *Pool {
	p := &Pool{}
	switch {
	case o.PlanCacheSize > 0:
		p.plans = plan.NewCache(o.PlanCacheSize)
	case o.PlanCacheSize < 0:
		p.plans = plan.NewCache(1)
	default:
		p.plans = plan.NewCache(plan.DefaultCacheSize)
	}
	cfg := server.Config{
		Workers:         o.Workers,
		QueueDepth:      o.QueueDepth,
		Limits:          o.Limits,
		RequestTimeout:  o.RequestTimeout,
		NoFallback:      o.NoFallback,
		DrainTimeout:    o.DrainTimeout,
		MemoryWatermark: o.MemoryWatermark,
		Plans:           p.plans,
		TraceRing:       o.TraceRing,
		Breaker: server.BreakerConfig{
			Threshold:  o.BreakerThreshold,
			Backoff:    o.BreakerBackoff,
			MaxBackoff: o.BreakerMaxBackoff,
			Jitter:     o.BreakerJitter,
			Seed:       o.BreakerSeed,
		},
	}
	if o.AuditRate > 0 || o.StateDir != "" {
		// The registry must exist whenever state is durable, even with
		// auditing off: restored quarantine decisions still have to
		// downgrade verdicts.
		p.reg = quarantine.NewRegistry(quarantine.Config{QuarantineAfter: o.QuarantineAfter})
		cfg.Quarantine = p.reg
	}
	if o.StateDir != "" {
		ds, err := server.OpenState(statefile.OS(), server.StateConfig{Dir: o.StateDir}, p.reg)
		if err != nil {
			p.stateErr = err
		} else {
			p.state = ds
			cfg.State = ds
		}
	}
	if o.AuditRate > 0 {
		spool := o.AuditSpool
		if p.state != nil {
			// Durable state owns the incident trail; an explicit
			// AuditSpool still receives a copy.
			spool = teeSpool{p.state.Spool(), o.AuditSpool}
		}
		p.aud = sentinel.New(sentinel.Config{
			SampleRate: o.AuditRate,
			Seed:       o.AuditSeed,
			Budget:     Limits{MaxNodes: o.AuditBudget, MaxChains: o.AuditBudget},
			Quarantine: p.reg,
			Spool:      spool,
			// The audit lane purges this pool's plan cache when it
			// quarantines a schema: cached verdicts for a fingerprint
			// under suspicion must not outlive the incident.
			Plans: p.plans,
		})
		cfg.Auditor = p.aud
	}
	p.srv = server.New(cfg)
	p.h = server.NewHandler(p.srv)
	return p
}

// Analyze runs one analysis through admission control and the pool,
// synchronously; semantics match Schema.AnalyzeContext plus the
// serving-layer outcomes (ErrOverloaded, ErrDraining, and conservative
// breaker verdicts carrying ErrCircuitOpen in the report's Err).
func (p *Pool) Analyze(ctx context.Context, s *Schema, q *Query, u *Update, m Method, opts Options) (Report, error) {
	r, err := p.srv.Do(ctx, server.Task{
		Analyzer:   s.a,
		Query:      q.ast,
		Update:     u.ast,
		Method:     m,
		Limits:     opts.Limits,
		NoFallback: opts.NoFallback,
		QueryText:  q.src,
		UpdateText: u.src,
	})
	if err != nil {
		return Report{}, err
	}
	return reportFromResult(r), nil
}

// Accepting reports whether the pool still admits work.
func (p *Pool) Accepting() bool { return p.srv.Accepting() }

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats { return p.srv.Stats() }

// BreakerState reports the schema's circuit-breaker state: "closed",
// "open" or "half-open".
func (p *Pool) BreakerState(s *Schema) string {
	return p.srv.BreakerState(s.Fingerprint())
}

// PlanCacheStats snapshots a prepared-plan cache: hit/miss/eviction
// counters, quarantine purges, verify failures, and the resident plan
// count per schema fingerprint. Pools expose it here and on /statz
// under "plan_cache".
type PlanCacheStats = plan.CacheStats

// PlanStats snapshots the pool's prepared-plan cache.
func (p *Pool) PlanStats() PlanCacheStats { return p.plans.Stats() }

// AuditStats snapshots the runtime verdict-audit counters; the zero
// value when auditing is disabled.
type AuditStats = sentinel.Stats

// QuarantineStats snapshots the schema-quarantine registry.
type QuarantineStats = quarantine.Stats

// Incident is one recorded audit disagreement or dirty retrial.
type Incident = sentinel.Incident

// ErrQuarantined marks a conservative verdict served because the
// schema's fingerprint is quarantined after an audit disagreement; it
// unwraps to ErrBudgetExceeded. Test a Report's Err with errors.Is.
var ErrQuarantined = quarantine.ErrQuarantined

// AuditStats reports the audit-lane counters (zero when AuditRate is
// 0) and the quarantine registry snapshot.
func (p *Pool) AuditStats() (AuditStats, QuarantineStats) {
	var a AuditStats
	if p.aud != nil {
		a = p.aud.Stats()
	}
	return a, p.reg.Stats()
}

// Flush blocks until every audit already handed to the audit lane has
// completed, so a following AuditStats or Incidents call observes them.
// Audits run asynchronously off the request path; without a Flush the
// counters are only eventually consistent. No-op when auditing is
// disabled.
func (p *Pool) Flush() {
	if p.aud != nil {
		p.aud.Flush()
	}
}

// Incidents returns the retained audit incidents, oldest first (empty
// when auditing is disabled; the ring is bounded — wire an AuditSpool
// for a complete trail).
func (p *Pool) Incidents() []Incident {
	if p.aud == nil {
		return nil
	}
	return p.aud.Incidents()
}

// DurabilityStatus summarises the durable-state layer: what boot
// recovery replayed (records recovered, torn tails discarded, snapshot
// health, fingerprints re-armed) and the live journal/spool counters.
// It is also the "durability" section of /statz.
type DurabilityStatus = server.DurabilityStatus

// StateStatus reports the durable-state summary. The error is non-nil
// exactly when PoolOptions.StateDir was set but the state directory
// could not be opened; the pool then serves WITHOUT durability, so
// callers that require it (the daemon does) should treat the error as
// fatal. With StateDir unset it returns the zero status and nil.
func (p *Pool) StateStatus() (DurabilityStatus, error) {
	if p.stateErr != nil {
		return DurabilityStatus{}, p.stateErr
	}
	return p.state.Status(), nil
}

// teeSpool routes audit incidents to the durable state spool and, when
// the caller also supplied an AuditSpool, a copy to it. Flush — probed
// by the audit lane's drain — reaches whichever writers support it.
type teeSpool struct {
	primary   io.Writer
	secondary io.Writer // may be nil
}

func (t teeSpool) Write(p []byte) (int, error) {
	n, err := t.primary.Write(p)
	if t.secondary != nil {
		if _, serr := t.secondary.Write(p); serr != nil && err == nil {
			err = serr
		}
	}
	return n, err
}

func (t teeSpool) Flush() error {
	var err error
	for _, w := range []io.Writer{t.primary, t.secondary} {
		if f, ok := w.(interface{ Flush() error }); ok {
			if ferr := f.Flush(); ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	return err
}

// QuarantineState reports the schema's quarantine state: "clean",
// "quarantined" or "half-open".
func (p *Pool) QuarantineState(s *Schema) string {
	if p.reg == nil {
		return "clean"
	}
	return p.reg.State(s.Fingerprint())
}

// Handler returns the pool's HTTP front end: POST /analyze plus the
// operations surface — GET /healthz, /readyz, /statz, /metricz
// (Prometheus text format), /tracez (slowest request traces) and
// /incidentz. See cmd/xqindepd and the README's "Operating xqindepd"
// section for the endpoint and metric reference.
func (p *Pool) Handler() http.Handler { return p.h }

// RunBatch runs the stdin line protocol over the pool: one analyze
// request JSON object per input line, one response object per output
// line. Requests without a schema inherit defaultSchema.
func (p *Pool) RunBatch(ctx context.Context, r io.Reader, w io.Writer, defaultSchema string) error {
	return server.RunBatch(ctx, p.h, r, w, defaultSchema)
}

// Shutdown gracefully drains the pool: admission stops immediately,
// in-flight work finishes until ctx expires, then is hard-cancelled.
// The audit lane drains after the requests under the same ctx — pending
// audits finish, a wedged one is hard-cancelled at the deadline rather
// than holding the exit hostage to its budget. Durable state is closed
// last (audits may journal quarantine transitions right up to their
// cancellation), flushing the incident spool and compacting the
// quarantine journal into a snapshot. The pool is fully stopped when
// Shutdown returns.
func (p *Pool) Shutdown(ctx context.Context) error {
	err := p.srv.Shutdown(ctx)
	if p.aud != nil {
		if aerr := p.aud.Shutdown(ctx); err == nil {
			err = aerr
		}
	}
	if serr := p.state.Close(); err == nil {
		err = serr
	}
	return err
}

// Close is Shutdown under the configured DrainTimeout.
func (p *Pool) Close() error {
	//xqvet:ignore ctxflow Close is the no-caller-context teardown API; its deadline is DrainTimeout
	ctx, cancel := context.WithTimeout(context.Background(), p.srv.Config().DrainTimeout)
	defer cancel()
	return p.Shutdown(ctx)
}

// Serve runs the pool's HTTP API on addr until ctx is cancelled, then
// performs a graceful drain: the listener stops, in-flight requests
// and analyses get drainTimeout to finish, stragglers are cancelled.
// It returns when both the HTTP server and the pool have stopped.
func Serve(ctx context.Context, addr string, p *Pool, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	hs := &http.Server{Addr: addr, Handler: p.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		p.Close()
		return err
	case <-ctx.Done():
	}
	//xqvet:ignore ctxflow drain runs after the serve context died; the drain deadline must outlive it
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the pool first so /readyz flips and in-flight analyses
	// finish, then close the HTTP side.
	perr := p.Shutdown(dctx)
	herr := hs.Shutdown(dctx)
	<-errc // ListenAndServe has returned http.ErrServerClosed
	if perr != nil {
		return perr
	}
	return herr
}

// reportFromResult converts an engine result to the public report.
// Witnesses is copied: a warm result shares its reasons with the
// resident plan, and a caller writing to the report must not reach it.
func reportFromResult(r core.Result) Report {
	return Report{
		Independent:   r.Independent,
		Method:        r.Method,
		K:             r.K,
		Witnesses:     slices.Clone(r.Witnesses),
		Elapsed:       r.Elapsed,
		Degraded:      r.Degraded,
		FallbackChain: r.FallbackChain,
		Err:           r.Err,
		Plan:          r.Plan,
	}
}
