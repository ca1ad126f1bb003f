// Package server is the fault-tolerant serving layer above the
// per-call analysis engine: PR 1 made a single AnalyzeContext call
// budgeted, cancellable and panic-safe; this package makes *many
// concurrent* calls safe to operate as an always-on service in front
// of an update stream.
//
// The design is defense in depth, outermost first:
//
//   - Admission control: a counted admission. At most
//     Workers+QueueDepth requests are admitted at once and at most
//     Workers of them analyse; the others wait for a run slot. Past
//     that bound a request is shed immediately with ErrOverloaded —
//     the server never queues unboundedly, so latency stays bounded
//     under bursty load and memory under pathological load. Every
//     request runs on its caller's goroutine, so a caller that gives
//     up while waiting frees its place at once.
//
//   - Budget subdivision: the pool-wide guard.Limits are subdivided
//     across the Workers run slots (guard.Limits.Subdivide), so W
//     concurrent pathological analyses cannot multiply resource
//     consumption W times past what the operator configured for the
//     whole process. Per-request limits are clamped to the per-slot
//     share.
//
//   - Circuit breaking: repeated budget blowups on the same schema
//     (keyed by dtd.Fingerprint) open a per-schema breaker. While
//     open, requests for that schema get an immediate *conservative
//     degraded* verdict — "not independent", which is always sound —
//     instead of burning a run slot on an analysis that keeps failing.
//     After a jittered exponential backoff the breaker goes half-open
//     and admits one probe; success closes it, failure re-opens it
//     with a doubled backoff.
//
//   - Panic isolation: the engine already converts panics to
//     *guard.InternalError; Do adds one boundary around the serving
//     glue, so even a bug there takes down one request, not the
//     process.
//
//   - Graceful drain: Shutdown stops admission, lets in-flight
//     (waiting and running) requests finish until the deadline, then
//     hard-cancels the remainder. Every analysis observes cancellation
//     cooperatively, so drain always terminates.
//
// The soundness invariant of the degradation ladder — a verdict of
// "independent" is a proof, under any budget, fault or overload — is
// preserved by construction: every short-circuit path (shed, breaker
// open, drain, cancellation) answers either an error or the
// conservative "not independent". The chaos suite drives randomized
// fault schedules (package faultinject) through this layer and
// cross-checks against the dynamic oracle to enforce exactly that.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xqindep/internal/core"
	"xqindep/internal/guard"
	"xqindep/internal/obs"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/sentinel"
	"xqindep/internal/xquery"
)

// Sentinel errors of the serving layer.
var (
	// ErrOverloaded: Workers+QueueDepth requests are already admitted;
	// the request was shed without waiting. Retry with backoff.
	ErrOverloaded = errors.New("server: overloaded, request shed")
	// ErrDraining: the server is shutting down and no longer admits.
	ErrDraining = errors.New("server: draining, not admitting")
	// ErrClosed: the server has fully shut down.
	ErrClosed = errors.New("server: closed")
)

// ErrCircuitOpen marks a conservative verdict served because the
// schema's circuit breaker is open. It unwraps to ErrBudgetExceeded:
// an open breaker is the memory of recent budget blowups, so callers
// (and the Degraded/Err reporting contract) treat it as one.
var ErrCircuitOpen = fmt.Errorf("server: circuit breaker open: %w", guard.ErrBudgetExceeded)

// Config tunes the serving layer. The zero value of every field
// selects a sensible default.
type Config struct {
	// Workers bounds the analyses that run at once (default
	// GOMAXPROCS). Each runs on its caller's goroutine, holding one of
	// Workers run slots.
	Workers int
	// QueueDepth bounds the admitted requests that wait for a run slot
	// (default 2×Workers). Admissions beyond Workers+QueueDepth are
	// shed with ErrOverloaded.
	QueueDepth int
	// Limits is the pool-wide resource budget; it is subdivided across
	// the run slots and each request runs under its share (zero fields
	// take guard defaults before subdividing).
	Limits guard.Limits
	// RequestTimeout bounds one analysis' wall-clock time once it holds
	// a run slot (zero or negative selects the default, 5s). Like a
	// caller deadline, it degrades the verdict when it passes
	// mid-analysis.
	RequestTimeout time.Duration
	// NoFallback disables the degradation ladder pool-wide.
	NoFallback bool
	// Breaker configures the per-schema circuit breakers.
	Breaker BreakerConfig
	// DrainTimeout bounds Close's graceful drain (default 10s).
	DrainTimeout time.Duration
	// Auditor, when non-nil, receives every completed analysis for
	// sampling and runtime re-verification (package sentinel). The pool
	// never waits on it: Observe is a bounded non-blocking enqueue.
	Auditor *sentinel.Auditor
	// Quarantine is the containment registry threaded into every
	// analysis; nil downgrades nothing. Wire the same registry here and
	// into the Auditor.
	Quarantine *quarantine.Registry
	// Plans is the prepared-plan cache threaded into every analysis
	// (see internal/plan): the CDAG chain rung resolves repeated
	// logical pairs to one cached artifact, so steady-state traffic
	// serves warm plans. Nil gives the server a cache of its own,
	// plan.DefaultCacheSize plans. Wire the same cache here and into
	// the sentinel so quarantine containment purges it.
	Plans *plan.Cache
	// MemoryWatermark, when positive, sheds admissions with
	// ErrOverloaded while the process heap (per MemoryUsage) exceeds
	// this many bytes — a soft limit in the spirit of
	// runtime/debug.SetMemoryLimit that keeps audit buffers and
	// waiting requests from OOMing the daemon.
	MemoryWatermark uint64
	// MemoryUsage reads current heap usage for the watermark check;
	// nil selects a runtime.ReadMemStats-based reader. Injectable for
	// tests.
	MemoryUsage func() uint64
	// State, when non-nil, is the durable runtime state (quarantine
	// state file + incident spool). The server flushes its spool during
	// drain and reports it under /statz.
	State *DurableState
	// TraceRing sizes the handler's ring of slowest request traces
	// (served on /tracez). Zero disables the ring; per-request traces
	// (AnalyzeRequest.Trace) work either way.
	TraceRing int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	c.Breaker = c.Breaker.withDefaults()
	if c.Plans == nil {
		c.Plans = plan.NewCache(plan.DefaultCacheSize)
	}
	if c.MemoryUsage == nil {
		c.MemoryUsage = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	return c
}

// Task is one independence question.
type Task struct {
	// Analyzer wraps the schema; callers reuse one per schema (it is
	// safe for concurrent use).
	Analyzer *core.Analyzer
	// Query and Update are the prepared pair (xquery.PrepareQuery,
	// PrepareUpdate). They are only read, so one pair may serve many
	// tasks at once; their texts go into audit incident records.
	Query  *xquery.PreparedQuery
	Update *xquery.PreparedUpdate
	// Method is the requested analysis technique.
	Method core.Method
	// Limits optionally tightens the per-request budget; fields are
	// clamped to the pool's per-slot share (zero = use the share).
	Limits guard.Limits
	// NoFallback disables the degradation ladder for this request.
	NoFallback bool
}

// Stats is a snapshot of the server counters.
type Stats struct {
	Admitted        uint64 // requests that took an admission place
	Shed            uint64 // rejected with ErrOverloaded
	MemShed         uint64 // of Shed: rejected by the memory watermark
	Rejected        uint64 // rejected with ErrDraining/ErrClosed
	Completed       uint64 // analyses finished (any outcome)
	Degraded        uint64 // completed with a degraded verdict
	Failed          uint64 // completed with an error
	Panics          uint64 // *guard.InternalError outcomes
	BreakerRejected uint64 // served conservatively, breaker open
	BreakerTrips    uint64 // closed/half-open → open transitions
	BreakerProbes   uint64 // half-open probes admitted
	InFlight        int64  // admitted but not yet completed
}

type serverState int32

const (
	stateAccepting serverState = iota
	stateDraining
	stateClosed
)

// Server is the concurrent analysis service.
type Server struct {
	cfg   Config
	share guard.Limits // per-slot subdivision of cfg.Limits
	// places and slots are counting semaphores: places holds one token
	// per admitted request (Workers+QueueDepth), slots one per running
	// analysis (Workers).
	places, slots chan struct{}
	breakers      *breakerSet
	// admitMu serializes admission against shutdown: Do takes its place
	// and joins the in-flight group under the read lock, Shutdown flips
	// the state under the write lock, so once Shutdown observes the
	// state change no inflight.Add can race its inflight.Wait.
	admitMu  sync.RWMutex
	state    atomic.Int32
	baseCtx  context.Context
	cancel   context.CancelFunc
	inflight sync.WaitGroup

	admitted, shed, rejected    atomic.Uint64
	memShed                     atomic.Uint64
	completed, degraded, failed atomic.Uint64
	panics                      atomic.Uint64

	shutdownOnce sync.Once
	shutdownErr  error
	closed       chan struct{}
	// drainUntil is the drain deadline (unix nanos; 0 before Shutdown),
	// the basis of Retry-After hints on 503 responses.
	drainUntil atomic.Int64
}

// New returns a server that admits requests.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	//xqvet:ignore ctxflow server root context: request contexts arrive via Do, teardown cancels this one
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		share:    cfg.Limits.Subdivide(cfg.Workers),
		places:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots:    make(chan struct{}, cfg.Workers),
		breakers: newBreakerSet(cfg.Breaker),
		baseCtx:  ctx,
		cancel:   cancel,
		closed:   make(chan struct{}),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Accepting reports whether new work is admitted.
func (s *Server) Accepting() bool {
	return serverState(s.state.Load()) == stateAccepting
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	bs := s.breakers.snapshot()
	return Stats{
		Admitted:        s.admitted.Load(),
		Shed:            s.shed.Load(),
		MemShed:         s.memShed.Load(),
		Rejected:        s.rejected.Load(),
		Completed:       s.completed.Load(),
		Degraded:        s.degraded.Load(),
		Failed:          s.failed.Load(),
		Panics:          s.panics.Load(),
		BreakerRejected: bs.rejected,
		BreakerTrips:    bs.trips,
		BreakerProbes:   bs.probes,
		InFlight:        int64(len(s.places)),
	}
}

// BreakerState reports the breaker state for a schema fingerprint
// ("closed", "open" or "half-open").
func (s *Server) BreakerState(fingerprint string) string {
	return s.breakers.stateOf(fingerprint)
}

// conservative builds the sound immediate verdict served when the
// breaker is open: "not independent" can never be wrong.
func conservative(reason string, err error) core.Result {
	return core.Result{
		Independent:   false,
		Method:        core.MethodConservative,
		Degraded:      true,
		FallbackChain: []core.Method{core.MethodConservative},
		Witnesses:     []string{reason},
		Err:           err,
	}
}

// Do runs one task through admission control and then on the
// caller's goroutine, synchronously. It returns:
//
//   - the analysis result (possibly degraded, per the engine's ladder:
//     a ctx deadline that passes mid-analysis degrades the verdict, as
//     in core.Analyzer.AnalyzeContext);
//   - a conservative degraded result with Err == ErrCircuitOpen when
//     the schema's breaker is open;
//   - ErrOverloaded when Workers+QueueDepth requests are already
//     admitted, ErrDraining/ErrClosed during shutdown;
//   - ctx's error when the caller gives up before the analysis starts
//     or cancels it, and context.Canceled when a drain hard-cancels
//     the request.
func (s *Server) Do(ctx context.Context, t Task) (core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.Analyzer == nil || t.Analyzer.D == nil {
		return core.Result{}, fmt.Errorf("server: task without analyzer")
	}
	fp := t.Analyzer.D.Fingerprint()
	admitted, probe, err := s.admit(fp)
	if err != nil {
		return core.Result{}, err
	}
	if !admitted {
		return conservative("circuit breaker open for this schema; conservatively assuming dependence", ErrCircuitOpen), nil
	}
	defer func() {
		<-s.places
		s.inflight.Done()
	}()
	// A chains request whose plan is resident is answered here, without
	// a run slot; Resident declines a request that injects faults.
	opts := s.options(t)
	err = ctx.Err()
	if err == nil && t.Method == core.MethodChains {
		res, hit, herr := s.settle(ctx, t, fp, probe, func() (core.Result, bool, error) {
			res, ok := t.Analyzer.Resident(ctx, t.Query, t.Update, opts)
			return res, ok, nil
		})
		if hit {
			return res, herr
		}
	}
	// Wait for a run slot. A caller that gives up first leaves at once,
	// without running the analysis or signalling the breaker.
	if err == nil {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
			return s.process(ctx, t, opts, fp, probe)
		case <-ctx.Done():
			err = ctx.Err()
		case <-s.baseCtx.Done():
			err = context.Canceled
		}
	}
	if probe {
		s.breakers.record(fp, outcomeNeutral, true)
	}
	return core.Result{}, err
}

// admit runs admission control under the read lock: state check,
// memory watermark, breaker check, and one of Workers+QueueDepth
// places taken without blocking. admitted is false, with a nil error,
// for a breaker-rejected request (served conservatively by the caller).
func (s *Server) admit(fp string) (admitted, probe bool, err error) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	switch serverState(s.state.Load()) {
	case stateDraining:
		s.rejected.Add(1)
		return false, false, ErrDraining
	case stateClosed:
		s.rejected.Add(1)
		return false, false, ErrClosed
	}
	if s.cfg.MemoryWatermark > 0 && s.cfg.MemoryUsage() > s.cfg.MemoryWatermark {
		// Soft memory watermark exceeded: shed before taking a place,
		// so waiting requests and audit buffers stop growing while the
		// heap is hot.
		s.memShed.Add(1)
		s.shed.Add(1)
		return false, false, ErrOverloaded
	}
	admit, probe := s.breakers.allow(fp)
	if !admit {
		return false, false, nil
	}
	select {
	case s.places <- struct{}{}:
		s.inflight.Add(1)
		s.admitted.Add(1)
		return true, probe, nil
	default:
		if probe {
			s.breakers.record(fp, outcomeNeutral, true)
		}
		s.shed.Add(1)
		return false, false, ErrOverloaded
	}
}

// clamp bounds the per-request limits by the per-slot share: a
// request may tighten its budget but never exceed the pool's
// subdivision.
func clamp(req, share guard.Limits) guard.Limits {
	req = req.OrDefaults()
	return guard.Limits{
		MaxK:      min(req.MaxK, share.MaxK),
		MaxChains: min(req.MaxChains, share.MaxChains),
		MaxNodes:  min(req.MaxNodes, share.MaxNodes),
	}
}

// options are the core options t runs under: its limits clamped to
// the per-slot share, and the pool's fallback, quarantine and plans.
func (s *Server) options(t Task) core.Options {
	return core.Options{
		Limits:     clamp(t.Limits, s.share),
		NoFallback: t.NoFallback || s.cfg.NoFallback,
		Quarantine: s.cfg.Quarantine,
		Plans:      s.cfg.Plans,
	}
}

// process runs one admitted task that holds a run slot through the
// ladder, under settle. One context bounds the analysis:
// RequestTimeout is its deadline, and a hard drain cancels it when the
// server's base context dies.
func (s *Server) process(ctx context.Context, t Task, opts core.Options, fp string, probe bool) (core.Result, error) {
	res, _, err := s.settle(ctx, t, fp, probe, func() (core.Result, bool, error) {
		actx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
		res, err := t.Analyzer.AnalyzePrepared(actx, t.Query, t.Update, t.Method, opts)
		return res, true, err
	})
	return res, err
}

// settle runs analyze, which answers an admitted task or declines it
// (ok false), and accounts for an answer: it counts it in Stats, feeds
// its outcome to the schema's breaker and hands a verdict to the
// auditor. A declined task is not accounted for. settle is the
// request's one panic boundary, on the hit path and the ladder alike:
// the engine converts its own panics to errors, so a panic landing
// here is a bug in the serving glue — it is confined to this request,
// returned as *guard.InternalError and counted in Stats.Panics.
func (s *Server) settle(ctx context.Context, t Task, fp string, probe bool, analyze func() (core.Result, bool, error)) (res core.Result, ok bool, err error) {
	defer guard.OnPanic(func(ie *guard.InternalError) {
		s.panics.Add(1)
		res, ok, err = core.Result{}, true, ie
	})
	// Every answer reaches the breaker, one that panics before it is
	// classified as a blowup, so a half-open probe is always released.
	outcome := outcomeBlowup
	declined := false
	defer func() {
		if !declined {
			s.breakers.record(fp, outcome, probe)
		}
	}()

	if res, ok, err = analyze(); !ok {
		declined = true
		return res, ok, err
	}

	s.completed.Add(1)
	outcome = outcomeOK
	switch {
	case err != nil:
		s.failed.Add(1)
		var ie *guard.InternalError
		switch {
		case errors.As(err, &ie):
			s.panics.Add(1)
			outcome = outcomeBlowup
		case errors.Is(err, guard.ErrBudgetExceeded):
			outcome = outcomeBlowup
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Caller-driven cancellation says nothing about the schema.
			outcome = outcomeNeutral
		default:
			// Malformed input etc.: not a resource blowup.
			outcome = outcomeNeutral
		}
	case res.Degraded:
		s.degraded.Add(1)
		if quarantine.IsQuarantined(res.Err) {
			// A quarantine downgrade is containment working as designed,
			// not a resource blowup on this schema: feeding it to the
			// breaker would conflate the two state machines and trap the
			// schema in the breaker long after the quarantine recovers.
			outcome = outcomeNeutral
		} else {
			outcome = outcomeBlowup
		}
	}

	if s.cfg.Auditor != nil && err == nil {
		obs.FromContext(ctx).Mark("audit.observe", 0, 0)
		var sched string
		if in, ok := guard.InjectorOf(ctx).(fmt.Stringer); ok {
			sched = in.String()
		}
		s.cfg.Auditor.Observe(sentinel.Observation{
			D:             t.Analyzer.D,
			Query:         t.Query,
			Update:        t.Update,
			Result:        res,
			FaultSchedule: sched,
		})
	}
	return res, true, err
}

// Shutdown gracefully drains the server: admission stops immediately,
// waiting and running requests continue until they finish or ctx
// expires, at which point the remaining ones are hard-cancelled (they
// observe cancellation cooperatively and return promptly). Shutdown
// returns nil when the drain completed before the deadline and
// ctx.Err() otherwise; either way every admitted request has returned
// when it does. Subsequent calls return the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		if dl, ok := ctx.Deadline(); ok {
			s.drainUntil.Store(dl.UnixNano())
		} else {
			// Deadline-free drain: advertise the configured DrainTimeout
			// as a relative hint (negative marker keeps the field free of
			// wall-clock reads).
			s.drainUntil.Store(-int64(s.cfg.DrainTimeout))
		}
		s.admitMu.Lock()
		s.state.Store(int32(stateDraining))
		s.admitMu.Unlock()
		drained := make(chan struct{})
		go func() {
			// drained must close even if Wait panics (which would mean
			// WaitGroup misuse — a server bug): Shutdown would
			// otherwise hang on a channel nobody can close.
			defer close(drained)
			defer guard.OnPanic(func(*guard.InternalError) { s.panics.Add(1) })
			s.inflight.Wait()
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
			s.cancel() // hard-cancel in-flight requests
			<-drained  // cancellation is cooperative, so this terminates
		}
		s.cancel()
		// Drain-time spool flush, after the last admitted request has
		// returned (every quarantine transition is durable already).
		if s.cfg.State != nil {
			if err := s.cfg.State.Drain(); err != nil && s.shutdownErr == nil {
				s.shutdownErr = err
			}
		}
		s.state.Store(int32(stateClosed))
		close(s.closed)
	})
	<-s.closed
	return s.shutdownErr
}

// drainHint reports the suggested client Retry-After at now while the
// server is draining or closed: the remaining drain window once
// Shutdown has begun, the configured DrainTimeout before that, and a
// floor of one second so clients never busy-loop on an expired
// deadline.
func (s *Server) drainHint(now time.Time) time.Duration {
	v := s.drainUntil.Load()
	switch {
	case v == 0:
		return s.cfg.DrainTimeout
	case v < 0:
		return time.Duration(-v)
	default:
		if d := time.Unix(0, v).Sub(now); d > time.Second {
			return d
		}
		return time.Second
	}
}

// Close shuts down with the configured DrainTimeout.
func (s *Server) Close() error {
	//xqvet:ignore ctxflow Close is the no-caller-context teardown API; its deadline is DrainTimeout
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}
