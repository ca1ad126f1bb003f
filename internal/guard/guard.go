// Package guard provides the resource-budget and panic-safety
// substrate of the analysis engine. A single pathological input — a
// deeply recursive schema driving the exponential explicit-set engine,
// a hostile AST, an adversarial parse — must never crash or wedge the
// process. The package offers three tools:
//
//   - Limits and Budget: a per-analysis resource budget (wall-clock
//     deadline and cancellation via context.Context, maximum
//     multiplicity k, maximum chain-set cardinality, maximum CDAG
//     growth) with a cheap Tick()/Check() API that engine hot loops
//     call cooperatively. The parsers are bounded separately, by the
//     fixed DefaultMaxParseDepth and DefaultMaxParseInput, because
//     they run before any analysis and its Limits exist.
//
//   - Abort-by-panic with a typed sentinel: hot loops must stay free
//     of error plumbing, so Tick and the Add* counters abort by
//     panicking with an internal marker that Recover translates back
//     into the budget error at the engine boundary (the idiom of
//     encoding/json and text/template).
//
//   - Recover: the panic-to-error boundary. Any other panic escaping
//     an internal package is converted into a *InternalError carrying
//     the recovered value and stack, so callers see a diagnosable
//     error instead of a crashed process.
//
// Budget errors satisfy errors.Is(err, ErrBudgetExceeded); the caller
// (package core) reacts by descending a sound degradation ladder. A
// cancelled context is deliberately NOT a budget error: cancellation
// means the caller no longer wants any verdict, so context.Canceled
// propagates unchanged.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is the sentinel matched by errors.Is for every
// limit violation (deadline, k, chains, nodes).
var ErrBudgetExceeded = errors.New("analysis budget exceeded")

// Chaos sentinels. A fault hook can only return an error or panic —
// it cannot reach into engine state — so the corrupt-artifact and
// flip-verdict fault kinds (package faultinject) signal their effect
// with these sentinels, which core interprets at the matching fault
// points ("core.artifact", "core.verdict") and converts into the
// actual corruption/flip. They never escape the analysis entry points;
// the sentinel audit layer exists to prove the damage they cause is
// contained.
var (
	// ErrArtifactCorrupt instructs core to run the analysis on a
	// deterministically corrupted copy of the compiled schema artifact.
	ErrArtifactCorrupt = errors.New("faultinject: corrupt compiled artifact")
	// ErrVerdictFlip instructs core to flip the rung verdict it is
	// about to return — simulating an unsound engine edge case.
	ErrVerdictFlip = errors.New("faultinject: flip verdict")
)

// Limits bounds one analysis. The zero value of each field means "use
// the package default" (see DefaultLimits); set a field to NoLimit to
// disable that bound entirely.
type Limits struct {
	// MaxK bounds the multiplicity k = kq + ku of the finite chain
	// analysis; pairs requiring a larger k exceed the budget.
	MaxK int
	// MaxChains bounds the number of chains materialised by the
	// explicit-set engine (and pattern count of the path baseline).
	MaxChains int
	// MaxNodes bounds graph growth: CDAG edge insertions in the
	// polynomial engine.
	MaxNodes int
}

// NoLimit disables an individual bound.
const NoLimit = int(^uint(0) >> 1) // MaxInt

// Default limit values. They are deliberately generous: ordinary
// analyses stay far below them, while degenerate inputs hit them long
// before exhausting memory. Every parser enforces DefaultMaxParseDepth
// (nesting) and DefaultMaxParseInput (bytes) as fixed bounds; the XML
// document parser also caps a tree at DefaultMaxNodes nodes.
const (
	DefaultMaxK          = 64
	DefaultMaxChains     = 1 << 18
	DefaultMaxNodes      = 1 << 22
	DefaultMaxParseDepth = 512
	DefaultMaxParseInput = 8 << 20
)

// DefaultLimits returns the default budget.
func DefaultLimits() Limits {
	return Limits{
		MaxK:      DefaultMaxK,
		MaxChains: DefaultMaxChains,
		MaxNodes:  DefaultMaxNodes,
	}
}

// OrDefaults replaces every zero field with its default value.
func (l Limits) OrDefaults() Limits {
	d := DefaultLimits()
	if l.MaxK == 0 {
		l.MaxK = d.MaxK
	}
	if l.MaxChains == 0 {
		l.MaxChains = d.MaxChains
	}
	if l.MaxNodes == 0 {
		l.MaxNodes = d.MaxNodes
	}
	return l
}

// AdmitsK reports whether the multiplicity k is within MaxK, a zero
// MaxK taking its default.
func (l Limits) AdmitsK(k int) bool {
	return k <= l.OrDefaults().MaxK
}

// Subdivide returns the per-share limits for splitting this budget
// across n concurrent consumers (a serving pool's workers): the
// cumulative resources — chain and node counts — are divided by n,
// while the structural bound k, which describes a single input rather
// than aggregate consumption, carries over unchanged. Zero fields are
// defaulted first so the division is well defined; NoLimit stays
// NoLimit; every share keeps at least a minimal usable budget.
func (l Limits) Subdivide(n int) Limits {
	if n <= 1 {
		return l.OrDefaults()
	}
	l = l.OrDefaults()
	div := func(v int) int {
		if v == NoLimit {
			return NoLimit
		}
		v /= n
		if v < 1 {
			v = 1
		}
		return v
	}
	l.MaxChains = div(l.MaxChains)
	l.MaxNodes = div(l.MaxNodes)
	return l
}

// LimitError reports which bound was violated; it unwraps to
// ErrBudgetExceeded.
type LimitError struct {
	// Resource names the exhausted bound: "deadline", "k", "chains"
	// or "nodes".
	Resource string
	// Limit is the configured bound (0 when not applicable, e.g. for
	// the deadline).
	Limit int
}

func (e *LimitError) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("guard: %s limit %d exceeded: %v", e.Resource, e.Limit, ErrBudgetExceeded)
	}
	return fmt.Sprintf("guard: %s exceeded: %v", e.Resource, ErrBudgetExceeded)
}

func (e *LimitError) Unwrap() error { return ErrBudgetExceeded }

// InternalError wraps a panic recovered at the engine boundary: an
// internal invariant was violated (or a hostile AST reached an
// impossible case). The stack identifies the faulty package without
// taking the process down.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("guard: internal error (recovered panic): %v", e.Value)
}

// Budget tracks consumption against Limits for one analysis run. A
// nil *Budget is valid and unlimited, so call sites never need to
// branch. Budgets are not safe for concurrent use; every analysis
// runs on one goroutine.
type Budget struct {
	ctx    context.Context
	lim    Limits
	nodes  int
	chains int
	ticks  uint
}

// tickStride is how many Ticks pass between context checks; ctx.Err
// costs an atomic load plus a mutex in the worst case, so hot loops
// amortise it.
const tickStride = 1 << 10

// New builds a budget enforcing lim (zero fields defaulted) under
// ctx. A nil ctx means context.Background().
func New(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Budget{ctx: ctx, lim: lim.OrDefaults()}
}

// Context returns the budget's context (Background for a nil budget).
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Tick is the cooperative checkpoint for hot loops: roughly every
// tickStride calls it checks the deadline/cancellation and aborts by
// panicking with the budget error (translated back by Recover). The
// common path is one increment and one branch.
func (b *Budget) Tick() {
	if b == nil {
		return
	}
	b.ticks++
	if b.ticks%tickStride != 0 {
		return
	}
	if err := b.ctxErr(); err != nil {
		Abort(err)
	}
}

// Check is the non-panicking checkpoint for error-returning code: it
// reports the deadline/cancellation state without aborting.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	return b.ctxErr()
}

// ctxErr translates the context state: a missed deadline is a budget
// error (the ladder may still degrade), explicit cancellation
// propagates as context.Canceled. The deadline is also read against
// the clock: ctx learns of it from a runtime timer, which fires up to
// a millisecond late when no goroutine is waiting to run, and a cold
// XMark chain analysis often takes less than that.
func (b *Budget) ctxErr() error {
	if err := b.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return &LimitError{Resource: "deadline"}
		}
		return err
	}
	if dl, ok := b.ctx.Deadline(); ok && !time.Now().Before(dl) {
		return &LimitError{Resource: "deadline"}
	}
	return nil
}

// AddNodes charges n units of graph growth (CDAG edges, tree nodes)
// and aborts when the node budget is exhausted.
func (b *Budget) AddNodes(n int) {
	if b == nil {
		return
	}
	b.nodes += n
	if b.nodes > b.lim.MaxNodes {
		Abort(&LimitError{Resource: "nodes", Limit: b.lim.MaxNodes})
	}
	b.Tick()
}

// AddChains charges n materialised chains (or path patterns) and
// aborts when the chain budget is exhausted.
func (b *Budget) AddChains(n int) {
	if b == nil {
		return
	}
	b.chains += n
	if b.chains > b.lim.MaxChains {
		Abort(&LimitError{Resource: "chains", Limit: b.lim.MaxChains})
	}
	b.Tick()
}

// Nodes returns the graph-growth units charged so far.
func (b *Budget) Nodes() int {
	if b == nil {
		return 0
	}
	return b.nodes
}

// Chains returns the chains charged so far.
func (b *Budget) Chains() int {
	if b == nil {
		return 0
	}
	return b.chains
}

// CheckK reports a budget error when the multiplicity k exceeds the
// bound; the caller decides before starting a chain analysis.
func (b *Budget) CheckK(k int) error {
	if b == nil || b.lim.AdmitsK(k) {
		return nil
	}
	return &LimitError{Resource: "k", Limit: b.lim.MaxK}
}

// Fault and trace hooks. The analysis engines mark their phase
// boundaries — chain inference, CDAG construction, conflict check,
// parsing — by calling Point or Phase (inside budgeted code) or
// FirePoint (outside it). In production with both hooks absent a
// point costs two nil atomic loads; the faultinject package installs
// the fault hook during chaos testing to deterministically turn named
// points into injected budget exhaustion, errors, or panics, and the
// obs package installs the trace hook (once, on first trace) to turn
// the same points into per-request phase marks.

// FaultHook inspects a named point under the given context and
// returns a non-nil error to make the point fail.
type FaultHook func(ctx context.Context, point string) error

// TraceHook observes a named point under the given context — the
// observability twin of FaultHook, fired at the same boundaries just
// before the fault hook so a trace records the phase even when a
// fault then kills it. nodes and chains snapshot the firing budget's
// consumption (zero at points outside budgeted code). The hook must
// not panic and must be cheap: it runs on the analysis hot path.
type TraceHook func(ctx context.Context, point string, nodes, chains int)

var (
	faultHook atomic.Pointer[FaultHook]
	traceHook atomic.Pointer[TraceHook]
)

// SetTraceHook installs (or, with nil, removes) the process-wide
// trace hook. Package obs installs it once, lazily, when the first
// trace is created; until then — and forever on processes that never
// trace — every point pays exactly one nil atomic load for it.
func SetTraceHook(h TraceHook) {
	if h == nil {
		traceHook.Store(nil)
		return
	}
	traceHook.Store(&h)
}

// SetFaultHook installs (or, with nil, removes) the process-wide
// fault hook. Only test harnesses should call this.
func SetFaultHook(h FaultHook) {
	if h == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&h)
}

// FirePoint consults the fault hook for a named point; it returns nil
// when no hook is installed or the hook lets the point pass. For a
// hook-injected panic the panic propagates (callers sit behind a
// Recover boundary or isolate it themselves).
func FirePoint(ctx context.Context, point string) error {
	if th := traceHook.Load(); th != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		(*th)(ctx, point, 0, 0)
	}
	h := faultHook.Load()
	if h == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return (*h)(ctx, point)
}

// Point marks a phase boundary inside budgeted engine code: a
// hook-injected error aborts the analysis exactly like a budget
// overrun (translated back by Recover at the engine boundary).
func (b *Budget) Point(name string) {
	if th := traceHook.Load(); th != nil {
		(*th)(b.Context(), name, b.Nodes(), b.Chains())
	}
	h := faultHook.Load()
	if h == nil {
		return
	}
	if err := (*h)(b.Context(), name); err != nil {
		Abort(err)
	}
}

// Phase is Point at the start of an engine phase, followed by a
// deadline and cancellation check that aborts like Tick's. Tick reads
// the context only every tickStride ticks, so an analysis shorter than
// a stride would otherwise run past its deadline to a full verdict.
// The ladder's rung entry and the cheap baselines mark their points
// with Point, so a rung that follows a missed deadline still answers.
func (b *Budget) Phase(name string) {
	b.Point(name)
	if err := b.Check(); err != nil {
		Abort(err)
	}
}

// abort is the typed panic payload distinguishing budget aborts from
// genuine engine panics.
type abort struct{ err error }

// Abort unwinds to the nearest Recover, which returns err from the
// enclosing function. Only budget-style control flow should use it.
func Abort(err error) { panic(&abort{err: err}) }

// Recover is the engine boundary: deferred as
//
//	defer guard.Recover(&err)
//
// it translates an Abort back into its error and converts any other
// panic into a *InternalError with the captured stack. A panic that
// already carries a *InternalError — the typed form every defensive
// "impossible case" panic in the analyzer packages uses — passes
// through unwrapped. With no panic in flight it does nothing.
func Recover(errp *error) {
	switch r := recover().(type) {
	case nil:
	case *abort:
		*errp = r.err
	case *InternalError:
		if r.Stack == nil {
			r.Stack = debug.Stack()
		}
		*errp = r
	default:
		*errp = &InternalError{Value: r, Stack: debug.Stack()}
	}
}

// OnPanic is the goroutine entry boundary: deferred first in a
// goroutine body,
//
//	defer guard.OnPanic(func(e *guard.InternalError) { ... })
//
// it stops an escaping panic from killing the process, handing the
// translated *InternalError to f instead. A budget Abort is
// re-panicked: aborts belong to a Recover boundary inside the
// analysis, and swallowing one here would hide a missing boundary.
func OnPanic(f func(*InternalError)) {
	switch r := recover().(type) {
	case nil:
	case *abort:
		panic(r)
	case *InternalError:
		if r.Stack == nil {
			r.Stack = debug.Stack()
		}
		f(r)
	default:
		f(&InternalError{Value: r, Stack: debug.Stack()})
	}
}

// Do runs f under a Recover boundary and returns the translated
// error; a convenience for call sites outside package core (the
// experiments driver, fuzz harnesses).
func Do(f func()) (err error) {
	defer Recover(&err)
	f()
	return nil
}
