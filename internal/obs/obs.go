// Package obs is the observability layer of the analysis service: a
// stdlib-only metrics registry (fixed-bucket histograms, counters and
// collected gauges rendered in the Prometheus text exposition format)
// and a per-request span tracer hung off the context, fired at the
// same phase boundaries the fault-injection points already mark.
//
// The design constraints:
//
//   - No allocation when off. A request served without a trace
//     carries none in its context: each phase point costs it two
//     context lookups in package guard and allocates nothing, as
//     TestGuardHookMarks pins.
//
//   - Cheap when on. Counter.Inc and Histogram.Observe are single
//     atomic adds (the histogram adds a short linear scan over its
//     bucket bounds) — safe for concurrent use from every worker, no
//     allocation, no locks. Tracing does allocate (spans are data),
//     but only on requests that asked for it or when the server keeps
//     a slow-trace ring; the recorder itself comes from a pool
//     (NewTrace) and goes back to it (Trace.Release).
//
//   - Injectable time. Every wall-clock read goes through a caller
//     supplied clock, so handler tests freeze it and golden outputs
//     are deterministic; the xqvet clockinject check enforces this for
//     the package.
//
// The pieces: Registry (metrics.go of the server registers its
// families here and /metricz renders it), Trace (a bounded span
// recorder; spans come from explicit Start/End instrumentation in the
// serving and core layers, marks from the guard phase points fired
// under a context the trace rides as its guard.Tracer), and SlowRing
// (a bounded ring of the slowest finished traces, served on /tracez).
package obs

import (
	"context"

	"xqindep/internal/guard"
)

// NewContext returns ctx carrying the trace as its guard.Tracer, so
// every phase point fired under it becomes a mark. Engine code
// retrieves it with FromContext; everything between (the pool queue,
// the budget) forwards the context unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return guard.WithTracer(ctx, t)
}

// FromContext returns the trace carried by ctx, or nil. All Trace
// methods are nil-safe, so call sites never branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := guard.TracerOf(ctx).(*Trace)
	return t
}
