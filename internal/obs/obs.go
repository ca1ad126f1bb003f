// Package obs is the observability layer of the analysis service: a
// stdlib-only metrics registry (fixed-bucket histograms, counters and
// collected gauges rendered in the Prometheus text exposition format)
// and a per-request span tracer hung off the context, fired at the
// same phase boundaries the fault-injection points already mark.
//
// The design constraints mirror package faultinject:
//
//   - Zero cost when off. A request served without a trace pays one
//     atomic pointer load per phase point (the guard trace hook) and
//     nothing else — no context values are installed, no spans
//     allocated. TestDisabledPathAllocs pins the disabled path at zero
//     allocations.
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
// serving and core layers, marks from the guard trace hook at
// fault-point boundaries), and SlowRing (a bounded ring of the
// slowest finished traces, served on /tracez).
package obs

import (
	"context"
	"sync"

	"xqindep/internal/guard"
)

// ctxKey carries the active *Trace through a request context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace. Engine code retrieves it
// with FromContext; everything between (the pool queue, the budget,
// the fault hook) forwards the context unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. All Trace
// methods are nil-safe, so call sites never branch.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// armOnce installs the guard trace hook the first time any trace is
// created. Before that, every Budget.Point/guard.FirePoint pays only
// the nil atomic load it always paid; after it, points on contexts
// without a trace pay the load plus one context probe — still zero
// allocations (pinned by test).
var armOnce sync.Once

func arm() {
	armOnce.Do(func() {
		guard.SetTraceHook(func(ctx context.Context, point string, nodes, chains int) {
			FromContext(ctx).Mark(point, nodes, chains)
		})
	})
}
