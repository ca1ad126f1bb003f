package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one finished trace interval, offsets relative to the trace
// start. Spans form a tree via Depth (pre-order listing). A span with
// Mark set was recorded as an instant phase point (a guard fault-point
// boundary); its duration extends to the next point at the same level
// or its parent's end, so the flat mark sequence fingerprint → lookup
// → infer reads as a phase breakdown.
type Span struct {
	Name    string `json:"name"`
	Depth   int    `json:"depth"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Detail  string `json:"detail,omitempty"`
	Mark    bool   `json:"mark,omitempty"`
	// Nodes and Chains snapshot the request budget's consumption at
	// the point (phase marks inside budgeted engine code only).
	Nodes  int `json:"nodes,omitempty"`
	Chains int `json:"chains,omitempty"`
}

// rec is the mutable in-flight form of a span.
type rec struct {
	name          string
	detail        string
	parent        int
	depth         int
	start         time.Duration
	end           time.Duration // -1 while open
	mark          bool
	nodes, chains int
}

// maxSpans bounds one trace; a pathological ladder cannot balloon the
// recorder. Overflow is discarded, not grown.
const maxSpans = 256

// Trace records the span tree of one request. Construct with
// NewTrace, carry through the request with NewContext, finish with
// Finish, and hand back with Release once nothing reads it. A nil
// *Trace is valid: every method no-ops, so instrumentation sites never
// branch on whether tracing is on.
//
// A request runs on its caller's goroutine, so one goroutine records
// into its trace; every method still takes the mutex, so code that
// hands the request's context to another goroutine cannot corrupt the
// recorder. After Finish, late records are dropped.
type Trace struct {
	mu       sync.Mutex
	now      func() time.Time
	t0       time.Time
	recs     []rec
	stack    []int // open span indices, innermost last
	finished bool
}

// maxPooledRecs is the largest record buffer, in records, a released
// trace may hold and still be pooled: twice the 32 a new one reserves.
const maxPooledRecs = 64

// tracePool recycles released traces with their record and stack
// buffers, so a traced request allocates neither.
var tracePool = sync.Pool{New: func() any { return &Trace{recs: make([]rec, 0, maxPooledRecs/2)} }}

// NewTrace starts a trace on the given clock (required: the serving
// layer injects its clock so tests freeze it). Creating the first
// trace in the process installs the guard trace hook, turning the
// existing fault-point boundaries into phase marks.
func NewTrace(now func() time.Time) *Trace {
	arm()
	t := tracePool.Get().(*Trace)
	t.now, t.t0 = now, now()
	return t
}

// Release empties t and hands it back for a later NewTrace, unless its
// record buffer grew past maxPooledRecs. Call it at most once, when
// nothing holds t or a context carrying it any more; spans an earlier
// Finish returned are copies and stay valid.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	clear(t.recs)
	t.recs, t.stack = t.recs[:0], t.stack[:0]
	t.now, t.finished = nil, false
	keep := cap(t.recs) <= maxPooledRecs
	t.mu.Unlock()
	if keep {
		tracePool.Put(t)
	}
}

// SpanHandle ends or annotates one started span. The zero value (from
// a nil trace) no-ops.
type SpanHandle struct {
	t   *Trace
	idx int
}

// Start opens a span under the innermost open span and returns its
// handle. On a nil trace it returns a no-op handle.
func (t *Trace) Start(name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished || len(t.recs) >= maxSpans {
		return SpanHandle{}
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	idx := len(t.recs)
	t.recs = append(t.recs, rec{
		name:   name,
		parent: parent,
		depth:  len(t.stack),
		start:  t.now().Sub(t.t0),
		end:    -1,
	})
	t.stack = append(t.stack, idx)
	return SpanHandle{t: t, idx: idx}
}

// End closes the span (and any forgotten children still open inside
// it, so a panic unwinding past instrumentation cannot wedge the
// stack).
func (s SpanHandle) End() {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	end := t.now().Sub(t.t0)
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.recs[top].end = end
		if top == s.idx {
			return
		}
	}
}

// Annotate attaches a short detail string ("plan=warm",
// "degraded from chains-exact") to the span.
func (s SpanHandle) Annotate(detail string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.t.finished {
		return
	}
	s.t.recs[s.idx].detail = detail
}

// Mark records an instant phase point under the innermost open span —
// the guard trace hook calls it at every fault-point boundary. Nodes
// and chains snapshot the budget's consumption (zero outside budgeted
// code). Finish extends each mark to the next sibling or the parent's
// end, so marks become the phase breakdown of their parent span.
func (t *Trace) Mark(point string, nodes, chains int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished || len(t.recs) >= maxSpans {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	at := t.now().Sub(t.t0)
	t.recs = append(t.recs, rec{
		name:   point,
		parent: parent,
		depth:  len(t.stack),
		start:  at,
		end:    at,
		mark:   true,
		nodes:  nodes,
		chains: chains,
	})
}

// Finish seals the trace and returns the span tree in recording
// (pre-order) order: open spans are closed at the finish instant,
// each mark is extended to the start of the next record under the
// same parent (or the parent's end), and late records are dropped
// from then on. Finish is idempotent — later calls return the sealed
// result, each a copy of its own.
func (t *Trace) Finish() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.finished = true
		total := t.now().Sub(t.t0)
		for i := range t.recs {
			if t.recs[i].end < 0 {
				t.recs[i].end = total
			}
		}
		// Extend marks: a mark's phase lasts until the next record under
		// the same parent begins, bounded by the parent's end.
		for i := range t.recs {
			if !t.recs[i].mark {
				continue
			}
			end := total
			if p := t.recs[i].parent; p >= 0 {
				end = t.recs[p].end
			}
			for j := i + 1; j < len(t.recs); j++ {
				if t.recs[j].parent == t.recs[i].parent {
					if t.recs[j].start < end {
						end = t.recs[j].start
					}
					break
				}
			}
			if end > t.recs[i].start {
				t.recs[i].end = end
			}
		}
	}
	out := make([]Span, len(t.recs))
	for i, r := range t.recs {
		out[i] = Span{
			Name:    r.name,
			Depth:   r.depth,
			StartUS: r.start.Microseconds(),
			DurUS:   (r.end - r.start).Microseconds(),
			Detail:  r.detail,
			Mark:    r.mark,
			Nodes:   r.nodes,
			Chains:  r.chains,
		}
	}
	return out
}

// WriteTree renders a finished span list as an indented tree — the
// output of xqindep -trace. Marks render with a leading "· ".
func WriteTree(w io.Writer, spans []Span) {
	for _, sp := range spans {
		indent := strings.Repeat("  ", sp.Depth)
		bullet := ""
		if sp.Mark {
			bullet = "· "
		}
		fmt.Fprintf(w, "%s%s%-*s %8dµs", indent, bullet, 30-len(indent)-len(bullet), sp.Name, sp.DurUS)
		if sp.Nodes > 0 || sp.Chains > 0 {
			fmt.Fprintf(w, "  nodes=%d chains=%d", sp.Nodes, sp.Chains)
		}
		if sp.Detail != "" {
			fmt.Fprintf(w, "  [%s]", sp.Detail)
		}
		fmt.Fprintln(w)
	}
}
