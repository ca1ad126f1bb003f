package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. Inc is a single
// atomic add: safe for concurrent use on the hot path, no allocation.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram. Observe is lock-free: one
// short linear scan over the bucket bounds (they are few and sit on
// one cache line), one atomic add into the bucket, one CAS loop for
// the float sum. No allocation, safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the base unit every
// latency family uses).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the bucket the q-th observation falls in; an
// observation in the +Inf bucket reports the largest finite bound.
// With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: the best bound we can report.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if n == 0 {
			return hi
		}
		frac := (rank - float64(cum-n)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return 0
}

// DefLatencyBuckets are the default latency bounds in seconds: a
// µs-to-seconds spread matching the workload's two regimes — tens of
// microseconds for a warm plan hit, milliseconds-to-seconds for cold
// compiles and budget-bounded degradations (the paper's ms-scale XMark
// measurements sit in the middle).
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// metricKind is the Prometheus family type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // canonical rendered label set, "" or `{k="v",...}`
	c      *Counter
	h      *Histogram
	fn     func() float64 // collected gauges / counter funcs
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration (typically once, at handler
// construction) takes the lock; the returned instruments are used
// lock-free afterwards.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels builds the canonical label string from alternating
// key, value arguments.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register adds a series to its family, creating the family on first
// sight and enforcing one kind and help text per name.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as both %s and %s", name, f.kind, kind))
	}
	for _, old := range f.series {
		if old.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
}

// Counter registers (and returns) a counter series. labels are
// alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), c: c})
	return c
}

// Histogram registers (and returns) a histogram series with the given
// ascending upper bounds (seconds for latency families).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, kindHistogram, &series{labels: renderLabels(labels), h: h})
	return h
}

// GaugeFunc registers a gauge collected by calling fn at render time —
// the bridge from the existing Stats snapshots (cache residents,
// in-flight counts, quarantined fingerprints) into the registry
// without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), fn: fn})
}

// CounterFunc registers a counter collected by calling fn at render
// time, for monotonic counters that already live in a Stats snapshot.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), fn: fn})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels appends le="bound" to an already-rendered label set.
func mergeLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WriteTo renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series by label
// set, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var total int64
	var werr error
	p := func(format string, args ...any) {
		if werr != nil {
			return
		}
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		werr = err
	}
	for _, f := range fams {
		p("# HELP %s %s\n", f.name, f.help)
		p("# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.h != nil:
				var cum uint64
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					p("%s_bucket%s %d\n", f.name, mergeLabels(s.labels, formatFloat(b)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				p("%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "+Inf"), cum)
				p("%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
				p("%s_count%s %d\n", f.name, s.labels, cum)
			case s.c != nil:
				p("%s%s %d\n", f.name, s.labels, s.c.Value())
			default:
				p("%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			}
		}
	}
	return total, werr
}

// Summary is the /statz quantile digest of one histogram series.
type Summary struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summaries digests every histogram series (sorted by name then label
// set) for the /statz metrics section: count, sum and interpolated
// p50/p90/p99. Quantiles are bucket estimates — the same numbers a
// Prometheus histogram_quantile would produce from /metricz.
func (r *Registry) Summaries() []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Summary
	for _, n := range names {
		f := r.fams[n]
		if f.kind != kindHistogram {
			continue
		}
		for _, s := range f.series {
			out = append(out, Summary{
				Name:   f.name,
				Labels: s.labels,
				Count:  s.h.Count(),
				Sum:    s.h.Sum(),
				P50:    s.h.Quantile(0.50),
				P90:    s.h.Quantile(0.90),
				P99:    s.h.Quantile(0.99),
			})
		}
	}
	return out
}
