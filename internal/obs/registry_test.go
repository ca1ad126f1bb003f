package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// The exposition output is the contract with every scraper: golden-test
// it exactly. A standalone registry is fully deterministic — no clock,
// no process-global state.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests by outcome.", "outcome", "ok")
	cBad := r.Counter("test_requests_total", "Requests by outcome.", "outcome", "bad")
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	r.GaugeFunc("test_resident", "Resident things.", func() float64 { return 3 })

	for i := 0; i < 5; i++ {
		c.Inc()
	}
	cBad.Inc()
	h.Observe(0.0005) // first bucket
	h.Observe(0.0005) // first bucket
	h.Observe(0.05)   // third bucket
	h.Observe(2)      // +Inf bucket

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 2
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 2.051
test_latency_seconds_count 4
# HELP test_requests_total Requests by outcome.
# TYPE test_requests_total counter
test_requests_total{outcome="bad"} 1
test_requests_total{outcome="ok"} 5
# HELP test_resident Resident things.
# TYPE test_resident gauge
test_resident 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// 10 observations uniform in (0,1]: p50 interpolates inside the
	// first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q != 0.5 {
		t.Errorf("p50 of 10 first-bucket observations = %v, want 0.5 (interpolated)", q)
	}
	// An observation beyond every bound reports the largest finite
	// bound — the histogram cannot know more.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Errorf("p99 in +Inf bucket = %v, want largest bound 2", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("quantile of empty histogram = %v, want 0", q)
	}
}

func TestSummaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s_latency_seconds", "x", []float64{1, 2}, "rung", "chains")
	r.Counter("s_total", "x") // counters must not appear in summaries
	h.Observe(0.5)
	h.Observe(1.5)
	sums := r.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d entries, want 1", len(sums))
	}
	s := sums[0]
	if s.Name != "s_latency_seconds" || s.Labels != `{rung="chains"}` {
		t.Errorf("summary identity = %q %q", s.Name, s.Labels)
	}
	if s.Count != 2 || s.Sum != 2 {
		t.Errorf("summary count/sum = %d/%v, want 2/2", s.Count, s.Sum)
	}
	if s.P50 <= 0 || s.P99 > 2 {
		t.Errorf("summary quantiles out of range: %+v", s)
	}
}

func TestRegisterMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("m_total", "x")
	mustPanic("duplicate series", func() { r.Counter("m_total", "x") })
	mustPanic("kind mismatch", func() { r.Histogram("m_total", "x", []float64{1}) })
	mustPanic("odd labels", func() { r.Counter("m2_total", "x", "k") })
	mustPanic("unsorted bounds", func() { newHistogram([]float64{2, 1}) })
}

// The instruments are written from every pool worker concurrently; the
// race detector must stay silent and the float sum must not lose
// updates to a torn CAS.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "x")
	h := r.Histogram("cc_seconds", "x", DefLatencyBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := float64(workers*per) * 0.001; math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// The hot-path instruments must never allocate: they run inside every
// request on every worker.
func TestInstrumentAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("al_total", "x")
	h := r.Histogram("al_seconds", "x", DefLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocates %v per call", n)
	}
}
