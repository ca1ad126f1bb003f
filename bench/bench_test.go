package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestGoldenTable(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	indep := 0
	for _, p := range g.Pairs {
		if p.Independent {
			indep++
		}
	}
	// 952 is independent_pairs in BENCH_plancache.json.
	if len(g.Pairs) != 1116 || indep != 952 {
		t.Fatalf("golden table: %d pairs, %d independent; want 1116 and 952", len(g.Pairs), indep)
	}
	m, err := loadMatrix(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.views != 36 || m.updates != 31 || len(m.pairs) != 1116 {
		t.Fatalf("matrix %d × %d with %d pairs", m.views, m.updates, len(m.pairs))
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	d := newDist(xs)
	if len(d) != 1000 {
		t.Fatalf("sample count %d", len(d))
	}
	if got := d.quantile(0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := d.beyond(0.99); got != minBeyond {
		t.Errorf("beyond p99 = %d, want %d", got, minBeyond)
	}
	if got := d.median(); got != 500 {
		t.Errorf("median = %v, want 500", got)
	}
	// Below 1,000 samples p99 has fewer than minBeyond samples above it.
	if got := newDist(xs[:500]).beyond(0.99); got >= minBeyond {
		t.Errorf("beyond p99 of 500 samples = %d, want < %d", got, minBeyond)
	}
	if got := newDist(nil).beyond(0.5); got != 0 {
		t.Errorf("beyond on empty sample = %d", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func draws(s *passStream, n int) []int {
	out := make([]int, n)
	for i := range out {
		_, out[i], _ = s.next(-1)
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	const n = 1116
	a, b, c := draws(newPassStream(7, n), 3000), draws(newPassStream(7, n), 3000), draws(newPassStream(8, n), 3000)
	if !equal(a, b) {
		t.Error("pass stream: same seed, different streams")
	}
	if equal(a, c) {
		t.Error("pass stream: different seeds, same stream")
	}
	if !equal(newColdOrder(7, 31).pass(), newColdOrder(7, 31).pass()) {
		t.Error("cold order: same seed, different orders")
	}
	if equal(newColdOrder(7, 31).pass(), newColdOrder(8, 31).pass()) {
		t.Error("cold order: different seeds, same order")
	}
	// A pass visits every pair exactly once.
	seen := make([]bool, n)
	for _, idx := range draws(newPassStream(3, n), n) {
		if seen[idx] {
			t.Fatalf("pair %d drawn twice in one pass", idx)
		}
		seen[idx] = true
	}
	// The bound stops the stream at the given sequence number.
	s := newPassStream(1, n)
	for i := 0; i < 5; i++ {
		s.next(5)
	}
	if _, _, ok := s.next(5); ok {
		t.Error("stream ran past its bound")
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWarmPasses(t *testing.T) {
	m := &matrix{views: 2, updates: 2, pairs: make([]pair, 4)}
	// Two complete passes and a partial third; pair i takes i+1 ms.
	var samples []sample
	for seq := 0; seq < 10; seq++ {
		idx := seq % 4
		samples = append(samples, sample{seq: seq, idx: idx, done: time.Duration(seq+1) * time.Second, lat: time.Duration(idx+1) * time.Millisecond})
	}
	// Within a pass completions may come out of stream order.
	samples[1].done, samples[2].done = samples[2].done, samples[1].done
	ws, update := warmPasses(m, samples)
	if len(ws) != 2 {
		t.Fatalf("%d passes, want 2 (the partial one dropped)", len(ws))
	}
	if ws[0] != (window{lo: 0, hi: 4, dur: 4 * time.Second}) || ws[1] != (window{lo: 4, hi: 8, dur: 4 * time.Second}) {
		t.Errorf("passes %+v", ws)
	}
	// Update 0 is pairs 0 and 1 (1 and 2 ms), update 1 pairs 2 and 3
	// (3 and 4 ms): 2 views × the nearest-rank median latency.
	if len(update) != 2 || update[0] != 2 || update[1] != 6 {
		t.Errorf("update times %v, want [2 6]", update)
	}
	if got := lowerQuartile([]float64{4, 1, 3, 2}); got != 1 {
		t.Errorf("lower quartile of 1..4 = %v, want 1", got)
	}
	if got := upperQuartile([]float64{4, 1, 3, 2, 5, 6, 7, 8}); got != 6 {
		t.Errorf("upper quartile of 1..8 = %v, want 6", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60}, // overlaps a
		{Name: "a.x", Parent: 1, StartNS: 15, EndNS: 20},
		{Name: "late", Parent: 0, StartNS: 90, EndNS: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// tiny shrinks a run to a 4 × 3 corner of the matrix and a fraction of
// a second, so each workload finishes in a few seconds even under -race.
func tiny(cfg *config) {
	cfg.views, cfg.updates = 4, 3
	cfg.seconds = 0.3
	cfg.setups = 2
	cfg.replay = 30
	cfg.spans = ""
}

// benchmarkNames returns the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, log bytes.Buffer
				code := realMain(context.Background(), []string{"-workload", w, "-seed", "3", "-trace", trace}, &out, &log, tiny)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, log.String())
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := e2e
				if trace == "1" {
					want = layers
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s not emitted", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				// -runs reads every metric, unbounded ones too, back from
				// the table on standard error.
				table := tableMetrics(log.Bytes())
				for name := range res.Metrics {
					if _, ok := table[name]; !ok {
						t.Errorf("metric %s missing from the table", name)
					}
				}
				if trace == "0" {
					for name := range unbounded {
						if _, ok := table[name]; !ok {
							t.Errorf("unbounded metric %s missing from the table", name)
						}
					}
				}
			})
		}
	}
}

// flipOne wraps the pool's handler so the response to one request
// carries the opposite verdict.
func flipOne(body []byte) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			in, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(in))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			out := rec.Body.Bytes()
			if bytes.Equal(in, body) {
				var resp map[string]any
				if err := json.Unmarshal(out, &resp); err == nil {
					resp["independent"] = resp["independent"] != true
					out, _ = json.Marshal(resp)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(out)
		})
	}
}

func TestFlippedVerdictFailsTheRun(t *testing.T) {
	m, err := loadMatrix(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var out, log bytes.Buffer
	code := realMain(context.Background(), []string{"-workload", "cold-fig3a", "-seed", "1"}, &out, &log, func(cfg *config) {
		tiny(cfg)
		cfg.wrap = flipOne(m.pairs[0].body)
	})
	if code == 0 {
		t.Fatalf("exit 0 with a flipped verdict\n%s", log.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("flipped verdict not counted: %+v", res)
	}
	if !strings.Contains(log.String(), m.pairs[0].view+" × "+m.pairs[0].update) {
		t.Errorf("failure report does not name the pair:\n%s", log.String())
	}
}
