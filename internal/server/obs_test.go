package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"xqindep/internal/core"
	"xqindep/internal/obs"
	"xqindep/internal/plan"
)

// A schema no other test uses, so its plan-cache behaviour here is
// deterministic.
const obsSchema = "store <- item*\nitem <- (name, cost?)\nname <- #PCDATA\ncost <- #PCDATA"

func obsHandler(t *testing.T, ringSize int) *Handler {
	t.Helper()
	s := New(Config{Workers: 1, Plans: plan.NewCache(16), TraceRing: ringSize})
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	frozen := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	h.now = func() time.Time { return frozen }
	return h
}

func obsAnalyze(t *testing.T, h *Handler, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/analyze", bytes.NewReader(body)))
	if rw.Code != 200 {
		t.Fatalf("POST /analyze = %d: %s", rw.Code, rw.Body.String())
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding verdict: %v", err)
	}
	return resp
}

// /metricz under a frozen clock: every latency observation is exactly
// zero seconds, so the handler-recorded families have fully
// deterministic bucket counts — golden-assert them line by line. (The
// scrape-bridged families read process-global caches, so only their
// presence is asserted.)
func TestMetriczFrozenClock(t *testing.T) {
	h := obsHandler(t, 0)
	req := AnalyzeRequest{Schema: obsSchema, Query: "//name", Update: "delete //cost"}
	r1 := obsAnalyze(t, h, req)
	if r1.ElapsedUS != 0 {
		t.Errorf("frozen clock but elapsed_us = %d; handler read ambient time", r1.ElapsedUS)
	}
	if r1.Plan != "cold" {
		t.Fatalf("first analysis plan = %q, want cold", r1.Plan)
	}
	r2 := obsAnalyze(t, h, req)
	if r2.Plan != "warm" {
		t.Fatalf("repeat analysis plan = %q, want warm", r2.Plan)
	}

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metricz", nil))
	if rw.Code != 200 {
		t.Fatalf("GET /metricz = %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	out := rw.Body.String()

	verdict := "dependent"
	if r1.Independent {
		verdict = "independent"
	}
	exact := []string{
		"# TYPE " + MetricRequestLatency + " histogram",
		MetricRequestLatency + `_bucket{le="5e-05"} 2`, // 0s observations land in the first bucket
		MetricRequestLatency + "_sum 0",
		MetricRequestLatency + "_count 2",
		MetricRungLatency + `_count{rung="chains"} 2`,
		MetricRequests + `{outcome="ok"} 2`,
		MetricRequests + `{outcome="bad_request"} 0`,
		fmt.Sprintf("%s{verdict=%q} 2", MetricVerdicts, verdict),
		MetricPlanRequests + `{provenance="cold"} 1`,
		MetricPlanRequests + `{provenance="warm"} 1`,
	}
	for _, line := range exact {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("/metricz missing exact line %q", line)
		}
	}
	// Bridged families: presence (their values track process-global
	// state other tests share).
	for _, fam := range []string{
		MetricPoolAdmitted, MetricPoolCompleted, MetricPoolInflight,
		MetricBreakerTrips, MetricCacheHits, MetricCacheResident,
		MetricQuarantineTrips, MetricQuarantined,
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("/metricz missing family %s", fam)
		}
	}
	for _, tier := range []string{"compile", "plan", "update"} {
		if series := fmt.Sprintf("%s{tier=%q} ", MetricCacheMisses, tier); !strings.Contains(out, series) {
			t.Errorf("/metricz missing series %s", series)
		}
	}
	// Every ladder rung has its latency series from the first scrape:
	// each method ParseMethod knows, numbered up from 0.
	for m := core.Method(0); ; m++ {
		if _, err := core.ParseMethod(m.String()); err != nil {
			break
		}
		if series := fmt.Sprintf("%s_count{rung=%q} ", MetricRungLatency, m); !strings.Contains(out, series) {
			t.Errorf("/metricz missing series %s", series)
		}
	}

	// /statz carries the same histograms as quantile digests.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/statz", nil))
	var p StatzPayload
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("decoding /statz: %v", err)
	}
	found := false
	for _, s := range p.Metrics {
		if s.Name == MetricRequestLatency && s.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("/statz metrics digest missing %s count 2: %+v", MetricRequestLatency, p.Metrics)
	}
}

// A body or batch line that does not decode is a bad request counted
// like every other answer: in the outcome counter and the latency
// histogram.
func TestUndecodableRequestsAreCounted(t *testing.T) {
	h := obsHandler(t, 0)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/analyze", strings.NewReader(`{"schema": 5`)))
	if rw.Code != 400 {
		t.Fatalf("POST /analyze of a malformed body = %d, want 400", rw.Code)
	}
	var out bytes.Buffer
	if err := RunBatch(context.Background(), h, strings.NewReader("{\"query\": \n"), &out, obsSchema); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bad request line") {
		t.Fatalf("batch answered %q to a bad line", out.String())
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metricz", nil))
	for _, line := range []string{
		MetricRequests + `{outcome="bad_request"} 2`,
		MetricRequestLatency + "_count 2",
	} {
		if !strings.Contains(rw.Body.String(), line+"\n") {
			t.Errorf("/metricz missing exact line %q", line)
		}
	}
}

// /tracez serves the ring slowest-first with exact eviction
// accounting, and a traced request returns its span tree (root span,
// parse marks, ladder rung) in the response.
func TestTracezRingAndRequestTrace(t *testing.T) {
	h := obsHandler(t, 2)

	resp := obsAnalyze(t, h, AnalyzeRequest{Schema: obsSchema, Query: "//name", Update: "delete //cost", Trace: true})
	if len(resp.Trace) == 0 {
		t.Fatal("trace requested but response carries no spans")
	}
	names := make(map[string]bool)
	for _, sp := range resp.Trace {
		names[sp.Name] = true
	}
	for _, want := range []string{"serve", "parse.schema", "parse.query", "parse.update", "rung:chains", "core.analyze", "core.verdict"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, resp.Trace)
		}
	}
	if resp.Trace[0].Name != "serve" || resp.Trace[0].Depth != 0 {
		t.Errorf("trace root = %+v, want the serve span at depth 0", resp.Trace[0])
	}

	// Synthetic entries pin the eviction order deterministically (the
	// real request above recorded 0µs under the frozen clock).
	h.ring.Add(obs.RingEntry{TotalUS: 100, Outcome: "ok"})
	h.ring.Add(obs.RingEntry{TotalUS: 300, Outcome: "ok"})
	h.ring.Add(obs.RingEntry{TotalUS: 200, Outcome: "ok"})

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/tracez", nil))
	if rw.Code != 200 {
		t.Fatalf("GET /tracez = %d", rw.Code)
	}
	var p TracezPayload
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("decoding /tracez: %v", err)
	}
	if p.Ring.Capacity != 2 || p.Ring.Held != 2 {
		t.Errorf("ring status = %+v, want capacity 2 held 2", p.Ring)
	}
	if p.Ring.Added != 4 || p.Ring.Evicted != 2 {
		t.Errorf("ring accounting = %+v, want added 4 evicted 2 (real trace + 3 synthetic)", p.Ring)
	}
	if len(p.Slowest) != 2 || p.Slowest[0].TotalUS != 300 || p.Slowest[1].TotalUS != 200 {
		t.Errorf("slowest = %+v, want [300 200]µs", p.Slowest)
	}
}

// A request the ring rejects is counted as added and evicted, and its
// spans are never built: it allocates about a span slice less than the
// same request asking for its trace, whose spans go into the response.
// Half a slice is the margin, as other goroutines allocate too.
func TestRingRejectedRequestBuildsNoSpans(t *testing.T) {
	h := obsHandler(t, 1)
	// Under the frozen clock every request totals 0µs, which a full
	// ring of slower entries rejects.
	h.ring.Add(obs.RingEntry{TotalUS: 100, Outcome: "ok"})
	member, _ := json.Marshal(obsSchema)
	query, update := rawMember(jsonQuote("//name")), rawMember(jsonQuote("delete //cost"))
	untraced := &wireRequest{Schema: member, Query: query, Update: update}
	traced := &wireRequest{AnalyzeRequest: AnalyzeRequest{Trace: true}, Schema: member, Query: query, Update: update}
	analyze := func(req *wireRequest) AnalyzeResponse {
		resp, code := h.analyze(context.Background(), req)
		if code != 200 {
			t.Fatalf("analyze = %d: %+v", code, resp)
		}
		return resp
	}
	analyze(untraced) // the cold build
	before := h.ring.Status()
	analyze(untraced)
	if st := h.ring.Status(); st.Added != before.Added+1 || st.Evicted != before.Evicted+1 || st.Held != 1 {
		t.Fatalf("ring %+v after %+v, want the request added and evicted", st, before)
	}
	if got := h.ring.Snapshot(); got[0].TotalUS != 100 {
		t.Fatalf("ring = %+v, want the 100µs entry kept", got)
	}
	spans := len(analyze(traced).Trace)
	if spans == 0 {
		t.Fatal("a traced request the ring rejects returned no spans")
	}
	const runs = 50
	bytesPer := func(req *wireRequest) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			analyze(req)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	plain, withTrace := bytesPer(untraced), bytesPer(traced)
	if slice := float64(spans) * float64(reflect.TypeOf(obs.Span{}).Size()); withTrace-plain < slice/2 {
		t.Fatalf("a rejected request allocates %.0f B and a traced one %.0f B; want about the %.0f B of its %d spans between them", plain, withTrace, slice, spans)
	}
}

// Concurrent traced requests through a ring-64 handler each get a span
// tree of their own, though their traces come from one pool: one serve
// root, one chains rung annotated with the response's own plan
// provenance, and cdag marks only in a cold build's tree. The pairs are
// shared, so some requests build cold and some hit. Run it under -race.
func TestConcurrentTracesAreTheirOwn(t *testing.T) {
	const clients = 4
	s := New(Config{Workers: 2, QueueDepth: clients, Plans: plan.NewCache(64), TraceRing: 64})
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	var reqs []AnalyzeRequest
	for _, q := range []string{"//name", "//cost", "//item", "//item/name", "/store/item/cost"} {
		for _, u := range []string{"delete //cost", "delete //name", "rename //item as good"} {
			reqs = append(reqs, AnalyzeRequest{Schema: obsSchema, Query: q, Update: u, Trace: true})
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := range reqs {
				req := reqs[(n+c)%len(reqs)]
				body, _ := json.Marshal(req)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest("POST", "/analyze", bytes.NewReader(body)))
				var resp AnalyzeResponse
				if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 {
					t.Errorf("%s | %s: status %d: %s", req.Query, req.Update, rw.Code, rw.Body.String())
					return
				}
				if err := ownTrace(resp); err != nil {
					t.Errorf("%s | %s: %v: %+v", req.Query, req.Update, err, resp.Trace)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// ownTrace reports how resp's span tree fails to be one request's.
func ownTrace(resp AnalyzeResponse) error {
	var roots, rungs, builds int
	for _, sp := range resp.Trace {
		if sp.Depth == 0 {
			roots++
		}
		switch sp.Name {
		case "rung:chains":
			rungs++
			if sp.Detail != resp.Plan {
				return fmt.Errorf("the chains rung says %q, the response %q", sp.Detail, resp.Plan)
			}
		case "cdag.build":
			builds++
		}
	}
	switch {
	case len(resp.Trace) == 0 || resp.Trace[0].Name != "serve" || roots != 1:
		return fmt.Errorf("%d roots, want one serve span", roots)
	case rungs != 1:
		return fmt.Errorf("%d chains rungs, want 1", rungs)
	case (resp.Plan == "cold") != (builds == 1) || builds > 1:
		return fmt.Errorf("a %s plan with %d cdag.build marks", resp.Plan, builds)
	}
	return nil
}

// With the ring off, /tracez still answers (empty), and an untraced
// request carries no trace.
func TestTracezDisabled(t *testing.T) {
	h := obsHandler(t, 0)
	resp := obsAnalyze(t, h, AnalyzeRequest{Schema: obsSchema, Query: "//name", Update: "delete //cost"})
	if resp.Trace != nil {
		t.Errorf("untraced request returned spans: %+v", resp.Trace)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/tracez", nil))
	if rw.Code != 200 {
		t.Fatalf("GET /tracez = %d", rw.Code)
	}
	var p TracezPayload
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("decoding /tracez: %v", err)
	}
	if p.Ring.Capacity != 0 || len(p.Slowest) != 0 {
		t.Errorf("disabled ring payload = %+v, want empty", p)
	}
}

// The observability layer's per-request overhead with tracing off is
// the metrics record call — it must not allocate at all, from any
// number of concurrent workers.
func TestRecordAllocFreeAndConcurrent(t *testing.T) {
	h := obsHandler(t, 0)
	resp := AnalyzeResponse{Independent: true, Method: "chains", Plan: "warm"}
	if n := testing.AllocsPerRun(1000, func() {
		h.metrics.record(resp, 200, time.Millisecond)
	}); n != 0 {
		t.Errorf("metrics record allocates %v per request, want 0", n)
	}
	base := h.metrics.latency.Count()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 500; i++ {
				h.metrics.record(resp, 200, time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := h.metrics.latency.Count(); got != base+2000 {
		t.Errorf("latency count = %d after 2000 concurrent records over %d, lost updates", got, base)
	}
}

// TestTruncateKeepsRunesWhole checks the trace-ring text bound never
// splits a multi-byte character, which JSON would render as U+FFFD.
func TestTruncateKeepsRunesWhole(t *testing.T) {
	pad := strings.Repeat("a", 199)
	cases := []struct {
		name, in, want string
	}{
		{"short", "//title", "//title"},
		{"exactly at the bound", pad + "b", pad + "b"},
		{"ascii cut", pad + "bc", pad + "b…"},
		{"two-byte rune straddles", pad + "é", pad + "…"},
		{"three-byte rune straddles", pad[1:] + "€x", pad[1:] + "…"},
		{"four-byte rune straddles", pad[2:] + "𝄞x", pad[2:] + "…"},
		{"rune ends at the bound", pad[1:] + "é" + "x", pad[1:] + "é…"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := truncate(tc.in, 200)
			if got != tc.want {
				t.Fatalf("truncate = %q, want %q", got, tc.want)
			}
			if !utf8.ValidString(got) {
				t.Fatalf("truncate = %q is not valid UTF-8", got)
			}
		})
	}
}
