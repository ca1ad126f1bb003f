package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/plan"
	"xqindep/internal/xmark"
)

// postAnalyze sends body to /analyze with the given declared length
// (-1: none) and returns the recorded response.
func postAnalyze(h *Handler, body io.Reader, length int64) *httptest.ResponseRecorder {
	r := httptest.NewRequest("POST", "/analyze", body)
	r.ContentLength = length
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, r)
	return rw
}

// A body that ends before its declared length is a bad request, and the
// handler returns instead of waiting for the missing bytes.
func TestAnalyzeBodyShorterThanDeclared(t *testing.T) {
	h := obsHandler(t, 0)
	body := `{"schema":"a <- #PCDATA","query":"//a","update":"delete //a"}`
	rw := postAnalyze(h, strings.NewReader(body), int64(len(body))+100)
	if rw.Code != 400 {
		t.Fatalf("short body: status %d, want 400: %s", rw.Code, rw.Body.String())
	}
}

// Data after the JSON object is a bad request: the body is one object.
func TestAnalyzeBodyTrailingData(t *testing.T) {
	h := obsHandler(t, 0)
	body := `{"schema":"a <- #PCDATA","query":"//a","update":"delete //a"} {"query":"//a"}`
	for _, length := range []int64{int64(len(body)), -1} {
		if rw := postAnalyze(h, strings.NewReader(body), length); rw.Code != 400 {
			t.Errorf("trailing data, declared length %d: status %d, want 400", length, rw.Code)
		}
	}
	// Trailing white space is not data.
	if rw := postAnalyze(h, strings.NewReader(body[:strings.Index(body, "} ")+1]+"\n"), -1); rw.Code != 200 {
		t.Errorf("trailing newline: status %d, want 200: %s", rw.Code, rw.Body.String())
	}
}

// endless is an unbounded JSON string body: `{"schema":"aaaa…`.
type endless struct{ head bool }

func (e *endless) Read(p []byte) (int, error) {
	n := 0
	if !e.head {
		e.head = true
		n = copy(p, `{"schema":"`)
	}
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	return len(p), nil
}

// A body over 16 MiB is a bad request whether or not it declares its
// length, as it was when the body streamed through a JSON decoder.
func TestAnalyzeBodyOverLimit(t *testing.T) {
	h := obsHandler(t, 0)
	for _, length := range []int64{-1, maxBody + 1} {
		rw := postAnalyze(h, &endless{}, length)
		if rw.Code != 400 || !strings.Contains(rw.Body.String(), "too large") {
			t.Errorf("declared length %d: status %d, want 400 for a body too large: %s", length, rw.Code, rw.Body.String())
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and the
// last body, and allocates nothing once its buffer has grown.
type discardWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// warmAnalyze measures one warm A3 × UB2 /analyze request through a
// handler with a slow-trace ring of ring entries (0: off): the bytes
// and the allocations it makes, each the mean of 400 requests after the
// cold build, once the ring is full. Every request is the same
// *http.Request, its body reset, written to a discardWriter, so the
// figures are the handler's own and not those of a test harness. Under
// -race a sync.Pool drops a quarter of what it is handed, so about one
// body buffer and one trace in four are made anew; 400 requests keep
// that spread well inside the ceilings.
func warmAnalyze(t *testing.T, ring int) (allocBytes, allocs float64) {
	t.Helper()
	h := obsHandler(t, ring)
	v, _ := xmark.ViewByName("A3")
	u, _ := xmark.UpdateByName("UB2")
	body, err := json.Marshal(AnalyzeRequest{Schema: xmark.SchemaText, Query: v.Text, Update: u.Text})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest("POST", "/analyze", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	w := &discardWriter{header: http.Header{}}
	post := func() {
		rd.Reset(body)
		w.code, w.body = http.StatusOK, w.body[:0]
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	post() // the cold build: every later request is a plan hit
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Under the frozen clock every trace totals 0 µs, so the ring keeps
	// the first ring requests and none after: fill it before measuring.
	for i := 0; i <= ring; i++ {
		post()
	}
	const runs = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestWarmAnalyzeBytes pins the bytes one warm /analyze request
// allocates in the handler at 1.25 times the 192 B measured: one
// allocation, the response boxed for writeJSON. Under -race it measured
// up to 1,902 B over 140 runs, as sync.Pool drops a quarter of the body
// buffers it is handed, and the ceiling is 1.1 times that. An XMark
// request carries the schema text, about 4.7 KiB as JSON, which costs
// nothing once the schema is resident: the body is read into a recycled
// buffer and the schema tier is keyed by the member's bytes. The query
// and update members cost nothing either once their sides are resident
// in the parsed-expression tier, and a resident plan is answered
// without the ladder's analysis context, timer, drain hook and budget.
func TestWarmAnalyzeBytes(t *testing.T) {
	ceiling := 240.0
	if raceEnabled {
		ceiling = 2_100
	}
	if n, _ := warmAnalyze(t, 0); n > ceiling {
		t.Errorf("a warm /analyze request allocates %.0f B, ceiling %.0f", n, ceiling)
	}
}

// TestWarmAnalyzeAllocs pins the allocations of the same request at
// 1.25 times the 1.00 measured; under -race, up to 4.20 measured over
// 140 runs, at 1.1 times that.
func TestWarmAnalyzeAllocs(t *testing.T) {
	ceiling := 1.25
	if raceEnabled {
		ceiling = 4.7
	}
	if _, n := warmAnalyze(t, 0); n > ceiling {
		t.Errorf("a warm /analyze request makes %.2f allocations, ceiling %.2f", n, ceiling)
	}
}

// TestWarmAnalyzeBytesWithRing pins the same request on a handler
// with the daemon's 64-entry slow-trace ring, which traces every
// request, at 1.25 times the 240 B measured: the response box and the
// context value that carries the trace, 48 B. The trace, its record
// buffer and its stack come back from obs's pool, and a trace the full
// ring does not admit is not copied. Under -race it measured up to
// 2,781 B over 80 runs, as sync.Pool drops a quarter of the traces and
// body buffers it is handed, and the ceiling is 1.1 times that.
func TestWarmAnalyzeBytesWithRing(t *testing.T) {
	ceiling := 300.0
	if raceEnabled {
		ceiling = 3_060
	}
	if n, _ := warmAnalyze(t, 64); n > ceiling {
		t.Errorf("a warm /analyze request with the trace ring on allocates %.0f B, ceiling %.0f", n, ceiling)
	}
}

// A body longer than maxPooled is served from a buffer the pool never
// takes back, so a few large requests cannot pin large buffers.
func TestBodyPoolKeepsNoLargeBuffer(t *testing.T) {
	h := obsHandler(t, 0)
	body := `{"schema":"a <- #PCDATA` + strings.Repeat(" ", maxPooled) + `","query":"//a","update":"delete //a"}`
	if rw := postAnalyze(h, strings.NewReader(body), int64(len(body))); rw.Code != 200 {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
	}
	for i := 0; i < 4; i++ {
		if buf := bodyPool.Get().(*[]byte); cap(*buf) > maxPooled {
			t.Fatalf("the pool holds a %d B buffer, more than %d", cap(*buf), maxPooled)
		}
	}
}

// Two schemas of one length, so their bodies are too, and a body
// buffer one of them leaves behind fits the other.
const (
	ownSchemaA = "shop <- item*\nitem <- (name, cost?)\nname <- #PCDATA\ncost <- #PCDATA"
	ownSchemaB = "shop <- item*\nitem <- (name, rate?)\nname <- #PCDATA\nrate <- #PCDATA"
)

// A schema tier key outlives the body it was read from. Schema A is a
// miss, schema B's body is read into the buffer A's body left in the
// pool and overwrites it, and A again must hit the resident A built.
// A key that aliased the buffer would have turned into B's bytes.
func TestSchemaKeyOutlivesRecycledBody(t *testing.T) {
	h := obsHandler(t, 0)
	var fps []string
	for _, schema := range []string{ownSchemaA, ownSchemaB, ownSchemaA} {
		body, _ := json.Marshal(AnalyzeRequest{Schema: schema, Query: "//name", Update: "delete //name"})
		rw := postAnalyze(h, bytes.NewReader(body), int64(len(body)))
		var resp AnalyzeResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
		fps = append(fps, resp.Schema)
	}
	if fps[0] == fps[1] || fps[2] != fps[0] {
		t.Fatalf("schema fingerprints A, B, A = %v", fps)
	}
	if st := h.schemas.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("schema tier %+v, want A and B missed and A's second request a hit", st)
	}

	// The same order on one buffer the test overwrites itself, so the
	// reuse does not depend on what the pool hands out.
	buf := []byte(`{"schema":` + jsonQuote(ownSchemaA) + `}`)
	resolve := func() {
		t.Helper()
		var req wireRequest
		if err := decodeRequest(buf, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := h.schema(req.Schema); err != nil {
			t.Fatal(err)
		}
	}
	resolve()
	copy(buf, `{"schema":`+jsonQuote(ownSchemaB)+`}`)
	resolve()
	copy(buf, `{"schema":`+jsonQuote(ownSchemaA)+`}`)
	before := h.schemas.Stats()
	resolve()
	if st := h.schemas.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("schema tier %+v after %+v: A missed on a buffer B had overwritten", st, before)
	}
}

// jsonQuote is the JSON string literal of s.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Concurrent requests with different schemas each get their own
// schema's verdict while their bodies go through the shared pool; the
// race detector watches the buffers.
func TestConcurrentSchemasShareTheBodyPool(t *testing.T) {
	schemas := []string{ownSchemaA, ownSchemaB, bibSchema, obsSchema}
	// Room to admit every client at once, so none is shed.
	s := New(Config{Workers: 2, QueueDepth: len(schemas), Plans: plan.NewCache(16)})
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	want := make([]string, len(schemas))
	for i, s := range schemas {
		d, err := dtd.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d.Fingerprint()
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(schemas))
	for i, s := range schemas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(AnalyzeRequest{Schema: s, Query: "//name", Update: "delete //title"})
			for n := 0; n < 50; n++ {
				rw := postAnalyze(h, bytes.NewReader(body), int64(len(body)))
				var resp AnalyzeResponse
				if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 || resp.Schema != want[i] {
					errs <- fmt.Sprintf("schema %d request %d: status %d, fingerprint %q, want %q", i, n, rw.Code, resp.Schema, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The batch line protocol decodes its lines as /analyze decodes
// bodies. A line without a schema, or with an empty one, takes the
// default schema, which is quoted once and so resolves to one tier
// resident; a line with a schema of its own uses it; a bad line is
// answered in order and does not stop the loop.
func TestRunBatchSharesTheDecode(t *testing.T) {
	h := obsHandler(t, 0)
	in := strings.Join([]string{
		`{"query":"//name","update":"delete //cost"}`,
		``,
		`# a comment`,
		`{"schema":"","query":"//name","update":"delete //name"}`,
		`{"schema":` + jsonQuote(bibSchema) + `,"query":"//title","update":"delete //price"}`,
		`{"schema":5,"query":"//name","update":"delete //cost"}`,
		`{"query":"//cost","update":"delete //cost"}`,
	}, "\n")
	var out bytes.Buffer
	if err := RunBatch(context.Background(), h, strings.NewReader(in), &out, obsSchema); err != nil {
		t.Fatal(err)
	}
	fp := func(schema string) string {
		d, err := dtd.Parse(schema)
		if err != nil {
			t.Fatal(err)
		}
		return d.Fingerprint()
	}
	want := []string{fp(obsSchema), fp(obsSchema), fp(bibSchema), "", fp(obsSchema)}
	dec := json.NewDecoder(&out)
	for i, w := range want {
		var resp AnalyzeResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Schema != w || (w == "") != strings.HasPrefix(resp.Error, "bad request line: ") {
			t.Errorf("response %d = %+v, want schema %q", i, resp, w)
		}
		if w == "" {
			// The error names the field as json.Unmarshal into
			// AnalyzeRequest does.
			refErr := json.Unmarshal([]byte(`{"schema":5}`), new(AnalyzeRequest))
			if resp.Error != "bad request line: "+refErr.Error() {
				t.Errorf("response %d error %q, want %q", i, resp.Error, refErr)
			}
		}
	}
	if dec.More() {
		t.Error("more responses than request lines")
	}
	if st := h.schemas.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Errorf("schema tier %+v, want the default and the bib schema parsed once each", st)
	}
}

// Resolving a resident schema from the member's bytes allocates
// nothing: no unquoting, no string key.
func TestResidentSchemaAllocatesNothing(t *testing.T) {
	h := obsHandler(t, 0)
	member, _ := json.Marshal(xmark.SchemaText)
	if _, err := h.schema(member); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := h.schema(member); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("resolving a resident schema allocates %v times, want 0", n)
	}
}
