package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/lru"
	"xqindep/internal/obs"
	"xqindep/internal/quarantine"
	"xqindep/internal/xquery"
)

// AnalyzeRequest is the wire form of one independence question, used
// by both the HTTP endpoint and the stdin line protocol.
type AnalyzeRequest struct {
	// Schema is the schema text (compact or <!ELEMENT> notation).
	// The batch runner lets it default to a session schema.
	Schema string `json:"schema,omitempty"`
	// Query and Update are the expression texts.
	Query  string `json:"query"`
	Update string `json:"update"`
	// Method names the analysis ("chains" when empty).
	Method string `json:"method,omitempty"`
	// TimeoutMS optionally tightens the per-request wall clock. Like
	// the server's RequestTimeout, a timeout that passes mid-analysis
	// degrades the verdict; one that passes while the request waits
	// for a run slot fails it with 503.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxNodes/MaxChains/MaxK optionally tighten the budget (always
	// clamped to the pool share).
	MaxNodes  int `json:"max_nodes,omitempty"`
	MaxChains int `json:"max_chains,omitempty"`
	MaxK      int `json:"max_k,omitempty"`
	// NoFallback turns budget overruns into errors for this request.
	NoFallback bool `json:"no_fallback,omitempty"`
	// Trace requests a per-phase span trace of this request; the
	// finished tree is returned in AnalyzeResponse.Trace.
	Trace bool `json:"trace,omitempty"`
}

// wireRequest is how both fronts decode an AnalyzeRequest: the schema,
// query and update members, which shadow AnalyzeRequest's, stay raw.
type wireRequest struct {
	AnalyzeRequest
	Schema rawMember `json:"schema,omitempty"`
	Query  rawMember `json:"query"`
	Update rawMember `json:"update"`
}

// rawMember is a JSON string member kept as the bytes it was sent as,
// quotes and escapes included. json.Unmarshal hands UnmarshalJSON a
// sub-slice of its input, which rawMember keeps, so a rawMember
// aliases the decoded buffer and must not outlive it.
type rawMember []byte

// UnmarshalJSON keeps a string literal and, as for a string field,
// leaves the member as it was on null and rejects every other value.
func (m *rawMember) UnmarshalJSON(b []byte) error {
	switch b[0] {
	case '"':
		*m = b
		return nil
	case 'n':
		return nil
	}
	var s string
	return json.Unmarshal(b, &s)
}

// empty reports whether the member is absent or the empty string "".
func (m rawMember) empty() bool { return len(m) <= len(`""`) }

// text unquotes the member into a new string, as json.Unmarshal into a
// string field does; an absent member is "".
func (m rawMember) text() (string, error) {
	var s string
	if len(m) == 0 {
		return s, nil
	}
	err := json.Unmarshal(m, &s)
	return s, err
}

// AnalyzeResponse is the wire form of a verdict.
type AnalyzeResponse struct {
	Independent   bool     `json:"independent"`
	Method        string   `json:"method,omitempty"`
	K             int      `json:"k,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	FallbackChain []string `json:"fallback_chain,omitempty"`
	Witnesses     []string `json:"witnesses,omitempty"`
	ElapsedUS     int64    `json:"elapsed_us"`
	CircuitOpen   bool     `json:"circuit_open,omitempty"`
	Quarantined   bool     `json:"quarantined,omitempty"`
	Schema        string   `json:"schema_fingerprint,omitempty"`
	// Plan reports prepared-plan provenance for chain verdicts:
	// "warm" (served from the plan cache) or "cold" (this request ran
	// the inference stages). Empty for other methods.
	Plan  string `json:"plan,omitempty"`
	Error string `json:"error,omitempty"`
	// RetryAfterSec, when positive, suggests how long to back off
	// before retrying (mirrored into the HTTP Retry-After header on
	// 429/503 and breaker-served responses).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Trace is the finished span tree, present when the request set
	// AnalyzeRequest.Trace.
	Trace []obs.Span `json:"trace,omitempty"`
}

// Handler serves the analysis API over HTTP:
//
//	POST /analyze   — AnalyzeRequest JSON in, AnalyzeResponse JSON out
//	GET  /healthz   — liveness (200 while the process runs)
//	GET  /readyz    — readiness (200 while admitting, 503 draining)
//	GET  /statz     — JSON server counters and histogram digests
//	GET  /metricz   — Prometheus text exposition of the registry
//	GET  /tracez    — the N slowest request traces (span trees)
//	GET  /incidentz — audit incident ring and quarantine state
//
// Status codes: 200 verdicts (including degraded and breaker-served),
// 400 malformed input, 429 shed by admission control, 503 draining or
// closed, 500 internal errors.
type Handler struct {
	srv *Server
	// schemas is the parsed schema tier, so a hot serving loop parses
	// each schema once. It is keyed by the schema member's bytes as
	// sent, quotes and escapes included, so a hit copies nothing. Its
	// analyzers hold only the parsed DTD; the compiled schema lives in
	// the fingerprint-keyed tier.
	schemas *lru.Cache[string, *core.Analyzer]
	// queries and updates are the parsed-expression tier, one cache
	// per side. Each resolves a member, keyed like a schema by its
	// bytes as sent, to one prepared side (source text, parsed AST,
	// normalized AST and digest), so a hit unquotes, copies, parses,
	// normalizes and encodes nothing. Concurrent requests share a
	// side, which nothing writes after it is prepared.
	queries *lru.Cache[string, *xquery.PreparedQuery]
	updates *lru.Cache[string, *xquery.PreparedUpdate]
	mux     *http.ServeMux
	metrics *handlerMetrics
	// ring retains the slowest finished traces for /tracez; nil when
	// Config.TraceRing is zero (then only per-request Trace works).
	ring *obs.SlowRing
	// now is the injectable clock behind the latency telemetry
	// (ElapsedUS, the metrics histograms and trace timestamps);
	// verdicts never depend on it, but injecting it keeps every
	// wall-clock read in the serving layer test-controllable.
	now func() time.Time
}

// NewHandler builds the HTTP front end of a server. Metric families
// are registered in a registry of the handler's own and the slow-trace
// ring is sized by Config.TraceRing.
func NewHandler(s *Server) *Handler {
	h := &Handler{
		srv:     s,
		schemas: lru.New[string, *core.Analyzer](128, nil),
		queries: lru.New[string, *xquery.PreparedQuery](exprTierSize, nil),
		updates: lru.New[string, *xquery.PreparedUpdate](exprTierSize, nil),
		mux:     http.NewServeMux(),
		metrics: newHandlerMetrics(obs.NewRegistry(), s),
		now:     time.Now, //xqvet:ignore clockinject injectable-clock default; tests and chaos harnesses replace Handler.now
	}
	if s.cfg.TraceRing > 0 {
		h.ring = obs.NewSlowRing(s.cfg.TraceRing)
		h.metrics.registerRing(h.ring)
	}
	h.mux.HandleFunc("POST /analyze", h.handleAnalyze)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /readyz", h.handleReadyz)
	h.mux.HandleFunc("GET /statz", h.handleStatz)
	h.mux.HandleFunc("GET /metricz", h.handleMetricz)
	h.mux.HandleFunc("GET /tracez", h.handleTracez)
	h.mux.HandleFunc("GET /incidentz", h.handleIncidentz)
	return h
}

// exprTierSize bounds each side of the parsed-expression tier: at most
// this many prepared queries and as many prepared updates stay
// resident. XMark's 36 views and 31 updates fit with room to spare; a
// side is a few hundred bytes of AST (the 67 XMark sides retain about
// 58 KiB in all), and a member is at most one body long.
const exprTierSize = 128

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (h *Handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if !h.srv.Accepting() {
		setRetryAfter(w, ceilSeconds(h.srv.drainHint(h.now())))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// ceilSeconds renders a backoff as whole seconds, the granularity of
// the Retry-After header, rounding up so a hint is never zero.
func ceilSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func setRetryAfter(w http.ResponseWriter, seconds int) {
	if seconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(seconds))
	}
}

// maxBody is the largest /analyze body the server reads; a longer one
// is a bad request.
const maxBody = 16 << 20

// maxSized is the largest declared Content-Length /analyze sizes its
// body buffer by. Above it the body is read as it arrives, so a request
// that overstates its length cannot make the server allocate before its
// bytes do.
const maxSized = 1 << 20

// maxPooled is the largest body buffer bodyPool takes back.
const maxPooled = 64 << 10

// bodyPool recycles the buffers of /analyze bodies of declared length,
// so a warm request reads its body without allocating.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func (h *Handler) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	start := h.now()
	data, buf, err := readBody(w, r)
	// The buffer goes back to the pool once the response is written.
	// Nothing the request leaves behind aliases it: the schema and
	// expression tiers copy their keys, the prepared sides hold
	// unquoted copies of the texts, and every other field is decoded
	// into a string.
	defer putBody(buf)
	var req wireRequest
	if err == nil {
		err = decodeRequest(data, &req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, h.badRequest(start, "bad request: "+err.Error()))
		return
	}
	resp, code := h.analyze(r.Context(), &req)
	setRetryAfter(w, resp.RetryAfterSec)
	writeJSON(w, code, resp)
}

// badRequest answers a body or batch line that does not decode, read
// since start: a 400, recorded in the request metrics as analyze
// records every other answer.
func (h *Handler) badRequest(start time.Time, msg string) AnalyzeResponse {
	resp := AnalyzeResponse{Error: msg}
	h.metrics.record(resp, http.StatusBadRequest, h.now().Sub(start))
	return resp
}

// readBody reads an /analyze body whole, at most maxBody bytes. A body
// whose declared length is at most maxSized is read into a buffer from
// bodyPool, grown to that length if it is shorter, and the buffer is
// returned for the caller to hand back with putBody once nothing reads
// the body. A body that ends before its declared length is an error.
// Only a body of no declared length, or of one above maxSized, is read
// through http.MaxBytesReader: a declared length of at most maxSized
// is under maxBody already, and the server reads no further than it.
func readBody(w http.ResponseWriter, r *http.Request) (data []byte, buf *[]byte, err error) {
	if n := r.ContentLength; n > 0 && n <= maxSized {
		buf = bodyPool.Get().(*[]byte)
		if int64(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		data = (*buf)[:n]
		if _, err := io.ReadFull(r.Body, data); err != nil {
			putBody(buf)
			return nil, nil, err
		}
		return data, buf, nil
	}
	data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	return data, nil, err
}

// putBody hands a body buffer from readBody back to bodyPool unless it
// is larger than maxPooled; nil is a no-op.
func putBody(buf *[]byte) {
	if buf != nil && cap(*buf) <= maxPooled {
		bodyPool.Put(buf)
	}
}

// jsonContentType is the Content-Type of every JSON response, one
// value shared by all of them, which nothing writes to.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Assigned, not Set: Set would allocate a slice for the value.
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// truncate bounds a source text for trace-ring retention. It cuts at
// byte n or, when a multi-byte character straddles n, before that
// character, so the kept prefix stays valid UTF-8.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// analyze runs one decoded request through parsing (with fault points
// at every parser boundary) and the pool, returning the wire response
// and the HTTP status it maps to. It is the shared core of the HTTP
// endpoint and the batch line protocol.
//
// Observability happens here so both fronts get it: the latency,
// outcome, verdict and plan-provenance metrics record every request,
// and a span trace is recorded when the request asked for one
// (req.Trace) or the slow-trace ring is on. An untraced request
// allocates nothing for tracing — no trace object, no context value —
// and the spans of a traced one are built only when the request asked
// for them or the ring will keep them. The trace itself comes from
// obs's pool and goes back to it (Release) once the response and the
// ring entry hold their copies of the spans: the request ran on this
// goroutine, and nothing it leaves behind holds its context.
func (h *Handler) analyze(ctx context.Context, req *wireRequest) (AnalyzeResponse, int) {
	start := h.now()
	var tr *obs.Trace
	if req.Trace || h.ring != nil {
		tr = obs.NewTrace(h.now)
		ctx = obs.NewContext(ctx, tr)
	}
	root := tr.Start("serve")
	var pair resolved
	resp, code := h.doAnalyze(ctx, req, &pair)
	root.End()
	elapsed := h.now().Sub(start)
	outcome := h.metrics.record(resp, code, elapsed)
	if tr != nil {
		total := elapsed.Microseconds()
		var spans []obs.Span
		if req.Trace || h.ring.Admits(total) {
			spans = tr.Finish()
		}
		if req.Trace {
			resp.Trace = spans
		}
		query, update := pair.texts(req)
		h.ring.Add(obs.RingEntry{
			When:    start,
			TotalUS: total,
			Schema:  resp.Schema,
			Query:   truncate(query, 200),
			Update:  truncate(update, 200),
			Method:  resp.Method,
			Plan:    resp.Plan,
			Outcome: outcome,
			Spans:   spans,
		})
		tr.Release()
	}
	return resp, code
}

// resolved holds the prepared sides a request's members resolved to;
// a side is nil when the request failed before resolving it or its
// member did not parse.
type resolved struct {
	query  *xquery.PreparedQuery
	update *xquery.PreparedUpdate
}

// texts returns the query and update texts of req: a resolved side's
// source text, or the member unquoted when it resolved to no side.
func (r resolved) texts(req *wireRequest) (query, update string) {
	if r.query != nil {
		query = r.query.Text
	} else {
		query, _ = req.Query.text()
	}
	if r.update != nil {
		update = r.update.Text
	} else {
		update, _ = req.Update.text()
	}
	return query, update
}

// doAnalyze is the uninstrumented request path shared by analyze. It
// records in pair the sides the query and update members resolve to.
func (h *Handler) doAnalyze(ctx context.Context, req *wireRequest, pair *resolved) (AnalyzeResponse, int) {
	start := h.now()
	fail := func(code int, format string, args ...any) (AnalyzeResponse, int) {
		return AnalyzeResponse{
			Error:     fmt.Sprintf(format, args...),
			ElapsedUS: h.now().Sub(start).Microseconds(),
		}, code
	}
	if req.Schema.empty() {
		return fail(http.StatusBadRequest, "missing schema")
	}
	if err := guard.FirePoint(ctx, "parse.schema"); err != nil {
		return fail(http.StatusBadRequest, "schema: %v", err)
	}
	a, err := h.schema(req.Schema)
	if err != nil {
		return fail(http.StatusBadRequest, "schema: %v", err)
	}
	if err := guard.FirePoint(ctx, "parse.query"); err != nil {
		return fail(http.StatusBadRequest, "query: %v", err)
	}
	q, err := prepared(h.queries, req.Query, xquery.ParsePreparedQuery)
	if err != nil {
		return fail(http.StatusBadRequest, "query: %v", err)
	}
	pair.query = q
	if err := guard.FirePoint(ctx, "parse.update"); err != nil {
		return fail(http.StatusBadRequest, "update: %v", err)
	}
	u, err := prepared(h.updates, req.Update, xquery.ParsePreparedUpdate)
	if err != nil {
		return fail(http.StatusBadRequest, "update: %v", err)
	}
	pair.update = u
	method := core.MethodChains
	if req.Method != "" {
		method, err = core.ParseMethod(req.Method)
		if err != nil {
			return fail(http.StatusBadRequest, "%v", err)
		}
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := h.srv.Do(ctx, Task{
		Analyzer:   a,
		Query:      q,
		Update:     u,
		Method:     method,
		Limits:     guard.Limits{MaxNodes: req.MaxNodes, MaxChains: req.MaxChains, MaxK: req.MaxK},
		NoFallback: req.NoFallback,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			// Shed by admission control: suggest the breaker's base
			// backoff as the retry interval — it is the operator's one
			// configured notion of "how long this workload needs to
			// cool off".
			r, code := fail(http.StatusTooManyRequests, "%v", err)
			r.RetryAfterSec = ceilSeconds(h.srv.cfg.Breaker.Backoff)
			return r, code
		case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
			r, code := fail(http.StatusServiceUnavailable, "%v", err)
			r.RetryAfterSec = ceilSeconds(h.srv.drainHint(h.now()))
			return r, code
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return fail(http.StatusServiceUnavailable, "%v", err)
		default:
			var ie *guard.InternalError
			if errors.As(err, &ie) {
				return fail(http.StatusInternalServerError, "internal error")
			}
			return fail(http.StatusBadRequest, "%v", err)
		}
	}
	resp := AnalyzeResponse{
		Independent: res.Independent,
		Method:      res.Method.String(),
		K:           res.K,
		Degraded:    res.Degraded,
		Witnesses:   res.Witnesses,
		ElapsedUS:   h.now().Sub(start).Microseconds(),
		CircuitOpen: errors.Is(res.Err, ErrCircuitOpen),
		Quarantined: quarantine.IsQuarantined(res.Err),
		Schema:      a.D.Fingerprint(),
		Plan:        res.Plan,
	}
	if resp.CircuitOpen {
		// Breaker-served conservative verdict: tell the client when the
		// breaker's open window ends.
		resp.RetryAfterSec = ceilSeconds(h.srv.breakers.retryAfter(a.D.Fingerprint()))
	}
	for _, m := range res.FallbackChain {
		resp.FallbackChain = append(resp.FallbackChain, m.String())
	}
	return resp, http.StatusOK
}

// schema resolves a schema member through the schema tier. A resident
// keyed by the member's bytes is served without copying them; a miss
// unquotes the member, parses it and keys the result by a copy.
func (h *Handler) schema(member rawMember) (*core.Analyzer, error) {
	a, _, err := lru.GetBytes(h.schemas, member, func() (*core.Analyzer, error) {
		text, err := member.text()
		if err != nil {
			return nil, err
		}
		d, err := dtd.Parse(text)
		if err != nil {
			return nil, err
		}
		return core.NewAnalyzer(d), nil
	})
	return a, err
}

// prepared resolves a query or update member through its side of the
// parsed-expression tier. A resident keyed by the member's bytes is
// served without copying them; a miss unquotes the member, parses and
// prepares it (parse) and keys the side by a copy. A member that does
// not parse is stored nowhere, so it fails the same way every time.
func prepared[S any](tier *lru.Cache[string, S], member rawMember, parse func(string) (S, error)) (S, error) {
	side, _, err := lru.GetBytes(tier, member, func() (S, error) {
		text, err := member.text()
		if err != nil {
			var none S
			return none, err
		}
		return parse(text)
	})
	return side, err
}

// RunBatch is the stdin line protocol: one AnalyzeRequest JSON object
// per input line, one AnalyzeResponse JSON object per output line, in
// order. Blank lines and #-comments are skipped. A request without a
// schema inherits defaultSchema (the daemon's -schema flag). The
// first read or write error stops the loop; per-request failures are
// reported in the response's error field and do not stop it. Lines are
// decoded as /analyze bodies are, and defaultSchema is quoted once, so
// every request without a schema hits one schema-tier resident.
func RunBatch(ctx context.Context, h *Handler, r io.Reader, w io.Writer, defaultSchema string) error {
	dflt, err := json.Marshal(defaultSchema)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var (
			resp AnalyzeResponse
			req  wireRequest
		)
		start := h.now()
		if err := decodeRequest(line, &req); err != nil {
			resp = h.badRequest(start, "bad request line: "+err.Error())
		} else {
			if req.Schema.empty() {
				req.Schema = dflt
			}
			resp, _ = h.analyze(ctx, &req)
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	return sc.Err()
}
