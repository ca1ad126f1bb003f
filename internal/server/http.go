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
	// schemas is the schema text → parsed schema tier, so a hot serving
	// loop parses each schema once. Its analyzers hold only the parsed
	// DTD; the compiled schema lives in the fingerprint-keyed tier.
	schemas *lru.Cache[string, *core.Analyzer]
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

func (h *Handler) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	data, err := readBody(w, r)
	if err == nil {
		err = json.Unmarshal(data, &req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, AnalyzeResponse{Error: "bad request: " + err.Error()})
		return
	}
	resp, code := h.Analyze(r.Context(), req)
	setRetryAfter(w, resp.RetryAfterSec)
	writeJSON(w, code, resp)
}

// readBody reads an /analyze body whole, at most maxBody bytes. A body
// whose declared length is at most maxSized is read into one buffer of
// exactly that size, so reading it allocates once; a body that ends
// before its declared length is an error.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if n := r.ContentLength; n > 0 && n <= maxSized {
		data := make([]byte, n)
		if _, err := io.ReadFull(body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
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

// Analyze runs one wire-form request through parsing (with fault
// points at every parser boundary) and the pool, returning the wire
// response and the HTTP status it maps to. It is the shared core of
// the HTTP endpoint and the batch line protocol.
//
// Observability happens here so both fronts get it: the latency,
// outcome, verdict and plan-provenance metrics record every request,
// and a span trace is recorded when the request asked for one
// (req.Trace) or the slow-trace ring is on. An untraced request
// allocates nothing for tracing — no trace object, no context value.
func (h *Handler) Analyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, int) {
	start := h.now()
	var tr *obs.Trace
	if req.Trace || h.ring != nil {
		tr = obs.NewTrace(h.now)
		ctx = obs.NewContext(ctx, tr)
	}
	root := tr.Start("serve")
	resp, code := h.doAnalyze(ctx, req)
	root.End()
	elapsed := h.now().Sub(start)
	outcome := h.metrics.record(resp, code, elapsed)
	if tr != nil {
		spans := tr.Finish()
		if req.Trace {
			resp.Trace = spans
		}
		h.ring.Add(obs.RingEntry{
			When:    start,
			TotalUS: elapsed.Microseconds(),
			Schema:  resp.Schema,
			Query:   truncate(req.Query, 200),
			Update:  truncate(req.Update, 200),
			Method:  resp.Method,
			Plan:    resp.Plan,
			Outcome: outcome,
			Spans:   spans,
		})
	}
	return resp, code
}

// doAnalyze is the uninstrumented request path shared by Analyze.
func (h *Handler) doAnalyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, int) {
	start := h.now()
	fail := func(code int, format string, args ...any) (AnalyzeResponse, int) {
		return AnalyzeResponse{
			Error:     fmt.Sprintf(format, args...),
			ElapsedUS: h.now().Sub(start).Microseconds(),
		}, code
	}
	if req.Schema == "" {
		return fail(http.StatusBadRequest, "missing schema")
	}
	if err := guard.FirePoint(ctx, "parse.schema"); err != nil {
		return fail(http.StatusBadRequest, "schema: %v", err)
	}
	a, _, err := h.schemas.Get(req.Schema, func() (*core.Analyzer, error) {
		d, err := dtd.Parse(req.Schema)
		if err != nil {
			return nil, err
		}
		return core.NewAnalyzer(d), nil
	})
	if err != nil {
		return fail(http.StatusBadRequest, "schema: %v", err)
	}
	if err := guard.FirePoint(ctx, "parse.query"); err != nil {
		return fail(http.StatusBadRequest, "query: %v", err)
	}
	q, err := xquery.ParseQuery(req.Query)
	if err != nil {
		return fail(http.StatusBadRequest, "query: %v", err)
	}
	if err := guard.FirePoint(ctx, "parse.update"); err != nil {
		return fail(http.StatusBadRequest, "update: %v", err)
	}
	u, err := xquery.ParseUpdate(req.Update)
	if err != nil {
		return fail(http.StatusBadRequest, "update: %v", err)
	}
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
		QueryText:  req.Query,
		UpdateText: req.Update,
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

// RunBatch is the stdin line protocol: one AnalyzeRequest JSON object
// per input line, one AnalyzeResponse JSON object per output line, in
// order. Blank lines and #-comments are skipped. A request without a
// schema inherits defaultSchema (the daemon's -schema flag). The
// first read or write error stops the loop; per-request failures are
// reported in the response's error field and do not stop it.
func RunBatch(ctx context.Context, h *Handler, r io.Reader, w io.Writer, defaultSchema string) error {
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
		var req AnalyzeRequest
		var resp AnalyzeResponse
		if err := json.Unmarshal(line, &req); err != nil {
			resp = AnalyzeResponse{Error: "bad request line: " + err.Error()}
		} else {
			if req.Schema == "" {
				req.Schema = defaultSchema
			}
			resp, _ = h.Analyze(ctx, req)
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	return sc.Err()
}
