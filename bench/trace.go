package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"xqindep"
	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/plan"
	"xqindep/internal/xquery"
)

// span is one timed call of the traced replay. Req numbers the
// replayed request, -1 for the server and schema timings outside the
// requests; Parent indexes the enclosing span in the same span list,
// -1 for a root.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps the replay's spans in memory until the run ends. A
// nil recorder records nothing, so the replay with tracing off runs
// the very same calls.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(req, parent int, name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Req: req, Name: name, Parent: parent, StartNS: int64(time.Since(r.t0)), EndNS: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].EndNS = int64(time.Since(r.t0))
	}
}

// call records f as one span.
func (r *recorder) call(req, parent int, name string, f func()) {
	i := r.start(req, parent, name)
	f()
	r.end(i)
}

// rename names a span after the fact, once its outcome is known.
func (r *recorder) rename(i int, name string) {
	if r != nil {
		r.spans[i].Name = name
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].StartNS, s.StartNS), min(spans[k].EndNS, s.EndNS)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, hi int64
		hi = s.StartNS
		for _, v := range iv {
			if v[0] > hi {
				hi = v[0]
			}
			if v[1] > hi {
				covered += v[1] - hi
				hi = v[1]
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// replayEnv is what every replayed request shares: the replay calls
// each layer's entry point from one goroutine, in the order a served
// request reaches them.
type replayEnv struct {
	ctx context.Context
	m   *matrix
	d   *dtd.DTD
	a   *core.Analyzer
	chk *checker
}

// replayStats is what one replay pass measures besides its spans.
type replayStats struct {
	ks   []float64 // k per distinct pair
	ends []float64 // DAG endpoints per distinct pair
	// recorded and plain total the decomposed cold build run with and
	// without span recording, once each per distinct pair.
	recorded, plain time.Duration
}

// pass replays slice against cache, recording spans into rec.
func (env *replayEnv) pass(slice []int, cache *plan.Cache, rec *recorder) (replayStats, error) {
	var st replayStats
	seen := make(map[int]bool)
	for req, idx := range slice {
		if err := env.request(req, idx, cache, rec, seen, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// request replays one request. Every request parses, resolves the
// schema, fingerprints, runs the core analysis against the workload's
// cache (span core.cold or core.warm, by what the cache did) and looks
// its plan up again. The first time the pass meets a pair it also runs
// the complementary core call, so each pair yields a cold and a warm
// sample, and the cold build decomposed into its infer and cdag
// stages.
func (env *replayEnv) request(req, idx int, cache *plan.Cache, rec *recorder, seen map[int]bool, st *replayStats) error {
	p := &env.m.pairs[idx]
	root := rec.start(req, -1, "request")
	defer rec.end(root)
	call := func(parent int, name string, f func()) { rec.call(req, parent, name, f) }
	fail := func(stage string, err error) error {
		return fmt.Errorf("replay %s × %s: %s: %w", p.view, p.update, stage, err)
	}

	var (
		q   xquery.Query
		u   xquery.Update
		c   *dtd.Compiled
		fp  fingerprinted
		res core.Result
		err error
	)
	if call(root, "xquery.parse", func() { q, u, err = xqueryParse(p.query, p.upd) }); err != nil {
		return fail("parse", err)
	}
	if call(root, "dtd.lookup", func() { c, err = dtdLookup(env.d) }); err != nil {
		return fail("schema", err)
	}
	call(root, "xquery.fingerprint", func() { fp = xqueryFingerprint(q, u) })

	served := rec.start(req, root, "core")
	res, err = coreAnalyze(env.ctx, env.a, q, u, cache)
	rec.end(served)
	env.chk.check(p, http.StatusOK, wireResponse{Independent: res.Independent, K: res.K, Degraded: res.Degraded}, err)
	if err != nil {
		return fail("core", err)
	}
	rec.rename(served, "core."+res.Plan)

	if !seen[idx] {
		seen[idx] = true
		if res.Plan == "warm" {
			call(root, "core.cold", func() { _, err = coreAnalyze(env.ctx, env.a, q, u, plan.NewCache(1)) })
		} else {
			call(root, "core.warm", func() { _, err = coreAnalyze(env.ctx, env.a, q, u, cache) })
		}
		if err != nil {
			return fail("core", err)
		}
		// The recording overhead is measured here, on work that does not
		// depend on cache state: the same build with and without spans,
		// in alternating order so drift and GC fall on both sides alike.
		// One span, trace.unrecorded, marks the unrecorded build so that
		// its time is not counted as the request's own.
		var b built
		recorded := func() {
			t := time.Now()
			b = build(rec, req, root, c, fp)
			st.recorded += time.Since(t)
		}
		plain := func() {
			i := rec.start(req, root, "trace.unrecorded")
			t := time.Now()
			build(nil, req, root, c, fp)
			st.plain += time.Since(t)
			rec.end(i)
		}
		if req%2 == 0 {
			plain()
			recorded()
		} else {
			recorded()
			plain()
		}
		env.chk.check(p, http.StatusOK, wireResponse{Independent: b.independent, K: b.k}, nil)
		st.ks = append(st.ks, float64(b.k))
		st.ends = append(st.ends, float64(b.ends))
	}

	lookup := rec.start(req, root, "plan.lookup")
	_, warm, err := planPrepare(env.ctx, cache, c, q, u)
	rec.end(lookup)
	if err != nil {
		return fail("plan", err)
	}
	if !warm {
		// Evicted in between: this was a build, not a lookup.
		rec.rename(lookup, "plan.rebuild")
	}
	return nil
}

// built is what the decomposed cold build derives.
type built struct {
	k, ends     int
	independent bool
}

// build runs a cold plan build stage by stage: the k-factors, then the
// cdag engine, query and update inference and conflict checks, under
// one cdag span.
func build(rec *recorder, req, parent int, c *dtd.Compiled, fp fingerprinted) built {
	call := func(parent int, name string, f func()) { rec.call(req, parent, name, f) }
	var (
		b  built
		e  *cdag.Engine
		qc cdag.QueryChains
		uc *cdag.UpdateSet
	)
	call(parent, "infer.kfactors", func() { _, _, b.k = inferKFactors(fp.q, fp.u) })
	g := rec.start(req, parent, "cdag")
	call(g, "cdag.engine", func() { e = cdagEngine(c, fp.q, fp.u) })
	call(g, "cdag.infer_query", func() { qc = cdagInferQuery(e, fp.q) })
	call(g, "cdag.infer_update", func() { uc = cdagInferUpdate(e, fp.u) })
	call(g, "cdag.conflict", func() { b.independent = cdagConflict(qc, uc) })
	rec.end(g)
	b.ends = cdagEnds(qc, uc)
	return b
}

// replaySlice returns the part of the workload's own seeded stream the
// traced run replays: cold-fig3a one cold matrix pass, warm-matrix the
// first timed pass (the one after the pass that populates the pool);
// cfg.replay, when positive, caps the length.
func replaySlice(cfg *config, m *matrix) []int {
	var out []int
	if cfg.workload == "cold-fig3a" {
		for _, u := range newColdOrder(cfg.seed, m.updates).pass() {
			for v := 0; v < m.views; v++ {
				out = append(out, u*m.views+v)
			}
		}
	} else {
		n := len(m.pairs)
		st := newPassStream(cfg.seed, n)
		for seq := 0; seq < 2*n; seq++ {
			if _, idx, _ := st.next(-1); seq >= n {
				out = append(out, idx)
			}
		}
	}
	if cfg.replay > 0 && len(out) > cfg.replay {
		out = out[:cfg.replay]
	}
	return out
}

// stride picks at most k evenly spaced entries of xs.
func stride(xs []int, k int) []int {
	step := (len(xs) + k - 1) / k
	if step < 1 {
		step = 1
	}
	var out []int
	for i := 0; i < len(xs); i += step {
		out = append(out, xs[i])
	}
	return out
}

// sampleSize bounds the requests the allocation and in-process serve
// replays visit: enough for stable medians, few enough that ReadMemStats
// brackets and the serve pools' cold builds stay a small part of a run.
const sampleSize = 128

// allocReplay is the untimed replay that brackets single calls with
// ReadMemStats; the counts include every goroutine, so nothing else
// may run meanwhile.
func allocReplay(env *replayEnv, sample []int) (map[string][]float64, error) {
	out := map[string][]float64{}
	count := func(name string, f func()) {
		before := mallocs()
		f()
		out[name] = append(out[name], float64(mallocs()-before))
	}
	for _, idx := range sample {
		p := &env.m.pairs[idx]
		var (
			q   xquery.Query
			u   xquery.Update
			err error
			fp  fingerprinted
		)
		if count("xquery.parse", func() { q, u, err = xqueryParse(p.query, p.upd) }); err != nil {
			return nil, err
		}
		count("xquery.fingerprint", func() { fp = xqueryFingerprint(q, u) })
		c, err := dtdLookup(env.d)
		if err != nil {
			return nil, err
		}
		cache := plan.NewCache(1)
		if _, _, err := planPrepare(env.ctx, cache, c, q, u); err != nil {
			return nil, err
		}
		count("plan.prepare", func() { _, _, err = planPrepare(env.ctx, cache, c, q, u) })
		if err != nil {
			return nil, err
		}
		e := cdagEngine(c, fp.q, fp.u)
		var (
			qc cdag.QueryChains
			uc *cdag.UpdateSet
		)
		count("cdag.infer_query", func() { qc = cdagInferQuery(e, fp.q) })
		count("cdag.infer_update", func() { uc = cdagInferUpdate(e, fp.u) })
		count("cdag.conflict", func() { cdagConflict(qc, uc) })
	}
	return out, nil
}

// serveReplay times Pool.Handler().ServeHTTP in process on two warm
// pools, the xqindepd default with a 64-trace ring (spans
// server.serve) and one without (server.serve_noring), in alternating
// order; their difference is what the ring costs.
func serveReplay(ctx context.Context, m *matrix, sample []int, chk *checker, rec *recorder) (allocs float64, err error) {
	noRing := poolOptions()
	noRing.TraceRing = 0
	pools := []*xqindep.Pool{xqindep.NewPool(poolOptions()), xqindep.NewPool(noRing)}
	names := []string{"server.serve", "server.serve_noring"}
	defer func() {
		for _, p := range pools {
			if serr := p.Shutdown(ctx); err == nil {
				err = serr
			}
		}
	}()
	// serve runs one request through a pool's handler, wrapped in
	// around. The request, the recorder and the decoding of the response
	// stay outside it, so around sees the handler's work alone.
	serve := func(pool int, idx int, around func(f func())) {
		pr := &m.pairs[idx]
		r := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(pr.body))
		w := httptest.NewRecorder()
		h := pools[pool].Handler()
		around(func() { h.ServeHTTP(w, r) })
		var wr wireResponse
		derr := json.NewDecoder(w.Body).Decode(&wr)
		chk.check(pr, w.Code, wr, derr)
	}
	untimed := func(f func()) { f() }
	for pool := range pools {
		for _, idx := range sample {
			serve(pool, idx, untimed)
		}
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for j, idx := range sample {
			first := (r + j) % 2
			serve(first, idx, func(f func()) { rec.call(-1, -1, names[first], f) })
			serve(1-first, idx, func(f func()) { rec.call(-1, -1, names[1-first], f) })
		}
	}
	var counts []float64
	for _, idx := range sample {
		serve(0, idx, func(f func()) {
			before := mallocs()
			f()
			counts = append(counts, float64(mallocs()-before))
		})
	}
	return medianOf(counts), nil
}

// schemaRepeats is how often the traced run parses and compiles the
// schema for the dtd medians.
const schemaRepeats = 15

// schemaReplay records schemaRepeats dtd.parse and dtd.compile spans.
func schemaReplay(text string, rec *recorder) error {
	for i := 0; i < schemaRepeats; i++ {
		var (
			d   *dtd.DTD
			err error
		)
		if rec.call(-1, -1, "dtd.parse", func() { d, err = dtdParse(text) }); err != nil {
			return err
		}
		if rec.call(-1, -1, "dtd.compile", func() { _, err = dtdCompile(d) }); err != nil {
			return err
		}
	}
	return nil
}

// layerTimes gathers each span name's durations in µs.
func layerTimes(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

// coldOverhead splits each decomposed request's core.cold time into
// the inner layers the replay timed on their own and the rest: the
// ladder, the budget, plan sealing and the second normalization inside
// the engine. It returns the median rest per request in µs and the
// share of all core.cold time the inner layers explain, in percent.
func coldOverhead(spans []span) (overheadUS, explainedPct float64) {
	inner := map[string]bool{
		"xquery.fingerprint": true, "infer.kfactors": true, "cdag.engine": true,
		"cdag.infer_query": true, "cdag.infer_update": true, "cdag.conflict": true,
	}
	type acc struct {
		cold, inner int64
		decomposed  bool
	}
	per := map[int]*acc{}
	for _, s := range spans {
		a := per[s.Req]
		if a == nil {
			a = &acc{}
			per[s.Req] = a
		}
		switch {
		case s.Name == "core.cold":
			a.cold += s.dur()
		case inner[s.Name]:
			a.inner += s.dur()
			if s.Name == "cdag.conflict" {
				a.decomposed = true
			}
		}
	}
	var rest []float64
	var sumInner, sumCold int64
	for _, a := range per {
		if !a.decomposed || a.cold == 0 {
			continue
		}
		rest = append(rest, float64(a.cold-a.inner)/1e3)
		sumInner += a.inner
		sumCold += a.cold
	}
	if sumCold == 0 {
		return 0, 0
	}
	return medianOf(rest), 100 * float64(sumInner) / float64(sumCold)
}

// printSelfTimes writes each span name's self time and its share of
// all replayed request time (the serve and schema spans lie outside
// the requests, so their shares do not add to the rest).
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name  string
		calls int
		total int64
		each  []float64
	}
	rows := map[string]*row{}
	var order []string
	var requests int64
	for i, s := range spans {
		if s.Name == "request" {
			requests += s.dur()
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.calls++
		r.total += self[i]
		r.each = append(r.each, float64(self[i])/1e3)
	}
	fmt.Fprintf(w, "%-20s %8s %14s %12s %8s\n", "span", "calls", "self p50 µs", "self ms", "share")
	for _, name := range order {
		r := rows[name]
		fmt.Fprintf(w, "%-20s %8d %14.1f %12.1f %7.1f%%\n", name, r.calls, medianOf(r.each), float64(r.total)/1e6, 100*float64(r.total)/float64(max(requests, 1)))
	}
}

func writeSpans(path string, cfg *config, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runTraced is the traced run: a shorter untraced run of the workload
// for the metrics only a served stream shows (wire time, plan cache
// behaviour, GC), then the single-goroutine replay of one slice of the
// same stream, timed per layer.
func runTraced(ctx context.Context, cfg *config, chk *checker, log io.Writer) ([]metric, error) {
	ecfg := *cfg
	ecfg.seconds = cfg.seconds / 2
	ecfg.setups = 1
	r, err := runE2E(ctx, &ecfg, chk)
	if err != nil {
		return nil, err
	}
	out := servedLayerMetrics(r)

	m, err := loadMatrix(cfg.views, cfg.updates)
	if err != nil {
		return nil, err
	}
	d, err := dtdParse(m.schemaText)
	if err != nil {
		return nil, err
	}
	env := &replayEnv{ctx: ctx, m: m, d: d, a: core.NewAnalyzer(d), chk: chk}
	slice := replaySlice(cfg, m)
	cache := plan.NewCache(plan.DefaultCacheSize)
	if cfg.workload == "warm-matrix" {
		for _, idx := range slice {
			p := &m.pairs[idx]
			q, u, err := xqueryParse(p.query, p.upd)
			if err != nil {
				return nil, err
			}
			res, err := coreAnalyze(ctx, env.a, q, u, cache)
			chk.check(p, http.StatusOK, wireResponse{Independent: res.Independent, K: res.K, Degraded: res.Degraded}, err)
		}
	}
	rec := newRecorder()
	traced, err := env.pass(slice, cache, rec)
	if err != nil {
		return nil, err
	}

	sample := stride(slice, sampleSize)
	allocs, err := allocReplay(env, sample)
	if err != nil {
		return nil, err
	}
	serveAllocs, err := serveReplay(ctx, m, sample, chk, rec)
	if err != nil {
		return nil, err
	}
	if err := schemaReplay(m.schemaText, rec); err != nil {
		return nil, err
	}
	t := layerTimes(rec.spans)
	med := func(name string) float64 { return medianOf(t[name]) }
	amed := func(name string) float64 { return medianOf(allocs[name]) }
	overhead, explained := coldOverhead(rec.spans)
	out = append(out,
		metric{"server.serve_us", "us", med("server.serve"), len(t["server.serve"])},
		metric{"server.serve_allocs", "count", serveAllocs, len(sample)},
		metric{"obs.ring_us", "us", med("server.serve") - med("server.serve_noring"), len(t["server.serve_noring"])},
		metric{"dtd.parse_us", "us", med("dtd.parse"), len(t["dtd.parse"])},
		metric{"dtd.compile_us", "us", med("dtd.compile"), len(t["dtd.compile"])},
		metric{"dtd.lookup_us", "us", med("dtd.lookup"), len(t["dtd.lookup"])},
		metric{"xquery.parse_us", "us", med("xquery.parse"), len(t["xquery.parse"])},
		metric{"xquery.parse_allocs", "count", amed("xquery.parse"), len(sample)},
		metric{"xquery.fingerprint_us", "us", med("xquery.fingerprint"), len(t["xquery.fingerprint"])},
		metric{"xquery.fingerprint_allocs", "count", amed("xquery.fingerprint"), len(sample)},
		metric{"plan.lookup_us", "us", med("plan.lookup") - med("xquery.fingerprint"), len(t["plan.lookup"])},
		metric{"plan.lookup_allocs", "count", amed("plan.prepare") - amed("xquery.fingerprint"), len(sample)},
		metric{"infer.kfactors_us", "us", med("infer.kfactors"), len(t["infer.kfactors"])},
		metric{"infer.k_mean", "count", mean(traced.ks), len(traced.ks)},
		metric{"cdag.engine_us", "us", med("cdag.engine"), len(t["cdag.engine"])},
		metric{"cdag.infer_query_us", "us", med("cdag.infer_query"), len(t["cdag.infer_query"])},
		metric{"cdag.infer_query_allocs", "count", amed("cdag.infer_query"), len(sample)},
		metric{"cdag.infer_update_us", "us", med("cdag.infer_update"), len(t["cdag.infer_update"])},
		metric{"cdag.infer_update_allocs", "count", amed("cdag.infer_update"), len(sample)},
		metric{"cdag.conflict_us", "us", med("cdag.conflict"), len(t["cdag.conflict"])},
		metric{"cdag.conflict_allocs", "count", amed("cdag.conflict"), len(sample)},
		metric{"cdag.dag_ends", "count", medianOf(traced.ends), len(traced.ends)},
		metric{"core.cold_us", "us", med("core.cold"), len(t["core.cold"])},
		metric{"core.warm_us", "us", med("core.warm"), len(t["core.warm"])},
		metric{"core.overhead_us", "us", overhead, len(t["core.cold"])},
		metric{"core.explained_pct", "%", explained, len(t["core.cold"])},
		metric{"trace.overhead_pct", "%", 100 * (traced.recorded.Seconds() - traced.plain.Seconds()) / traced.plain.Seconds(), len(traced.ks)},
	)

	printSelfTimes(log, rec.spans)
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, cfg, rec.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "bench: %d spans written to %s\n", len(rec.spans), cfg.spans)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
