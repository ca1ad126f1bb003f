package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"xqindep"
)

// clients is warm-matrix's closed-loop client count: one per core of
// the 2-vCPU machine the baseline was taken on, so load never exceeds
// what one process can drive without queueing on its own CPU.
const clients = 2

// poolOptions mirrors xqindepd's flag defaults with auditing off.
func poolOptions() xqindep.PoolOptions {
	return xqindep.PoolOptions{
		RequestTimeout:    5 * time.Second,
		DrainTimeout:      10 * time.Second,
		BreakerThreshold:  5,
		BreakerBackoff:    time.Second,
		BreakerMaxBackoff: 60 * time.Second,
		BreakerJitter:     0.2,
		QuarantineAfter:   1,
		TraceRing:         64,
	}
}

// loopback is one pool served over HTTP on 127.0.0.1 with its client.
type loopback struct {
	pool *xqindep.Pool
	hs   *http.Server
	done chan error
	url  string
	tr   *http.Transport
	hc   *http.Client
}

func startLoopback(o xqindep.PoolOptions, wrap func(http.Handler) http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	p := xqindep.NewPool(o)
	h := p.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	l := &loopback{
		pool: p,
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/analyze",
		tr:   tr,
		hc:   &http.Client{Transport: tr},
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the HTTP server, then drains the pool; both have
// stopped when it returns.
func (l *loopback) close(ctx context.Context) error {
	l.tr.CloseIdleConnections()
	err := l.hs.Shutdown(ctx)
	<-l.done
	if perr := l.pool.Shutdown(ctx); err == nil {
		err = perr
	}
	return err
}

// wireResponse is the part of the /analyze response the benchmark
// checks.
type wireResponse struct {
	Independent bool   `json:"independent"`
	K           int    `json:"k"`
	Degraded    bool   `json:"degraded"`
	ElapsedUS   int64  `json:"elapsed_us"`
	Plan        string `json:"plan"`
	Error       string `json:"error"`
}

// send posts one request; the latency runs from send until the
// response is decoded.
func (l *loopback) send(ctx context.Context, body []byte) (wireResponse, int, time.Duration, error) {
	var wr wireResponse
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url, bytes.NewReader(body))
	if err != nil {
		return wr, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.hc.Do(req)
	if err != nil {
		return wr, 0, 0, err
	}
	err = json.NewDecoder(resp.Body).Decode(&wr)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; a short body already failed Decode
	resp.Body.Close()
	return wr, resp.StatusCode, time.Since(start), err
}

// sample is one timed request. It holds no pointer, so the samples of
// a long run add nothing to the collector's marking work.
type sample struct {
	seq, idx int
	done     time.Duration // completion, from the start of the timed phase
	lat      time.Duration
	// wire is the latency outside the handler's own elapsed time:
	// HTTP, JSON and the client.
	wire time.Duration
}

// checker counts requests whose outcome differs from the golden table
// and reports the first few.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

func (c *checker) check(p *pair, code int, wr wireResponse, err error) {
	ok := err == nil && code == http.StatusOK && !wr.Degraded && wr.Independent == p.independent && wr.K == p.k
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(c.log, "bench: %s × %s: status %d err %v degraded %v independent %v k %d (golden independent %v k %d) %s\n",
				p.view, p.update, code, err, wr.Degraded, wr.Independent, wr.K, p.independent, p.k, wr.Error)
		}
	}
}

// runLoad drives warm-matrix's closed loop: each client sends its next
// request only after the previous one completed, drawing from the
// shared stream until seq end (end < 0: no bound) or the deadline
// (zero: no deadline). Completion times count from t0. The samples
// come back in stream order.
func runLoad(ctx context.Context, l *loopback, m *matrix, st *passStream, end int, t0, deadline time.Time, chk *checker) []sample {
	var wg sync.WaitGroup
	per := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				seq, idx, ok := st.next(end)
				if !ok {
					return
				}
				p := &m.pairs[idx]
				wr, code, lat, err := l.send(ctx, p.body)
				chk.check(p, code, wr, err)
				per[c] = append(per[c], sample{seq: seq, idx: idx, done: time.Since(t0), lat: lat, wire: lat - time.Duration(wr.ElapsedUS)*time.Microsecond})
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, s := range per {
		n += len(s)
	}
	out := make([]sample, 0, n)
	for _, s := range per {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// heapSamples is how often warm-matrix measures the live heap at the
// end of a run, a short burst of the stream apart: which traces the
// ring holds and which buffers are live at the instant of measuring
// vary with the last draws.
const heapSamples = 5

// window is one matrix pass of the timed phase: samples[lo:hi] of its
// run, answered in dur.
type window struct {
	lo, hi int
	dur    time.Duration
}

// e2eRun is everything one untraced workload run measured.
type e2eRun struct {
	setups  []float64 // seconds per set-up
	samples []sample  // the timed phase
	windows []window  // one per complete matrix pass
	meter   meter     // resources over the timed phase
	// update holds one value per update: its time, in ms, to be
	// answered against every view (see runCold and warmPasses).
	update                 []float64
	live                   uint64 // heap after GC at the end, pool open, less the samples
	base                   uint64 // heap after GC with the schema loaded, no plans
	hits, misses, resident int64
}

func (r *e2eRun) window(w window) []sample { return r.samples[w.lo:w.hi] }

// samplesBytes is the heap the run's own samples hold, which the live
// heap leaves out: it grows with the request count, so a faster
// server would otherwise read as a bigger one.
func (r *e2eRun) samplesBytes() uint64 {
	return uint64(cap(r.samples)) * uint64(unsafe.Sizeof(sample{}))
}

// setUp starts a pool, primes it with the schema and returns the
// set-up time, excluding the base-heap measurement taken inside it.
func setUp(ctx context.Context, cfg *config) (*loopback, *matrix, time.Duration, uint64, error) {
	runtime.GC() // so garbage of an earlier set-up is not collected inside this one
	t0 := time.Now()
	m, err := loadMatrix(cfg.views, cfg.updates)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	l, err := startLoopback(poolOptions(), cfg.wrap)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	wr, code, _, err := l.send(ctx, m.prime)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, wr.Error)
	}
	if err != nil {
		l.close(ctx)
		return nil, nil, 0, 0, fmt.Errorf("prime: %w", err)
	}
	d := time.Since(t0)
	return l, m, d, liveHeap(), nil
}

// runCold is cold-fig3a: one client, passes of the full matrix, each
// on a freshly started pool; a pass sends one update's view requests
// back to back, updates in seeded order. It runs whole passes until
// the timed phase reaches the run's duration, so every update has the
// same number of samples and the last pool holds a full matrix of
// plans when the live heap is measured.
func runCold(ctx context.Context, cfg *config, chk *checker) (*e2eRun, error) {
	r := &e2eRun{}
	var order *coldOrder
	perUpdate := map[int][]float64{}
	budget := cfg.duration()
	var timed time.Duration
	for {
		l, m, setup, base, err := setUp(ctx, cfg)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup.Seconds())
		if order == nil {
			order = newColdOrder(cfg.seed, m.updates)
		}
		w := window{lo: len(r.samples)}
		from := takeSnapshot()
		for _, u := range order.pass() {
			t := time.Now()
			for v := 0; v < m.views; v++ {
				idx := u*m.views + v
				p := &m.pairs[idx]
				wr, code, lat, err := l.send(ctx, p.body)
				chk.check(p, code, wr, err)
				r.samples = append(r.samples, sample{idx: idx, lat: lat, wire: lat - time.Duration(wr.ElapsedUS)*time.Microsecond})
			}
			perUpdate[u] = append(perUpdate[u], ms(time.Since(t)))
		}
		to := takeSnapshot()
		r.meter.add(from, to)
		w.hi, w.dur = len(r.samples), to.at.Sub(from.at)
		r.windows = append(r.windows, w)
		timed += w.dur
		st := l.pool.PlanStats()
		r.hits += st.Hits
		r.misses += st.Misses
		last := timed >= budget || ctx.Err() != nil
		if last {
			r.live, r.base, r.resident = liveHeap()-r.samplesBytes(), base, st.Resident
		}
		if err := l.close(ctx); err != nil {
			return nil, err
		}
		if last {
			break
		}
	}
	// Every pass set up a pool; top up so setup_s is a median of
	// cfg.setups set-ups however few passes fit.
	for len(r.setups) < cfg.setups {
		l, _, setup, _, err := setUp(ctx, cfg)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup.Seconds())
		if err := l.close(ctx); err != nil {
			return nil, err
		}
	}
	for _, xs := range perUpdate {
		r.update = append(r.update, lowerQuartile(xs))
	}
	return r, ctx.Err()
}

// runWarm is warm-matrix: cfg.setups set-ups, each a fresh pool
// populated by the first pass of the stream, then closed-loop clients
// on the last pool for the run's duration.
func runWarm(ctx context.Context, cfg *config, chk *checker) (*e2eRun, error) {
	r := &e2eRun{}
	var (
		l  *loopback
		m  *matrix
		st *passStream
	)
	for i := 0; i < cfg.setups; i++ {
		var (
			setup time.Duration
			err   error
		)
		l, m, setup, r.base, err = setUp(ctx, cfg)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		st = newPassStream(cfg.seed, len(m.pairs))
		runLoad(ctx, l, m, st, len(m.pairs), t, time.Time{}, chk)
		r.setups = append(r.setups, (setup + time.Since(t)).Seconds())
		if i < cfg.setups-1 {
			if err := l.close(ctx); err != nil {
				return nil, err
			}
		}
	}
	before := l.pool.PlanStats()
	from := takeSnapshot()
	r.samples = runLoad(ctx, l, m, st, -1, from.at, from.at.Add(cfg.duration()), chk)
	to := takeSnapshot()
	r.meter.add(from, to)
	after := l.pool.PlanStats()
	r.hits, r.misses = after.Hits-before.Hits, after.Misses-before.Misses
	r.resident = after.Resident
	r.windows, r.update = warmPasses(m, r.samples)
	heaps := []float64{float64(liveHeap() - r.samplesBytes())}
	for len(heaps) < heapSamples && ctx.Err() == nil {
		burst := time.Now()
		runLoad(ctx, l, m, st, -1, burst, burst.Add(cfg.duration()/50), chk)
		heaps = append(heaps, float64(liveHeap()-r.samplesBytes()))
	}
	r.live = uint64(medianOf(heaps))
	if err := l.close(ctx); err != nil {
		return nil, err
	}
	return r, ctx.Err()
}

// warmPasses cuts warm-matrix's timed samples, in stream order, into
// its complete matrix passes, and returns them with each update's time
// to be answered against every view: views × the median latency of
// its requests in those passes. Two clients answer an update's requests
// interleaved with others', so there is no wall time of the update's
// own to take. A pass lasts from the last completion of the one before
// it (or the start of the timed phase) to its own last completion.
func warmPasses(m *matrix, samples []sample) ([]window, []float64) {
	n := len(m.pairs)
	var ws []window
	lat := make([][]float64, m.updates)
	var prev time.Duration
	for lo := 0; lo+n <= len(samples); lo += n {
		end := prev
		for _, s := range samples[lo : lo+n] {
			end = max(end, s.done)
			u := m.updateOf(s.idx)
			lat[u] = append(lat[u], ms(s.lat))
		}
		ws = append(ws, window{lo: lo, hi: lo + n, dur: end - prev})
		prev = end
	}
	var update []float64
	if len(ws) > 0 {
		for _, xs := range lat {
			update = append(update, float64(m.views)*medianOf(xs))
		}
	}
	return ws, update
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runE2E runs cfg's workload with tracing off.
func runE2E(ctx context.Context, cfg *config, chk *checker) (*e2eRun, error) {
	if cfg.workload == "cold-fig3a" {
		return runCold(ctx, cfg, chk)
	}
	return runWarm(ctx, cfg, chk)
}
