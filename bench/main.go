// Command bench is the serving benchmark of xqindep: it starts the
// real pool and HTTP front end in process, drives them over loopback
// HTTP with closed-loop clients on one of two XMark workloads, checks
// every verdict against a golden table derived on the reference engine,
// and prints its metrics, the last line of standard output being one
// JSON object.
//
//	go run . -workload cold-fig3a -seed 1 -seconds 30 -trace 0
//
// -trace 1 replaces the end-to-end metrics by per-layer ones from a
// traced single-goroutine replay of the same stream; -runs N repeats
// the invocation in N fresh processes and summarises them. README.md
// defines the workloads and every metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloads = []string{"cold-fig3a", "warm-matrix"}

// config is one invocation. The sizing fields are fixed by the
// benchmark; only tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string

	views, updates int // matrix size, 0 = the full 36 × 31
	setups         int // set-ups per run, setup_s is their median
	replay         int // cap on the traced replay's slice, 0 = none
	// wrap, when set, wraps the pool's handler (tests inject faults).
	wrap func(http.Handler) http.Handler
}

func defaultConfig(workload string) config {
	cfg := config{workload: workload, seed: 1, seconds: 30, setups: 3}
	if workload == "cold-fig3a" {
		// Its set-up takes milliseconds, so a median needs more of them.
		cfg.setups = 15
	}
	return cfg
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// unbounded names the end-to-end metrics BENCHMARK.json does not
// declare: a run prints them on standard error and -runs summarises
// them, but the result line leaves them out. They are the wall-clock
// latencies and throughput. On the 2-vCPU baseline host the same code
// runs 20 to 60% slower for minutes at a time, so over ten consecutive
// runs their spread exceeds the largest bound a benchmark may fix.
// Comparing them takes alternating runs of the two commits instead
// (README.md).
var unbounded = map[string]bool{
	"req_p50_ms": true, "req_p99_ms": true, "rps": true, "update_p50_ms": true, "update_max_ms": true,
}

// e2eMetrics are the end-to-end metrics of an untraced run. Each
// latency and throughput is taken per matrix pass and reported as the
// quartile over passes on its better side: the lower one for
// latencies, the upper one for throughput. Other tenants of the host
// only ever add time, so the better quartile follows the program's own
// cost more closely than the median does, while a change to the
// program moves every pass.
//
// These timings are unbounded (see unbounded). The counts and the heap
// repeat to within 0.1%.
func e2eMetrics(r *e2eRun, log io.Writer) []metric {
	var p50, p99, rps []float64
	n := 0
	for _, w := range r.windows {
		samples := r.window(w)
		n += len(samples)
		lat := make([]float64, len(samples))
		for i, s := range samples {
			lat[i] = ms(s.lat)
		}
		d := newDist(lat)
		if b := d.beyond(0.99); b < minBeyond {
			fmt.Fprintf(log, "bench: warning: a pass has only %d samples beyond p99 (want %d)\n", b, minBeyond)
		}
		p50 = append(p50, d.median())
		p99 = append(p99, d.quantile(0.99))
		rps = append(rps, float64(len(samples))/w.dur.Seconds())
	}
	upd := newDist(r.update)
	per := float64(max(len(r.samples), 1))
	return []metric{
		{"setup_s", "s", medianOf(r.setups), len(r.setups)},
		{"allocs_per_req", "count", float64(r.meter.mallocs) / per, n},
		{"alloc_kb_per_req", "KiB", float64(r.meter.bytes) / 1024 / per, n},
		{"live_heap_mb", "MiB", float64(r.live) / (1 << 20), 1},
		{"req_p50_ms", "ms", lowerQuartile(p50), n},
		{"req_p99_ms", "ms", lowerQuartile(p99), n},
		{"rps", "1/s", upperQuartile(rps), n},
		{"update_p50_ms", "ms", upd.median(), len(upd)},
		{"update_max_ms", "ms", upd.quantile(1), len(upd)},
	}
}

// servedLayerMetrics are the per-layer metrics only a served stream
// shows, taken from the untraced part of a traced run.
func servedLayerMetrics(r *e2eRun) []metric {
	n := len(r.samples)
	per := float64(max(n, 1))
	wire := make([]float64, n)
	for i, s := range r.samples {
		wire[i] = us(s.wire)
	}
	hitRatio := 0.0
	if t := r.hits + r.misses; t > 0 {
		hitRatio = float64(r.hits) / float64(t)
	}
	residentKB := 0.0
	if r.resident > 0 && r.live > r.base {
		residentKB = float64(r.live-r.base) / 1024 / float64(r.resident)
	}
	gcPct := 0.0
	if r.meter.totalCPU > 0 {
		gcPct = 100 * r.meter.gcCPU / r.meter.totalCPU
	}
	return []metric{
		{"server.wire_us", "us", medianOf(wire), n},
		{"plan.hit_ratio", "ratio", hitRatio, int(r.hits + r.misses)},
		{"plan.resident_kb_per_plan", "KiB", residentKB, int(r.resident)},
		{"runtime.gc_cpu_pct", "%", gcPct, n},
		{"runtime.gc_per_kreq", "1/kreq", 1000 * float64(r.meter.gcs) / per, n},
	}
}

// run executes one invocation and returns its result.
func run(ctx context.Context, cfg *config, log io.Writer) (resultJSON, []metric, error) {
	chk := &checker{log: log}
	var (
		ms  []metric
		err error
	)
	if cfg.trace {
		ms, err = runTraced(ctx, cfg, chk, log)
	} else {
		var r *e2eRun
		if r, err = runE2E(ctx, cfg, chk); err == nil {
			ms = e2eMetrics(r, log)
		}
	}
	if err != nil {
		return resultJSON{}, nil, err
	}
	res := resultJSON{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metricJSON, len(ms)),
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// No sample (a run too short to see one); JSON has no NaN.
			fmt.Fprintf(log, "bench: warning: %s has no value\n", m.name)
			v = 0
		}
		if !unbounded[m.name] {
			res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		}
	}
	return res, ms, nil
}

func main() {
	os.Exit(realMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr, nil))
}

// realMain runs the command and returns its exit code: 0 when every
// checked verdict matched the golden table, 1 when one did not (the
// result line is still printed), 2 on a usage or set-up error (no
// result line). tune, when non-nil, adjusts the parsed configuration
// (tests shrink the run and inject faults through it).
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer, tune func(*config)) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: cold-fig3a or warm-matrix")
	seed := fs.Int64("seed", 1, "seed of the generated request stream")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the replay's spans to this JSON file (default .bench_build/spans-<workload>.json)")
	runs := fs.Int("runs", 0, "repeat the invocation in N fresh processes and summarise the metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := defaultConfig(*workload)
	cfg.seed, cfg.seconds, cfg.trace, cfg.spans = *seed, *seconds, *trace == 1, *spans
	if !validWorkload(cfg.workload) || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "usage: bench -workload cold-fig3a|warm-matrix [-seed n] [-seconds s] [-trace 0|1] [-spans file] [-runs n]")
		return 2
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".json")
	}
	if tune != nil {
		tune(&cfg)
	}
	if *runs > 0 {
		return repeat(ctx, &cfg, *runs, stdout, stderr)
	}
	res, ms, err := run(ctx, &cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stderr, "%s seed %d (%d attempted, %d failed); metrics marked * are not in the result line\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, m := range ms {
		name := m.name
		if unbounded[m.name] {
			name += "*"
		}
		fmt.Fprintf(stderr, "  %-28s %14.6g %-7s n=%d\n", name, m.value, m.unit, m.n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// repeat runs the invocation n times, each in a fresh process so the
// process-wide caches start empty, and prints each metric's median,
// quartiles and spread, then one JSON line of the medians. It covers
// the unbounded metrics too, read from each run's table on standard
// error.
func repeat(ctx context.Context, cfg *config, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	args := []string{
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", "0",
	}
	if cfg.trace {
		args = append(args[:len(args)-1], "1", "-spans", cfg.spans)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	total := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for i := 0; i < n; i++ {
		var out, table bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = &out, io.MultiWriter(stderr, &table)
		err := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v (%v)\n", i+1, perr, err)
			return 2
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		ms := tableMetrics(table.Bytes())
		for name, m := range res.Metrics {
			ms[name] = m // the result line has every digit
		}
		for name, m := range ms {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "%s seed %d, %d runs\n%-28s %-7s %14s %14s %14s %8s\n", cfg.workload, cfg.seed, n, "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(stderr, "%-28s %-7s %14.4f %14.4f %14.4f %7.1f%%\n", name, units[name], q1, q2, q3, 100*spread)
		total.Metrics[name] = metricJSON{Value: q2, Unit: units[name]}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// tableMetrics reads the metric table a run printed on standard
// error: lines of name, value, unit and sample count.
func tableMetrics(out []byte) map[string]metricJSON {
	got := map[string]metricJSON{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || !strings.HasPrefix(f[3], "n=") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			got[strings.TrimSuffix(f[0], "*")] = metricJSON{Value: v, Unit: f[2]}
		}
	}
	return got
}

// lastResult decodes the result line a run printed last.
func lastResult(out []byte) (resultJSON, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = sc.Text()
		}
	}
	var res resultJSON
	if last == "" {
		return res, fmt.Errorf("no result line")
	}
	return res, json.Unmarshal([]byte(last), &res)
}
