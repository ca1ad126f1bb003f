// Command xqindepd serves the independence analysis as an always-on
// daemon: counted admission control (each request runs on its own
// goroutine, at most -workers analyses run at once, at most -queue
// more wait, and the rest are shed under burst), per-schema circuit
// breaking, per-request resource budgets subdivided from a pool-wide
// limit, and graceful drain on SIGTERM/SIGINT.
//
// HTTP mode (default):
//
//	xqindepd -addr :8080
//	curl -s localhost:8080/analyze -d '{
//	  "schema": "bib <- book*\nbook <- title\ntitle <- #PCDATA",
//	  "query": "//title",
//	  "update": "for $x in //book return insert <author/> into $x"
//	}'
//
// Endpoints: POST /analyze (JSON in/out), GET /healthz (liveness),
// GET /readyz (readiness: 503 while draining), GET /statz (counters
// and latency digests), GET /metricz (Prometheus text exposition),
// GET /tracez (the -trace-ring slowest request traces as span trees),
// GET /incidentz (audit incidents and quarantine state). Verdicts
// answer 200 (degraded, breaker-served and quarantine-served verdicts
// included); 400 malformed input, 429 shed by admission control, 503
// draining. 429/503 responses carry a Retry-After hint.
//
// A request with "trace": true gets its own span tree back in the
// response's "trace" field, whether or not the ring is enabled. With
// -debug-addr the daemon additionally serves net/http/pprof on a
// separate listener (keep it off public interfaces).
//
// Repeated (schema, query, update) pairs are served from a bounded
// prepared-plan cache keyed on content fingerprints (size set by
// -plan-cache); /statz reports its hit ratio under "plan_cache" and
// responses carry "plan": "warm"/"cold" provenance.
//
// With -audit-rate > 0 the daemon samples Independent verdicts and
// re-derives them off the request path on independent machinery (the
// reference chain engine plus a dynamic-oracle replay); a disagreement
// is an unsoundness incident that quarantines the schema fingerprint —
// its verdicts degrade to the conservative "not independent" until
// clean retrials recover it. Incidents appear on /incidentz and, with
// -audit-spool, as a size-capped rotating JSONL trail; -audit-spool
// without -audit-rate exits with status 2.
//
// With -state-dir the containment state is durable: every quarantine
// transition replaces one checksummed state file with the whole
// registry (fsynced before the transition returns) and incidents
// spool under the directory; a restarted daemon restores the state
// file before admitting work, so a fingerprint quarantined before a
// crash is still refused after it. The boot recovery summary goes to
// stderr and the live counters to /statz under "durability". A
// directory holding a non-empty journal.<gen> from the release that
// kept a journal is refused with exit status 2.
//
// Batch mode reads one JSON request per stdin line and writes one
// JSON response per stdout line, in order:
//
//	xqindepd -batch -schema auction.dtd < pairs.jsonl > verdicts.jsonl
//
// Lines may omit "schema" when -schema provides a default. Blank
// lines and #-comments are skipped.
//
// Shutdown: on SIGTERM or SIGINT the daemon stops admitting
// (/readyz turns 503), lets in-flight analyses finish for -drain,
// then cancels the rest; every analysis observes cancellation
// cooperatively, so shutdown always completes promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xqindep"
	"xqindep/internal/statefile"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		batch     = flag.Bool("batch", false, "read requests from stdin (one JSON object per line) instead of serving HTTP")
		schemaF   = flag.String("schema", "", "schema file used as the default for batch lines without one")
		workers   = flag.Int("workers", 0, "analyses that run at once, each on its request's goroutine (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admitted requests that may wait for a run slot (0 = 2x workers); beyond workers+queue, requests are shed with HTTP 429")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request analysis wall-clock budget")
		drain     = flag.Duration("drain", 10*time.Second, "graceful drain deadline on shutdown")
		maxNodes  = flag.Int("max-nodes", 0, "pool-wide CDAG node budget, subdivided across the run slots (0 = default)")
		maxChains = flag.Int("max-chains", 0, "pool-wide explicit chain-set budget, subdivided across the run slots (0 = default)")
		maxK      = flag.Int("max-k", 0, "largest accepted multiplicity k (0 = default)")
		noFall    = flag.Bool("no-fallback", false, "fail on budget overrun instead of degrading to a weaker method")
		brkN      = flag.Int("breaker-threshold", 5, "consecutive budget blowups on one schema that open its circuit breaker (-1 disables)")
		brkOff    = flag.Duration("breaker-backoff", time.Second, "initial circuit-breaker open duration (doubles per re-open)")
		brkMax    = flag.Duration("breaker-max-backoff", 60*time.Second, "circuit-breaker backoff cap")
		brkJitter = flag.Float64("breaker-jitter", 0.2, "breaker backoff jitter fraction in [0,1)")
		brkSeed   = flag.Int64("breaker-seed", 0, "breaker jitter seed (0 = fixed default)")

		auditRate   = flag.Float64("audit-rate", 0, "fraction of Independent verdicts re-derived off the request path by the audit lane (0 disables, 1 audits all)")
		auditBudget = flag.Int("audit-budget", 0, "node/chain budget per audit re-derivation (0 = audit-lane defaults)")
		quarAfter   = flag.Int("quarantine-after", 1, "audit disagreements on one schema fingerprint that quarantine it")
		auditSeed   = flag.Int64("audit-seed", 0, "audit sampling and oracle-document seed (0 = fixed default)")
		auditSpool  = flag.String("audit-spool", "", "append audit incidents as JSON lines to this file (size-capped; rotated copies kept alongside)")
		spoolMax    = flag.Int64("audit-spool-max", 0, "rotate -audit-spool after this many bytes (0 = 8 MiB); 4 rotated files are kept")
		stateDir    = flag.String("state-dir", "", "durable state directory: quarantine decisions and audit incidents survive restarts (empty disables)")
		memMark     = flag.Uint64("mem-watermark", 0, "shed admissions while heap usage exceeds this many bytes (0 disables)")
		planCache   = flag.Int("plan-cache", 0, "resident prepared-plan bound; repeated (schema, query, update) pairs reuse the compiled analysis (0 = 4096, below 0 keeps one plan)")
		traceRing   = flag.Int("trace-ring", 64, "retain the N slowest request traces for GET /tracez (0 disables)")
		debugAddr   = flag.String("debug-addr", "", "opt-in debug listener serving net/http/pprof (keep it off public interfaces; empty disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: xqindepd [-addr :8080 | -batch] [flags]")
		flag.PrintDefaults()
		return 2
	}

	if *auditSpool != "" && *auditRate <= 0 {
		// Only the audit lane writes incidents: without it the spool
		// would stay empty for the life of the daemon.
		fmt.Fprintln(os.Stderr, "xqindepd: -audit-spool records audit incidents and needs -audit-rate > 0")
		return 2
	}

	var defaultSchema string
	if *schemaF != "" {
		b, err := os.ReadFile(*schemaF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindepd:", err)
			return 2
		}
		defaultSchema = string(b)
	}

	// The incident spool is a rotating, size-capped JSONL chain
	// (<file>, <file>.1, ...); the audit lane's drain flushes it, so a
	// SIGTERM never strands buffered incidents.
	var spool *statefile.Spool
	if *auditSpool != "" {
		dir, base := filepath.Split(filepath.Clean(*auditSpool))
		if dir == "" {
			dir = "."
		}
		sp, err := statefile.OpenSpool(statefile.OS(), filepath.Clean(dir), base, *spoolMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindepd:", err)
			return 2
		}
		spool = sp
		defer spool.Close()
	}

	opts := xqindep.PoolOptions{
		Workers:        *workers,
		QueueDepth:     *queue,
		Limits:         xqindep.Limits{MaxNodes: *maxNodes, MaxChains: *maxChains, MaxK: *maxK},
		RequestTimeout: *timeout,
		NoFallback:     *noFall,
		DrainTimeout:   *drain,

		BreakerThreshold:  *brkN,
		BreakerBackoff:    *brkOff,
		BreakerMaxBackoff: *brkMax,
		BreakerJitter:     *brkJitter,
		BreakerSeed:       *brkSeed,

		AuditRate:       *auditRate,
		AuditBudget:     *auditBudget,
		QuarantineAfter: *quarAfter,
		AuditSeed:       *auditSeed,
		MemoryWatermark: *memMark,
		StateDir:        *stateDir,
		PlanCacheSize:   *planCache,
		TraceRing:       *traceRing,
	}
	if spool != nil {
		opts.AuditSpool = spool
	}
	pool := xqindep.NewPool(opts)

	if *stateDir != "" {
		st, err := pool.StateStatus()
		if err != nil {
			// A daemon asked for durability must not silently serve
			// without it.
			fmt.Fprintln(os.Stderr, "xqindepd:", err)
			pool.Close()
			return 2
		}
		fmt.Fprintf(os.Stderr,
			"xqindepd: state %s: restored %d quarantined fingerprint(s) (snapshot=%v)\n",
			st.Dir, st.RestoredFingerprints, st.SnapshotLoaded)
		if st.SnapshotCorrupt {
			fmt.Fprintf(os.Stderr,
				"xqindepd: state %s: the state file is corrupt; the quarantine registry starts empty\n", st.Dir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	if *batch {
		err := pool.RunBatch(ctx, os.Stdin, os.Stdout, defaultSchema)
		cerr := pool.Close()
		if err != nil && err != context.Canceled {
			fmt.Fprintln(os.Stderr, "xqindepd:", err)
			return 1
		}
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "xqindepd: drain:", cerr)
			return 1
		}
		return 0
	}

	fmt.Fprintf(os.Stderr, "xqindepd: serving on %s (workers=%d queue=%d)\n",
		*addr, *workers, *queue)
	if err := xqindep.Serve(ctx, *addr, pool); err != nil {
		fmt.Fprintln(os.Stderr, "xqindepd:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "xqindepd: drained, bye")
	return 0
}
