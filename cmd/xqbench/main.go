// Command xqbench regenerates the evaluation of the paper (Figure 3):
//
//	xqbench -fig 3a            per-update analysis time vs all 36 views
//	xqbench -fig 3b            precision vs ground truth (chains / types / paths)
//	xqbench -fig 3c            view re-materialisation savings
//	xqbench -fig 3d            R-benchmark scalability surface
//	xqbench -fig all           everything
//	xqbench -compiled-bench    dense compiled-schema engine vs the map
//	                           reference; writes BENCH_compiledschema.json
//	xqbench -audit-bench       request-path overhead of the runtime
//	                           verdict audit; writes BENCH_sentinel.json
//
// Flags tune the workload sizes; defaults regenerate the shapes of the
// paper on laptop-scale inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xqindep/internal/experiments"
	"xqindep/internal/xmark"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "panel to regenerate: 3a, 3b, 3c, 3d or all")
		docs     = flag.Int("truth-docs", 3, "documents sampled for the ground truth (3b)")
		factor   = flag.Float64("truth-factor", 1.2, "scale factor of ground-truth documents")
		cFactors = flag.String("c-factors", "1,4,16", "comma-separated document scale factors for 3c")
		dNs      = flag.String("d-ns", "1,3,5,10,20", "schema sizes n for 3d")
		dMs      = flag.String("d-ms", "1,5,10", "expression sizes m for 3d")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per analysis run (0 = none; overruns count as dependent)")
		maxNodes = flag.Int("max-nodes", 0, "CDAG node budget per analysis run (0 = default)")

		compiledBench = flag.Bool("compiled-bench", false, "benchmark the dense compiled-schema engine against the map reference and exit")
		benchPair     = flag.String("bench-pair", "A3:UB2", "view:update pair for -compiled-bench")
		benchOut      = flag.String("bench-out", "BENCH_compiledschema.json", "output file for -compiled-bench ('' = stdout table only)")

		auditBench = flag.Bool("audit-bench", false, "benchmark request-path overhead of the runtime verdict audit and exit")
		auditPair  = flag.String("audit-pair", "q1:UB2", "view:update pair for -audit-bench (an independent pair, so audits actually fire)")
		auditRate  = flag.Float64("audit-rate", 0.01, "sample rate for -audit-bench")
		auditReqs  = flag.Int("audit-requests", 2000, "requests per arm for -audit-bench")
		auditOut   = flag.String("audit-out", "BENCH_sentinel.json", "output file for -audit-bench ('' = stdout table only)")
	)
	flag.Parse()
	experiments.AnalysisTimeout = time.Duration(*timeout)
	experiments.AnalysisLimits.MaxNodes = *maxNodes

	if *compiledBench {
		runCompiledBench(*benchPair, *benchOut)
		return
	}
	if *auditBench {
		runAuditBench(*auditPair, *auditRate, *auditReqs, *auditOut)
		return
	}

	run3a := *fig == "3a" || *fig == "all"
	run3b := *fig == "3b" || *fig == "all"
	run3c := *fig == "3c" || *fig == "all"
	run3d := *fig == "3d" || *fig == "all"
	if !(run3a || run3b || run3c || run3d) {
		fmt.Fprintf(os.Stderr, "xqbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	if run3a {
		fmt.Println(experiments.RenderFigure3a(experiments.Figure3a()))
	}
	if run3b {
		truth, err := xmark.GroundTruth(xmark.SampleDocuments(*docs, *factor))
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqbench:", err)
			os.Exit(1)
		}
		rows, err := experiments.Figure3b(truth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqbench: SOUNDNESS VIOLATION:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderFigure3b(rows))
	}
	if run3c {
		fmt.Println(experiments.RenderFigure3c(experiments.Figure3c(parseFloats(*cFactors))))
	}
	if run3d {
		fmt.Println(experiments.RenderFigure3d(experiments.Figure3d(parseInts(*dNs), parseInts(*dMs))))
	}
}

// runCompiledBench measures the dense engine against the map-based
// reference on one XMark pair and writes the comparison as JSON — the
// committed BENCH_compiledschema.json is regenerated this way.
func runCompiledBench(pair, out string) {
	name := strings.SplitN(pair, ":", 2)
	if len(name) != 2 {
		fmt.Fprintf(os.Stderr, "xqbench: -bench-pair must be view:update, got %q\n", pair)
		os.Exit(2)
	}
	cb, err := experiments.MeasureCompiledBench(name[0], name[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(2)
	}
	fmt.Print(experiments.RenderCompiledBench(cb))
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(cb, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}

// runAuditBench measures request latency with and without the runtime
// verdict audit lane and writes the comparison as JSON — the committed
// BENCH_sentinel.json is regenerated this way.
func runAuditBench(pair string, rate float64, requests int, out string) {
	name := strings.SplitN(pair, ":", 2)
	if len(name) != 2 {
		fmt.Fprintf(os.Stderr, "xqbench: -bench-pair must be view:update, got %q\n", pair)
		os.Exit(2)
	}
	ab, err := experiments.MeasureAuditBench(name[0], name[1], rate, requests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(2)
	}
	fmt.Print(experiments.RenderAuditBench(ab))
	if ab.Audits.Disagreements > 0 {
		fmt.Fprintln(os.Stderr, "xqbench: SOUNDNESS VIOLATION: audit disagreements on a fault-free run")
		os.Exit(1)
	}
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(ab, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}

func parseInts(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: bad integer %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: bad number %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
