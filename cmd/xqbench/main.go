// Command xqbench regenerates the evaluation of the paper (Figure 3):
//
//	xqbench -fig 3a            per-update analysis time vs all 36 views,
//	                           each pair alone and through one plan cache
//	xqbench -fig 3b            precision vs ground truth (chains / types / paths)
//	xqbench -fig 3c            view re-materialisation savings
//	xqbench -fig 3d            R-benchmark scalability surface
//	xqbench -fig all           everything
//
// Flags tune the workload sizes; defaults regenerate the shapes of the
// paper on laptop-scale inputs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"xqindep/internal/experiments"
	"xqindep/internal/xmark"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is xqbench on args: tables go to stdout, diagnostics to stderr,
// and the result is the exit status (2 for a usage error, 1 for a
// failed panel).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "panel to regenerate: 3a, 3b, 3c, 3d or all")
		docs     = fs.Int("truth-docs", 3, "documents sampled for the ground truth (3b), at least 1")
		factor   = fs.Float64("truth-factor", 1.2, "scale factor of ground-truth documents")
		cFactors = fs.String("c-factors", "1,4,16", "comma-separated document scale factors for 3c")
		dNs      = fs.String("d-ns", "1,3,5,10,20", "schema sizes n for 3d, each at least 1")
		dMs      = fs.String("d-ms", "1,5,10", "expression sizes m for 3d, each at least 1")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget per chain analysis of 3a–3c (0 = none; overruns count as dependent)")
		maxNodes = fs.Int("max-nodes", 0, "CDAG node budget per chain analysis of 3a–3c (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	experiments.AnalysisTimeout = time.Duration(*timeout)
	experiments.AnalysisLimits.MaxNodes = *maxNodes

	run3a := *fig == "3a" || *fig == "all"
	run3b := *fig == "3b" || *fig == "all"
	run3c := *fig == "3c" || *fig == "all"
	run3d := *fig == "3d" || *fig == "all"
	if !(run3a || run3b || run3c || run3d) {
		fmt.Fprintf(stderr, "xqbench: unknown figure %q\n", *fig)
		return 2
	}
	// Every value is checked before the first panel runs, so a bad
	// flag costs no minutes of work.
	factors, err := parseFloats(*cFactors)
	var ns, ms []int
	if err == nil {
		ns, err = parseCounts("d-ns", *dNs)
	}
	if err == nil {
		ms, err = parseCounts("d-ms", *dMs)
	}
	if err == nil && *docs < 1 {
		err = fmt.Errorf("-truth-docs: %d is below 1", *docs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "xqbench:", err)
		return 2
	}

	if run3a {
		fmt.Fprintln(stdout, experiments.RenderFigure3a(experiments.Figure3a()))
	}
	if run3b {
		truth, err := xmark.GroundTruth(xmark.SampleDocuments(*docs, *factor))
		if err != nil {
			fmt.Fprintln(stderr, "xqbench:", err)
			return 1
		}
		rows, err := experiments.Figure3b(truth)
		if err != nil {
			fmt.Fprintln(stderr, "xqbench: SOUNDNESS VIOLATION:", err)
			return 1
		}
		fmt.Fprintln(stdout, experiments.RenderFigure3b(rows))
	}
	if run3c {
		fmt.Fprintln(stdout, experiments.RenderFigure3c(experiments.Figure3c(factors)))
	}
	if run3d {
		fmt.Fprintln(stdout, experiments.RenderFigure3d(experiments.Figure3d(ns, ms)))
	}
	return 0
}

// parseCounts parses the comma-separated integers of flag name, each
// at least 1.
func parseCounts(name, s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		if v < 1 {
			return nil, fmt.Errorf("-%s: %d is below 1", name, v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
