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
	)
	flag.Parse()
	experiments.AnalysisTimeout = time.Duration(*timeout)
	experiments.AnalysisLimits.MaxNodes = *maxNodes

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
