// Command xqindep decides XML query-update independence for a schema.
//
// Usage:
//
//	xqindep -schema FILE -query QUERY -update UPDATE [-method M] [-explain]
//
// The schema file may use compact ("a <- (b | c)*") or classic
// <!ELEMENT> notation. Methods: chains (default, the CDAG engine),
// chains-exact, types, paths, or all.
//
// -explain lists the chains the chains method's CDAG engine infers for
// the pair under the default limits: k-chains only, update chains whole
// (c.c'), at most 64 per list, with a note when a list was cut.
//
// -lint warns when the query or the update matches zero chains under
// the schema: such a pair is trivially independent, which almost
// always means a typo in a path step rather than a real workload.
//
// -update2 checks commutativity of -update and -update2 instead, on the
// explicit-set engine under the default limits: when that budget runs
// out the answer is "possibly order-dependent" with exit status 3.
// -preserve also checks that -update keeps valid documents valid.
//
// Resource limits: -timeout bounds wall-clock time, -max-nodes,
// -max-chains and -max-k bound the analysis state. When a limit is
// hit the analysis degrades to a weaker sound method (down to the
// conservative "possibly DEPENDENT"), unless -no-fallback is given,
// in which case the overrun is an error.
//
// -show-plan reports whether the verdict came from a warm prepared
// plan or a cold build, plus the plan cache key — the schema
// fingerprint and the pair fingerprint, a 128-bit digest in 32 hex
// characters that sugared variants of the same logical pair share —
// and, separately, the query and update fingerprints, which are not
// part of the key.
//
// -trace prints the per-phase span tree of the analysis after the
// verdict: ladder rungs as spans, the engine's fault-point boundaries
// (plan pipeline stages, inference, conflict check) as phase marks
// with the budget's node/chain consumption at each. It is the one-shot
// form of the daemon's /tracez.
//
// -audit re-derives an Independent verdict on independent machinery —
// the reference chain engine plus a dynamic-oracle replay on generated
// documents — exactly as the daemon's runtime audit lane would. It is
// the one-shot form of xqindepd's -audit-rate: use it to vet a verdict
// before acting on it, or to reproduce a daemon incident offline.
//
// Exit status: 0 when independence is detected, 1 when it is not,
// 2 on usage or parse errors, 3 when the verdict is degraded (a
// budget was exceeded and a weaker method answered), 4 when -audit
// refutes an Independent verdict (an unsoundness incident: the fast
// engine and the audit machinery disagree).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"xqindep"
	"xqindep/internal/core"
	"xqindep/internal/obs"
	"xqindep/internal/sentinel"
	"xqindep/internal/xquery"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		schemaFile  = flag.String("schema", "", "schema file (compact or <!ELEMENT> notation)")
		queryText   = flag.String("query", "", "query expression")
		updateText  = flag.String("update", "", "update expression")
		update2Text = flag.String("update2", "", "second update: check commutativity instead of independence")
		methodName  = flag.String("method", "chains", "analysis: chains, chains-exact, types, paths, or all")
		explain     = flag.Bool("explain", false, "print the chains the chains method infers (k-chains, update chains c.c', at most 64 per list)")
		preserveU   = flag.Bool("preserve", false, "also check whether the update preserves the schema")
		timeout     = flag.Duration("timeout", 0, "analysis wall-clock budget (0 = none)")
		maxNodes    = flag.Int("max-nodes", 0, "CDAG node budget (0 = default)")
		maxChains   = flag.Int("max-chains", 0, "explicit chain-set budget (0 = default)")
		maxK        = flag.Int("max-k", 0, "largest accepted multiplicity k (0 = default)")
		noFallback  = flag.Bool("no-fallback", false, "fail on budget overrun instead of degrading to a weaker method")
		lint        = flag.Bool("lint", false, "warn when the query or update matches zero chains under the schema (usually a path typo)")
		audit       = flag.Bool("audit", false, "re-derive an Independent verdict on the audit machinery (shadow engine + dynamic oracle); exit 4 on disagreement")
		showPlan    = flag.Bool("show-plan", false, "print prepared-plan provenance (warm/cold), the plan cache key (schema and pair fingerprints) and the expression fingerprints")
		traceF      = flag.Bool("trace", false, "print the per-phase span trace of the analysis (ladder rungs, plan pipeline stages, engine phase marks)")
	)
	flag.Parse()
	if *schemaFile == "" || *updateText == "" || (*queryText == "" && *update2Text == "") {
		fmt.Fprintln(os.Stderr, "usage: xqindep -schema FILE -update UPDATE (-query QUERY | -update2 UPDATE) [-method M] [-explain] [-preserve]")
		flag.PrintDefaults()
		return 2
	}
	schemaBytes, err := os.ReadFile(*schemaFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep:", err)
		return 2
	}
	schema, err := xqindep.ParseSchema(string(schemaBytes))
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep:", err)
		return 2
	}
	u, err := xqindep.ParseUpdate(*updateText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep: update:", err)
		return 2
	}
	if *preserveU {
		ok, reasons := schema.PreservesSchema(u)
		if ok {
			fmt.Println("schema-preservation: GUARANTEED")
		} else {
			fmt.Println("schema-preservation: cannot be guaranteed")
			for _, r := range reasons {
				fmt.Printf("  %s\n", r)
			}
		}
	}
	if *update2Text != "" {
		u2, err := xqindep.ParseUpdate(*update2Text)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindep: update2:", err)
			return 2
		}
		ok, err := schema.Commute(u, u2)
		switch {
		case errors.Is(err, xqindep.ErrBudgetExceeded):
			fmt.Printf("commutativity: possibly order-dependent  [%v]\n", err)
			return 3
		case err != nil:
			fmt.Fprintln(os.Stderr, "xqindep:", err)
			return 2
		case ok:
			fmt.Println("commutativity: COMMUTE")
			return 0
		}
		fmt.Println("commutativity: possibly order-dependent")
		return 1
	}
	q, err := xqindep.ParseQuery(*queryText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep: query:", err)
		return 2
	}

	var methods []xqindep.Method
	if *methodName == "all" {
		methods = []xqindep.Method{xqindep.Chains, xqindep.ChainsExact, xqindep.Types, xqindep.Paths}
	} else {
		m, err := core.ParseMethod(*methodName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindep:", err)
			return 2
		}
		methods = []xqindep.Method{m}
	}

	opts := xqindep.Options{
		Limits: xqindep.Limits{
			MaxNodes:  *maxNodes,
			MaxChains: *maxChains,
			MaxK:      *maxK,
		},
		NoFallback: *noFallback,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var tr *obs.Trace
	if *traceF {
		tr = obs.NewTrace(time.Now)
		ctx = obs.NewContext(ctx, tr)
	}

	independent := true
	degraded := false
	for _, m := range methods {
		rep, err := schema.AnalyzeContext(ctx, q, u, m, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindep:", err)
			return 2
		}
		verdict := "INDEPENDENT"
		if !rep.Independent {
			verdict = "possibly DEPENDENT"
		}
		fmt.Printf("%-12s  %-18s", rep.Method, verdict)
		if rep.K > 0 {
			fmt.Printf("  k=%d", rep.K)
		}
		fmt.Printf("  (%s)", rep.Elapsed.Round(10*time.Microsecond))
		if rep.Degraded {
			fmt.Printf("  [degraded from %s: %v]", m, rep.Err)
		}
		if *showPlan && rep.Plan != "" {
			fmt.Printf("  plan=%s", rep.Plan)
		}
		fmt.Println()
		for _, w := range rep.Witnesses {
			fmt.Printf("    conflict: %s\n", w)
		}
		if m == methods[0] {
			independent = rep.Independent
			degraded = rep.Degraded
		}
	}
	if *showPlan {
		fmt.Printf("\nplan cache key:\n  schema  %s\n  pair    %s\nexpression fingerprints:\n  query   %s\n  update  %s\n",
			schema.Fingerprint(), xqindep.PairFingerprint(q, u), q.Fingerprint(), u.Fingerprint())
	}
	if tr != nil {
		fmt.Println("\ntrace:")
		obs.WriteTree(os.Stdout, tr.Finish())
	}
	if *explain || *lint {
		ev, err := schema.ExplainChains(q, u)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqindep:", err)
			return 2
		}
		if *explain {
			fmt.Printf("\nchains (k=%d):\n", ev.K)
			printChains("return", ev.Return)
			printChains("used", ev.Used)
			printChains("element", ev.Element)
			printChains("update", ev.Update)
			if ev.Truncated {
				fmt.Println("  (truncated: a list above stops at its first 64 chains)")
			}
		}
		if *lint {
			for _, w := range lintWarnings(ev) {
				fmt.Fprintln(os.Stderr, "xqindep:", w)
			}
		}
	}
	if *audit && independent {
		if code := runAudit(schema, *queryText, *updateText); code != 0 {
			return code
		}
	}
	if degraded {
		return 3
	}
	if independent {
		return 0
	}
	return 1
}

// runAudit is the one-shot form of the daemon's audit lane: feed the
// Independent verdict through a sample-rate-1 auditor and report the
// outcome. A disagreement means the fast engine's proof did not
// survive re-derivation on independent machinery.
func runAudit(schema *xqindep.Schema, queryText, updateText string) int {
	q, err := xquery.ParsePreparedQuery(queryText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep: audit:", err)
		return 2
	}
	u, err := xquery.ParsePreparedUpdate(updateText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqindep: audit:", err)
		return 2
	}
	aud := sentinel.New(sentinel.Config{SampleRate: 1})
	defer aud.Close()
	aud.Observe(sentinel.Observation{
		D:      schema.DTD(),
		Query:  q,
		Update: u,
		// Deliberately unproven verdict: -audit feeds the sentinel a
		// fabricated Independent=true to demonstrate refutation.
		//xqvet:ignore verdictflow fabricated verdict exercises the sentinel refutation path on purpose
		Result: core.Result{Independent: true, Method: core.MethodChains},
	})
	aud.Flush()
	st := aud.Stats()
	switch {
	case st.Disagreements > 0:
		fmt.Println("audit: REFUTED — the Independent verdict did not survive re-derivation")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, in := range aud.Incidents() {
			_ = enc.Encode(in)
		}
		return 4
	case st.Inconclusive > 0:
		fmt.Println("audit: inconclusive (audit budget exhausted; verdict unconfirmed)")
		return 0
	default:
		fmt.Println("audit: confirmed by shadow engine and dynamic oracle")
		return 0
	}
}

func printChains(label string, chains []string) {
	fmt.Printf("  %-8s", label)
	if len(chains) == 0 {
		fmt.Println("(none)")
		return
	}
	fmt.Println()
	for _, c := range chains {
		fmt.Printf("    %s\n", c)
	}
}
