// Package experiments regenerates every panel of the paper's Figure 3
// (Section 6.2) as structured rows: per-update analysis runtime (3.a),
// precision of chains vs the type baseline (3.b), view
// re-materialisation savings (3.c) and the R-benchmark scalability
// surface (3.d). The rows are rendered by cmd/xqbench; the package's
// testing.B benchmarks time the same units the Figure3x functions time.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xqindep/internal/cdag"
	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/pathanalysis"
	"xqindep/internal/plan"
	"xqindep/internal/rbench"
	"xqindep/internal/typeanalysis"
	"xqindep/internal/xmark"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// AnalysisTimeout and AnalysisLimits bound every individual chain
// analysis of the benchmark (zero values mean defaults / no deadline).
// cmd/xqbench wires its -timeout and -max-nodes flags here. A run
// that exceeds the budget is counted as "not independent" — the
// conservative reading, which keeps the soundness assertion of
// Figure3b meaningful.
var (
	AnalysisTimeout time.Duration
	AnalysisLimits  guard.Limits
)

// budgeted runs f under a fresh package budget and returns its
// overrun, if any.
func budgeted(f func(b *guard.Budget)) error {
	ctx := context.Background() //xqvet:ignore ctxflow experiments run standalone off package-level knobs; there is no caller context
	if AnalysisTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, AnalysisTimeout)
		defer cancel()
	}
	b := guard.New(ctx, AnalysisLimits)
	return guard.Do(func() { f(b) })
}

// analysis names one of the static analyses Figure 3 compares.
type analysis string

const (
	chains analysis = "chains" // the CDAG engine, under the package budget
	types  analysis = "types"  // the type-set baseline [6]
	paths  analysis = "paths"  // the schema-less path baseline
)

// verdicts is one update's pass over the 36 views under a: element i
// reports whether a proves u independent of the i-th view. A chain
// analysis that overruns the package budget counts as dependent.
func verdicts(a analysis, u xmark.Upd) ([]bool, error) {
	d, views := xmark.Schema(), xmark.Views()
	var ta *typeanalysis.Analyzer
	if a == types {
		ta = typeanalysis.New(d)
	}
	indep := make([]bool, len(views))
	for i, v := range views {
		switch a {
		case chains:
			budgeted(func(b *guard.Budget) { indep[i] = cdag.IndependenceBudget(d, v.AST, u.AST, b).Independent })
		case types:
			indep[i] = ta.CheckIndependence(v.AST, u.AST).Independent
		case paths:
			pv, err := pathanalysis.Independence(v.AST, u.AST)
			if err != nil {
				return nil, fmt.Errorf("experiments: path analysis %s-%s: %v", u.Name, v.Name, err)
			}
			indep[i] = pv.Independent
		}
	}
	return indep, nil
}

// shared builds u against the 36 views cold through one fresh plan
// cache, whose update tier infers u once per depth bound the views
// need rather than once per view. u is prepared once per pass and each
// view once, as a server that keeps prepared sides prepares them. An
// overrun is timed like a verdict.
func shared(u xmark.Upd) {
	d, views := xmark.Schema(), xmark.Views()
	cache := plan.NewCache(len(views))
	us := xquery.PrepareUpdate(u.Text, u.AST)
	for _, v := range views {
		budgeted(func(b *guard.Budget) {
			qs := xquery.PrepareQuery(v.Text, v.AST)
			plan.PrepareSchema(cache, d, qs, us, b)
		})
	}
}

// timed returns how long f takes.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Figure3aRow is one bar of Figure 3.a: the time to analyse one update
// against all 36 views, per technique.
type Figure3aRow struct {
	Update string
	// Chains is the CDAG engine time for the 36 pairs, each analysed
	// on its own: the update is inferred once per view.
	Chains time.Duration
	// Shared is the time for the same 36 pairs built cold through one
	// fresh plan cache, whose update tier infers the update once per
	// depth bound the views need rather than once per view.
	Shared time.Duration
	// Types is the type-set baseline time for the 36 pairs.
	Types time.Duration
	// KMin and KMax are the range of Table 3's multiplicity k = kq+ku
	// across the views. It is computed from the pairs, not read off
	// the verdicts, so an analysis that overran its budget still
	// counts with its k.
	KMin, KMax int
}

// Figure3a measures per-update analysis time against the whole view
// set.
func Figure3a() []Figure3aRow {
	var rows []Figure3aRow
	for _, u := range xmark.Updates() {
		row := Figure3aRow{Update: u.Name, KMin: 1 << 30}
		nu := xquery.NormalizeUpdate(u.AST)
		for _, v := range xmark.Views() {
			k := infer.KPair(xquery.Normalize(v.AST), nu)
			row.KMin, row.KMax = min(row.KMin, k), max(row.KMax, k)
		}
		row.Chains = timed(func() { verdicts(chains, u) })
		row.Shared = timed(func() { shared(u) })
		row.Types = timed(func() { verdicts(types, u) })
		rows = append(rows, row)
	}
	return rows
}

// Figure3bRow is one group of Figure 3.b: how many of the truly
// independent (update, view) pairs each analysis detects.
type Figure3bRow struct {
	Update      string
	TrueIndep   int // ground truth: independent pairs out of 36
	ChainsFound int
	TypesFound  int
	PathsFound  int
}

// Percent renders found/true as the paper's percentage (100 when
// nothing is independent).
func Percent(found, trueIndep int) float64 {
	if trueIndep == 0 {
		return 100
	}
	return 100 * float64(found) / float64(trueIndep)
}

// Figure3b computes detection counts against the empirical ground
// truth. Soundness is asserted: an analysis may never deem a
// dependent pair independent.
func Figure3b(truth *xmark.Truth) ([]Figure3bRow, error) {
	var rows []Figure3bRow
	for _, u := range xmark.Updates() {
		c, _ := verdicts(chains, u) // only the path analysis fails
		t, _ := verdicts(types, u)
		p, err := verdicts(paths, u)
		if err != nil {
			return nil, err
		}
		row := Figure3bRow{Update: u.Name}
		for i, v := range xmark.Views() {
			if truth.IsDependent(u.Name, v.Name) {
				if c[i] || t[i] || p[i] {
					return nil, fmt.Errorf("experiments: unsound verdict for %s-%s (chains=%v types=%v paths=%v)",
						u.Name, v.Name, c[i], t[i], p[i])
				}
				continue
			}
			row.TrueIndep++
			if c[i] {
				row.ChainsFound++
			}
			if t[i] {
				row.TypesFound++
			}
			if p[i] {
				row.PathsFound++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Averages summarises Figure 3.b like the paper's prose: average
// detection percentage per technique.
func Averages(rows []Figure3bRow) (chains, types, paths float64) {
	for _, r := range rows {
		chains += Percent(r.ChainsFound, r.TrueIndep)
		types += Percent(r.TypesFound, r.TrueIndep)
		paths += Percent(r.PathsFound, r.TrueIndep)
	}
	n := float64(len(rows))
	return chains / n, types / n, paths / n
}

// Figure3cRow is one document scale of Figure 3.c: average view
// refresh cost after an update, for refresh-all versus
// refresh-only-dependent under each analysis.
type Figure3cRow struct {
	Factor     float64
	Bytes      int
	RefreshAll time.Duration // average over updates
	Types      time.Duration
	Chains     time.Duration
}

// SavingsTypes is the relative saving of the type-based analysis.
func (r Figure3cRow) SavingsTypes() float64 {
	return 100 * (1 - float64(r.Types)/float64(r.RefreshAll))
}

// SavingsChains is the relative saving of the chain analysis.
func (r Figure3cRow) SavingsChains() float64 {
	return 100 * (1 - float64(r.Chains)/float64(r.RefreshAll))
}

// figure3cSeed seeds every Figure 3.c base document, so the document
// at a factor is the same whichever other factors are listed.
const figure3cSeed = 500

// strategy is one refresh policy of Figure 3.c: skip[i] marks the
// views it leaves stale after the i-th update (nil: none).
type strategy struct {
	name string
	skip [][]bool
}

// strategies returns Figure 3.c's policies in row order: refresh-all,
// then refresh what the type baseline and what chains do not prove
// independent. Their verdicts are Figure 3.a's work, done here once.
func strategies() []strategy {
	s := []strategy{{name: "refresh-all"}, {name: "types"}, {name: "chains"}}
	for _, u := range xmark.Updates() {
		t, _ := verdicts(types, u) // only the path analysis fails
		c, _ := verdicts(chains, u)
		s[0].skip = append(s[0].skip, nil)
		s[1].skip = append(s[1].skip, t)
		s[2].skip = append(s[2].skip, c)
	}
	return s
}

// Figure3c measures view re-materialisation time on documents of the
// given scale factors: for each update, all 36 views are re-evaluated
// on the updated document (refresh-all), and only the views not deemed
// independent under each static analysis (refresh-dependent). The
// evaluator substitutes the paper's commercial engines; the relative
// savings are the reproduced quantity.
func Figure3c(factors []float64) []Figure3cRow {
	strats, updates := strategies(), xmark.Updates()
	var rows []Figure3cRow
	for _, factor := range factors {
		base := xmark.GenerateDocument(figure3cSeed, factor)
		var spent [3]time.Duration
		for i, u := range updates {
			doc := updated(base, u)
			for j, s := range strats {
				spent[j] += timed(func() { refresh(doc, s.skip[i]) })
			}
		}
		n := time.Duration(len(updates))
		rows = append(rows, Figure3cRow{Factor: factor, Bytes: len(base.Store.String(base.Root)),
			RefreshAll: spent[0] / n, Types: spent[1] / n, Chains: spent[2] / n})
	}
	return rows
}

// updated returns a copy of base with u applied.
func updated(base xmltree.Tree, u xmark.Upd) xmltree.Tree {
	s := xmltree.NewStore()
	root := s.Copy(base.Store, base.Root)
	if err := eval.Update(s, eval.RootEnv(root), u.AST); err != nil {
		panic(fmt.Sprintf("experiments: update %s: %v", u.Name, err))
	}
	return xmltree.NewTree(s, root)
}

// refresh re-evaluates on doc, each on its own copy, the views that
// skip does not mark.
func refresh(doc xmltree.Tree, skip []bool) {
	for i, v := range xmark.Views() {
		if skip != nil && skip[i] {
			continue
		}
		s := xmltree.NewStore()
		root := s.Copy(doc.Store, doc.Root)
		if _, err := eval.Query(s, eval.RootEnv(root), v.AST); err != nil {
			panic(fmt.Sprintf("experiments: view %s: %v", v.Name, err))
		}
	}
}

// Figure3dRow is one point of the scalability surface: chain inference
// time for em over dn (or the XMark schema) at multiplicity k.
type Figure3dRow struct {
	Schema   string // "d1".."d20" or "auctions"
	N        int    // schema parameter (0 for auctions)
	M        int    // expression parameter
	K        int    // multiplicity used
	Inferred time.Duration
}

// figure3dGrid calls f on each point of Figure 3.d's grid in row
// order: em over dn for n in ns, then over the XMark schema (the
// "auctions" column), for m in ms and k in {m, m+5, m+10}. Each schema
// is compiled once, before its points.
func figure3dGrid(ns, ms []int, f func(r Figure3dRow, c *dtd.Compiled, q xquery.Query)) {
	schema := func(name string, n int, d *dtd.DTD) {
		c, err := dtd.Compile(d)
		if err != nil {
			panic(fmt.Sprintf("experiments: schema %s: %v", name, err))
		}
		for _, m := range ms {
			q := rbench.ExprM(m)
			for _, dk := range []int{0, 5, 10} {
				f(Figure3dRow{Schema: name, N: n, M: m, K: m + dk}, c, q)
			}
		}
	}
	for _, n := range ns {
		schema(fmt.Sprintf("d%d", n), n, rbench.SchemaN(n))
	}
	schema("auctions", 0, xmark.Schema())
}

// inferAt infers q's chains over c at multiplicity k on a fresh
// engine.
func inferAt(c *dtd.Compiled, q xquery.Query, k int) {
	e := cdag.NewEngineCompiled(c, k, 0)
	e.Query(e.RootEnv(), q)
}

// Figure3d runs the R-benchmark grid of the paper: n over ns, m over
// ms, and k ∈ {m, m+5, m+10} for each, plus the XMark column.
func Figure3d(ns, ms []int) []Figure3dRow {
	var rows []Figure3dRow
	figure3dGrid(ns, ms, func(r Figure3dRow, c *dtd.Compiled, q xquery.Query) {
		r.Inferred = timed(func() { inferAt(c, q, r.K) })
		rows = append(rows, r)
	})
	return rows
}

// RenderFigure3a formats the rows as an aligned table.
func RenderFigure3a(rows []Figure3aRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.a — static analysis time per update vs all 36 views\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %8s\n", "update", "chains", "shared", "types[6]", "k")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12s %12s %12s %4d-%d\n", r.Update, r.Chains.Round(10*time.Microsecond),
			r.Shared.Round(10*time.Microsecond), r.Types.Round(10*time.Microsecond), r.KMin, r.KMax)
	}
	return b.String()
}

// RenderFigure3b formats detection percentages like the paper's bars.
func RenderFigure3b(rows []Figure3bRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.b — independencies detected (%% of truly independent pairs)\n")
	fmt.Fprintf(&b, "%-6s %6s %8s %8s %8s\n", "update", "indep", "chains", "types[6]", "paths")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4d/36 %7.0f%% %7.0f%% %7.0f%%\n",
			r.Update, r.TrueIndep,
			Percent(r.ChainsFound, r.TrueIndep),
			Percent(r.TypesFound, r.TrueIndep),
			Percent(r.PathsFound, r.TrueIndep))
	}
	c, t, p := Averages(rows)
	fmt.Fprintf(&b, "%-6s %7s %7.0f%% %7.0f%% %7.0f%%\n", "avg", "", c, t, p)
	return b.String()
}

// RenderFigure3c formats re-materialisation times and savings.
func RenderFigure3c(rows []Figure3cRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.c — view re-materialisation time per update (avg)\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %12s %12s %9s %9s\n",
		"factor", "doc size", "refresh-all", "types[6]", "chains", "sav-types", "sav-chains")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.1f %9dK %12s %12s %12s %8.0f%% %8.0f%%\n",
			r.Factor, r.Bytes/1024,
			r.RefreshAll.Round(10*time.Microsecond),
			r.Types.Round(10*time.Microsecond),
			r.Chains.Round(10*time.Microsecond),
			r.SavingsTypes(), r.SavingsChains())
	}
	return b.String()
}

// RenderFigure3d formats the scalability grid.
func RenderFigure3d(rows []Figure3dRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.d — chain inference time on the R-benchmark\n")
	fmt.Fprintf(&b, "%-10s %4s %4s %12s\n", "schema", "m", "k", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %4d %4d %12s\n", r.Schema, r.M, r.K, r.Inferred.Round(10*time.Microsecond))
	}
	return b.String()
}
