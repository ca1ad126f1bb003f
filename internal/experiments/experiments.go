// Package experiments regenerates every panel of the paper's Figure 3
// (Section 6.2) as structured rows: per-update analysis runtime (3.a),
// precision of chains vs the type baseline (3.b), view
// re-materialisation savings (3.c) and the R-benchmark scalability
// surface (3.d). The rows are rendered by cmd/xqbench and measured by
// the testing.B benchmarks in the repository root.
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

// chainVerdict runs the CDAG analysis under the package budget.
func chainVerdict(d *dtd.DTD, q xquery.Query, u xquery.Update) cdag.Verdict {
	ctx := context.Background() //xqvet:ignore ctxflow experiments run standalone off package-level knobs; there is no caller context
	if AnalysisTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, AnalysisTimeout)
		defer cancel()
	}
	b := guard.New(ctx, AnalysisLimits)
	var v cdag.Verdict
	if err := guard.Do(func() { v = cdag.IndependenceBudget(d, q, u, b) }); err != nil {
		return cdag.Verdict{Independent: false, Reasons: []string{fmt.Sprintf("budget exceeded: %v", err)}}
	}
	return v
}

// Figure3aRow is one bar of Figure 3.a: the time to analyse one update
// against all 36 views, per technique.
type Figure3aRow struct {
	Update string
	// Chains is the CDAG engine time for the 36 pairs.
	Chains time.Duration
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
	d := xmark.Schema()
	views := xmark.Views()
	var rows []Figure3aRow
	for _, u := range xmark.Updates() {
		row := Figure3aRow{Update: u.Name, KMin: 1 << 30}
		nu := xquery.NormalizeUpdate(u.AST)
		for _, v := range views {
			k := infer.KPair(xquery.Normalize(v.AST), nu)
			row.KMin, row.KMax = min(row.KMin, k), max(row.KMax, k)
		}
		start := time.Now()
		for _, v := range views {
			chainVerdict(d, v.AST, u.AST)
		}
		row.Chains = time.Since(start)
		start = time.Now()
		ta := typeanalysis.New(d)
		for _, v := range views {
			ta.CheckIndependence(v.AST, u.AST)
		}
		row.Types = time.Since(start)
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
	d := xmark.Schema()
	views := xmark.Views()
	ta := typeanalysis.New(d)
	var rows []Figure3bRow
	for _, u := range xmark.Updates() {
		row := Figure3bRow{Update: u.Name}
		for _, v := range views {
			dep := truth.IsDependent(u.Name, v.Name)
			if !dep {
				row.TrueIndep++
			}
			cv := chainVerdict(d, v.AST, u.AST)
			tv := ta.CheckIndependence(v.AST, u.AST)
			pv, perr := pathanalysis.Independence(v.AST, u.AST)
			if perr != nil {
				return nil, fmt.Errorf("experiments: path analysis %s-%s: %v", u.Name, v.Name, perr)
			}
			if dep && (cv.Independent || tv.Independent || pv.Independent) {
				return nil, fmt.Errorf("experiments: unsound verdict for %s-%s (chains=%v types=%v paths=%v)",
					u.Name, v.Name, cv.Independent, tv.Independent, pv.Independent)
			}
			if !dep {
				if cv.Independent {
					row.ChainsFound++
				}
				if tv.Independent {
					row.TypesFound++
				}
				if pv.Independent {
					row.PathsFound++
				}
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

// Figure3c measures view re-materialisation time on documents of the
// given scale factors: for each update, all 36 views are re-evaluated
// on the updated document (refresh-all), and only the views not deemed
// independent under each static analysis (refresh-dependent). The
// evaluator substitutes the paper's commercial engines; the relative
// savings are the reproduced quantity.
func Figure3c(factors []float64) []Figure3cRow {
	d := xmark.Schema()
	views := xmark.Views()
	updates := xmark.Updates()

	// Static verdicts (computed once; their cost is Figure 3.a).
	ta := typeanalysis.New(d)
	chainIndep := make(map[string]map[string]bool)
	typeIndep := make(map[string]map[string]bool)
	for _, u := range updates {
		chainIndep[u.Name] = make(map[string]bool)
		typeIndep[u.Name] = make(map[string]bool)
		for _, v := range views {
			chainIndep[u.Name][v.Name] = chainVerdict(d, v.AST, u.AST).Independent
			typeIndep[u.Name][v.Name] = ta.CheckIndependence(v.AST, u.AST).Independent
		}
	}

	var rows []Figure3cRow
	for fi, factor := range factors {
		base := xmark.GenerateDocument(int64(500+fi), factor)
		row := Figure3cRow{Factor: factor, Bytes: len(base.Store.String(base.Root))}
		var all, types, chains time.Duration
		for _, u := range updates {
			s2 := xmltree.NewStore()
			root2 := s2.Copy(base.Store, base.Root)
			if err := eval.Update(s2, eval.RootEnv(root2), u.AST); err != nil {
				panic(fmt.Sprintf("experiments: update %s: %v", u.Name, err))
			}
			updated := xmltree.NewTree(s2, root2)
			all += refresh(updated, views, nil)
			types += refresh(updated, views, typeIndep[u.Name])
			chains += refresh(updated, views, chainIndep[u.Name])
		}
		n := time.Duration(len(updates))
		row.RefreshAll = all / n
		row.Types = types / n
		row.Chains = chains / n
		rows = append(rows, row)
	}
	return rows
}

// refresh evaluates the views not marked independent and returns the
// elapsed time.
func refresh(doc xmltree.Tree, views []xmark.View, indep map[string]bool) time.Duration {
	start := time.Now()
	for _, v := range views {
		if indep != nil && indep[v.Name] {
			continue
		}
		s := xmltree.NewStore()
		root := s.Copy(doc.Store, doc.Root)
		if _, err := eval.Query(s, eval.RootEnv(root), v.AST); err != nil {
			panic(fmt.Sprintf("experiments: view %s: %v", v.Name, err))
		}
	}
	return time.Since(start)
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

// Figure3d runs the R-benchmark grid of the paper: n over ns, m over
// ms, and k ∈ {m, m+5, m+10} for each, plus the XMark column.
func Figure3d(ns, ms []int) []Figure3dRow {
	var rows []Figure3dRow
	for _, n := range ns {
		d := rbench.SchemaN(n)
		for _, m := range ms {
			q := rbench.ExprM(m)
			for _, dk := range []int{0, 5, 10} {
				k := m + dk
				e := cdag.NewEngine(d, k, 0)
				start := time.Now()
				e.Query(e.RootEnv(), q)
				rows = append(rows, Figure3dRow{
					Schema: fmt.Sprintf("d%d", n), N: n, M: m, K: k,
					Inferred: time.Since(start),
				})
			}
		}
	}
	// The "auctions" column: em over the XMark schema.
	d := xmark.Schema()
	for _, m := range ms {
		q := rbench.ExprM(m)
		for _, dk := range []int{0, 5, 10} {
			k := m + dk
			e := cdag.NewEngine(d, k, 0)
			start := time.Now()
			e.Query(e.RootEnv(), q)
			rows = append(rows, Figure3dRow{
				Schema: "auctions", M: m, K: k,
				Inferred: time.Since(start),
			})
		}
	}
	return rows
}

// RenderFigure3a formats the rows as an aligned table.
func RenderFigure3a(rows []Figure3aRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.a — static analysis time per update vs all 36 views\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "update", "chains", "types[6]", "k")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12s %12s %4d-%d\n",
			r.Update, r.Chains.Round(10*time.Microsecond), r.Types.Round(10*time.Microsecond), r.KMin, r.KMax)
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

// AnalyzerPairCount is the size of the benchmark matrix.
func AnalyzerPairCount() int { return len(xmark.Views()) * len(xmark.Updates()) }
