// Package pathanalysis implements a schema-less path-overlap
// independence analysis in the spirit of Ghelli, Rose and Siméon's
// commutativity analysis and Benedikt–Cheney's destabilizers (the
// paper's citations [15] and [5]). It abstracts queries and updates to
// downward path patterns over an infinite alphabet and deems a pair
// independent when no query pattern is prefix-compatible with an
// update pattern.
//
// Being schema-less, it cannot separate //a//c from //b//c (both match
// /a/b/c) — exactly the weakness the chain-based technique addresses.
// It serves as the second comparison point of the evaluation.
package pathanalysis

import (
	"fmt"
	"sort"
	"strings"

	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// itemKind describes one pattern element.
type itemKind int

const (
	// itemSym matches exactly one specific label.
	itemSym itemKind = iota
	// itemAny matches exactly one arbitrary label.
	itemAny
	// itemDesc matches any (possibly empty) sequence of labels.
	itemDesc
)

type item struct {
	kind itemKind
	sym  string
}

// Pattern is a downward path pattern.
type Pattern []item

func (p Pattern) String() string {
	parts := make([]string, len(p))
	for i, it := range p {
		switch it.kind {
		case itemSym:
			parts[i] = it.sym
		case itemAny:
			parts[i] = "*"
		case itemDesc:
			parts[i] = "//"
		}
	}
	return "/" + strings.Join(parts, "/")
}

func (p Pattern) extend(it item) Pattern {
	out := make(Pattern, 0, len(p)+1)
	out = append(out, p...)
	return append(out, it)
}

// anywhere is the fully unconstrained pattern //.
var anywhere = Pattern{{kind: itemDesc}}

// closureIdx returns the index set reachable from i by skipping Desc
// items (zero-width matches).
func (p Pattern) closureIdx(i int) []int {
	out := []int{i}
	for i < len(p) && p[i].kind == itemDesc {
		i++
		out = append(out, i)
	}
	return out
}

// Overlap reports whether some word matched by p is a prefix of some
// word matched by q or vice versa — the destabilization test.
func Overlap(p, q Pattern) bool {
	return overlap(nil, p, q, func(i, j int, np, nq int) bool { return i == np || j == nq })
}

// overlap runs a product search over pattern positions; accept decides
// the conflict condition given the positions (after ε-closure) and the
// pattern lengths.
func overlap(b *guard.Budget, p, q Pattern, accept func(i, j, np, nq int) bool) bool {
	type state struct{ i, j int }
	var queue []state
	seen := map[state]bool{}
	push := func(i, j int) {
		for _, ci := range p.closureIdx(i) {
			for _, cj := range q.closureIdx(j) {
				s := state{ci, cj}
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	push(0, 0)
	for len(queue) > 0 {
		b.Tick()
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if accept(s.i, s.j, len(p), len(q)) {
			return true
		}
		if s.i == len(p) || s.j == len(q) {
			continue // one side exhausted without acceptance
		}
		a, b := p[s.i], q[s.j]
		if a.kind == itemSym && b.kind == itemSym && a.sym != b.sym {
			continue // cannot consume a common symbol here
		}
		// Consume one common symbol; Desc items may stay put.
		nexts := func(it item, idx int) []int {
			if it.kind == itemDesc {
				return []int{idx} // consume and stay
			}
			return []int{idx + 1}
		}
		for _, ni := range nexts(a, s.i) {
			for _, nj := range nexts(b, s.j) {
				push(ni, nj)
			}
		}
	}
	return false
}

// extraction computes the patterns of nodes a query may return or
// inspect. Variables map to the pattern sets of their bindings.
type env map[string][]Pattern

func (g env) bind(v string, ps []Pattern) env {
	out := make(env, len(g)+1)
	for k, val := range g {
		out[k] = val
	}
	out[v] = ps
	return out
}

// queryPatterns returns (returned, inspected) pattern sets for q. An
// unrecognised AST node yields an error rather than a panic: the path
// analysis is the last rung of the degradation ladder, so it must
// fail cleanly instead of taking the process down.
func queryPatterns(b *guard.Budget, g env, q xquery.Query) ([]Pattern, []Pattern, error) {
	b.Tick()
	switch n := q.(type) {
	case xquery.Empty, xquery.StringLit:
		return nil, nil, nil
	case xquery.Var:
		return g[n.Name], nil, nil
	case xquery.Step:
		ctx := g[n.Var]
		var ret []Pattern
		for _, p := range ctx {
			ret = append(ret, stepPatterns(p, n.Axis, n.Test)...)
		}
		return ret, ctx, nil
	case xquery.Sequence:
		r1, i1, err := queryPatterns(b, g, n.Left)
		if err != nil {
			return nil, nil, err
		}
		r2, i2, err := queryPatterns(b, g, n.Right)
		if err != nil {
			return nil, nil, err
		}
		return append(r1, r2...), append(i1, i2...), nil
	case xquery.If:
		r0, i0, err := queryPatterns(b, g, n.Cond)
		if err != nil {
			return nil, nil, err
		}
		r1, i1, err := queryPatterns(b, g, n.Then)
		if err != nil {
			return nil, nil, err
		}
		r2, i2, err := queryPatterns(b, g, n.Else)
		if err != nil {
			return nil, nil, err
		}
		return append(r1, r2...), append(append(append(i0, r0...), i1...), i2...), nil
	case xquery.For:
		r1, i1, err := queryPatterns(b, g, n.In)
		if err != nil {
			return nil, nil, err
		}
		r2, i2, err := queryPatterns(b, g.bind(n.Var, r1), n.Return)
		if err != nil {
			return nil, nil, err
		}
		return r2, append(i1, i2...), nil
	case xquery.Let:
		r1, i1, err := queryPatterns(b, g, n.Bind)
		if err != nil {
			return nil, nil, err
		}
		r2, i2, err := queryPatterns(b, g.bind(n.Var, r1), n.Return)
		if err != nil {
			return nil, nil, err
		}
		return r2, append(i1, i2...), nil
	case xquery.Element:
		// Constructed elements copy the content subtrees entirely: a
		// change anywhere below a copied node alters the result, so
		// the content patterns are inspected together with their
		// downward extensions.
		r, i, err := queryPatterns(b, g, n.Content)
		if err != nil {
			return nil, nil, err
		}
		out := append(i, r...)
		for _, p := range r {
			out = append(out, p.extend(item{kind: itemDesc}).extend(item{kind: itemAny}))
		}
		return nil, out, nil
	default:
		return nil, nil, fmt.Errorf("pathanalysis: unknown query node %T", q)
	}
}

// stepPatterns extends a context pattern by one step; non-downward
// axes degrade to the unconstrained pattern (the schema-less analysis
// has no way to invert a path).
func stepPatterns(p Pattern, axis xquery.Axis, test xquery.NodeTest) []Pattern {
	var testItem item
	switch test.Kind {
	case xquery.TagTest:
		testItem = item{kind: itemSym, sym: test.Tag}
	default:
		testItem = item{kind: itemAny}
	}
	switch axis {
	case xquery.Self:
		return []Pattern{p} // conservative: keep the context pattern
	case xquery.Child:
		return []Pattern{p.extend(testItem)}
	case xquery.Descendant:
		return []Pattern{p.extend(item{kind: itemDesc}).extend(testItem)}
	case xquery.DescendantOrSelf:
		// The self part keeps p (conservatively ignoring the test);
		// the descendant part requires at least one step down.
		return []Pattern{p, p.extend(item{kind: itemDesc}).extend(testItem)}
	default:
		return []Pattern{anywhere}
	}
}

// updatePatterns returns the patterns of update-affected regions.
func updatePatterns(b *guard.Budget, g env, u xquery.Update) ([]Pattern, error) {
	b.Tick()
	switch n := u.(type) {
	case xquery.UEmpty:
		return nil, nil
	case xquery.USeq:
		l, err := updatePatterns(b, g, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := updatePatterns(b, g, n.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case xquery.UIf:
		l, err := updatePatterns(b, g, n.Then)
		if err != nil {
			return nil, err
		}
		r, err := updatePatterns(b, g, n.Else)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case xquery.UFor:
		r1, _, err := queryPatterns(b, g, n.In)
		if err != nil {
			return nil, err
		}
		return updatePatterns(b, g.bind(n.Var, r1), n.Body)
	case xquery.ULet:
		r1, _, err := queryPatterns(b, g, n.Bind)
		if err != nil {
			return nil, err
		}
		return updatePatterns(b, g.bind(n.Var, r1), n.Body)
	case xquery.Delete:
		r0, _, err := queryPatterns(b, g, n.Target)
		return r0, err
	case xquery.Rename:
		r0, _, err := queryPatterns(b, g, n.Target)
		return r0, err
	case xquery.Insert:
		r0, _, err := queryPatterns(b, g, n.Target)
		if err != nil {
			return nil, err
		}
		var out []Pattern
		for _, p := range r0 {
			// Changes land below the target (into) or beside it
			// (before/after); both are covered by target-or-below with
			// the schema-less abstraction.
			out = append(out, p, p.extend(item{kind: itemDesc}).extend(item{kind: itemAny}))
		}
		return out, nil
	case xquery.Replace:
		r0, _, err := queryPatterns(b, g, n.Target)
		if err != nil {
			return nil, err
		}
		var out []Pattern
		for _, p := range r0 {
			out = append(out, p, p.extend(item{kind: itemDesc}).extend(item{kind: itemAny}))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pathanalysis: unknown update node %T", u)
	}
}

// Verdict is the path analysis outcome.
type Verdict struct {
	Independent bool
	// Witness holds an overlapping pattern pair when dependent.
	Witness        [2]string
	QueryPatterns  []string
	UpdatePatterns []string
}

// Independence runs the schema-less analysis on a quasi-closed pair.
func Independence(q xquery.Query, u xquery.Update) (Verdict, error) {
	return IndependenceBudget(q, u, nil)
}

// IndependenceBudget is Independence under a resource budget: pattern
// extraction and the overlap product search tick b cooperatively, so a
// deadline or node limit aborts via guard.Abort (recover with
// guard.Recover or guard.Do at the caller). A nil budget is unlimited.
func IndependenceBudget(q xquery.Query, u xquery.Update, b *guard.Budget) (Verdict, error) {
	b.Point("paths.check")
	root := []Pattern{{}}
	g := env{xquery.RootVar: root}
	ret, insp, err := queryPatterns(b, g, q)
	if err != nil {
		return Verdict{}, err
	}
	ups, err := updatePatterns(b, g, u)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Independent: true}
	for _, p := range ret {
		v.QueryPatterns = append(v.QueryPatterns, p.String())
	}
	for _, p := range insp {
		v.QueryPatterns = append(v.QueryPatterns, p.String())
	}
	for _, p := range ups {
		v.UpdatePatterns = append(v.UpdatePatterns, p.String())
	}
	sort.Strings(v.QueryPatterns)
	sort.Strings(v.UpdatePatterns)
	dependent := func(qp, up Pattern) Verdict {
		return Verdict{
			Independent:    false,
			Witness:        [2]string{qp.String(), up.String()},
			QueryPatterns:  v.QueryPatterns,
			UpdatePatterns: v.UpdatePatterns,
		}
	}
	for _, up := range ups {
		b.Tick()
		// Returned subtrees conflict with changes above or below them.
		for _, qp := range ret {
			if overlap(b, qp, up, func(i, j, np, nq int) bool { return i == np || j == nq }) {
				return dependent(qp, up), nil
			}
		}
		// Inspected nodes conflict only with changes at or above them.
		for _, qp := range insp {
			if overlap(b, up, qp, func(i, j, np, nq int) bool { return i == np }) {
				return dependent(qp, up), nil
			}
		}
	}
	return v, nil
}
