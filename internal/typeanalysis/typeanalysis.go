// Package typeanalysis reimplements the schema-based *type-set*
// independence analysis of Benedikt and Cheney ("Schema-based
// independence analysis for XML updates", VLDB 2009) — the state of
// the art the paper compares against, cited there as [6].
//
// Instead of chains, the analysis infers flat sets of node types:
//
//   - the query's accessed types — every type on a navigation path of
//     the query (ancestors included) plus the descendant closure of
//     returned types (the returned subtrees);
//   - the update's impacted types — the types of nodes whose label,
//     content or existence the update changes, plus the types of
//     inserted content (kept for soundness).
//
// The pair is deemed independent when the two sets are disjoint.
// Text nodes are typed by their parent element ("S@parent"): a bare
// text type would either overlap everything or, if excluded, miss
// queries that return text (the randomized differential test pins
// both failure modes).
//
// This reproduces the published behaviour on the paper's own
// examples: it cannot separate //a//c from delete //b//c (both sets
// contain c) nor //title from inserting authors into books (both
// contain book), while chains can (Section 1 of the reproduced
// paper).
package typeanalysis

import (
	"fmt"
	"sort"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// TypeSet is a set of schema types.
type TypeSet map[string]bool

func (t TypeSet) add(sym string) { t[sym] = true }
func (t TypeSet) addAll(other TypeSet) {
	for s := range other {
		t[s] = true
	}
}

// Sorted returns the members in sorted order.
func (t TypeSet) Sorted() []string {
	out := make([]string, 0, len(t))
	for s := range t {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (t TypeSet) String() string { return fmt.Sprintf("%v", t.Sorted()) }

// Analyzer performs type-set inference over one DTD.
type Analyzer struct {
	D *dtd.DTD
	// B, when non-nil, checks the wall-clock deadline cooperatively in
	// the closure and inference loops.
	B *guard.Budget
}

// New builds an analyzer.
func New(d *dtd.DTD) *Analyzer {
	return &Analyzer{D: d}
}

// NewBudget builds an analyzer charging b (nil means unlimited).
func NewBudget(d *dtd.DTD, b *guard.Budget) *Analyzer {
	a := New(d)
	a.B = b
	return a
}

// Env binds variables to the type sets their bindings may have.
type Env map[string]TypeSet

func (g Env) bind(v string, t TypeSet) Env {
	out := make(Env, len(g)+1)
	for k, val := range g {
		out[k] = val
	}
	out[v] = t
	return out
}

// QueryTypes is the inference result for a query: the types of
// returned nodes and the types accessed during navigation (the
// returned types are always accessed too). Constructs records whether
// the query can build new elements or strings — needed to judge
// iteration productivity.
type QueryTypes struct {
	Returned   TypeSet
	Accessed   TypeSet
	Constructs bool
}

// rootEnv is {x ↦ {sd}}.
func (a *Analyzer) rootEnv() Env {
	return Env{xquery.RootVar: TypeSet{a.D.Start: true}}
}

// Query infers the type sets of q.
func (a *Analyzer) Query(g Env, q xquery.Query) QueryTypes {
	a.B.Tick()
	switch n := q.(type) {
	case xquery.Empty:
		return QueryTypes{Returned: TypeSet{}, Accessed: TypeSet{}}
	case xquery.StringLit:
		return QueryTypes{Returned: TypeSet{}, Accessed: TypeSet{}, Constructs: true}
	case xquery.Var:
		ret := TypeSet{}
		ret.addAll(g[n.Name])
		return QueryTypes{Returned: ret, Accessed: TypeSet{}}
	case xquery.Step:
		// Forward steps contribute no accessed types of their own: the
		// returned types (plus closure at check time) and the binding
		// types recorded by the For rule cover every conflict, exactly
		// like the chain engine's (STEPF). Upward and horizontal steps
		// record their productive context types, like (STEPUH).
		ctx := g[n.Var]
		ret := a.stepTypes(ctx, n.Axis, n.Test)
		acc := TypeSet{}
		if !n.Axis.IsForward() && n.Axis != xquery.Descendant {
			for s := range ctx {
				if len(a.stepTypes(TypeSet{s: true}, n.Axis, n.Test)) > 0 {
					acc.add(s)
				}
			}
		}
		return QueryTypes{Returned: ret, Accessed: acc}
	case xquery.Sequence:
		l, r := a.Query(g, n.Left), a.Query(g, n.Right)
		return merge(l, r)
	case xquery.If:
		c0, c1, c2 := a.Query(g, n.Cond), a.Query(g, n.Then), a.Query(g, n.Else)
		out := merge(c1, c2)
		out.Accessed.addAll(c0.Accessed)
		out.Accessed.addAll(c0.Returned)
		return out
	case xquery.For:
		// Iterate per binding type, filtering unproductive iterations —
		// the type-level analogue of the chain analysis' (FOR) filter.
		// Without it every //-step would make the whole schema
		// "accessed". The binding query's own accessed types (condition
		// navigation, upward steps) always propagate.
		c1 := a.Query(g, n.In)
		out := QueryTypes{Returned: TypeSet{}, Accessed: TypeSet{}}
		out.Accessed.addAll(c1.Accessed)
		for _, tau := range c1.Returned.Sorted() {
			body := a.Query(g.bind(n.Var, TypeSet{tau: true}), n.Return)
			if len(body.Returned) == 0 && !body.Constructs {
				continue
			}
			out.Returned.addAll(body.Returned)
			out.Accessed.addAll(body.Accessed)
			out.Accessed.add(tau)
			out.Constructs = out.Constructs || body.Constructs
		}
		if c1.Constructs {
			// The binding may hold constructed items: the body still
			// runs for those, with no input type bound.
			body := a.Query(g.bind(n.Var, TypeSet{}), n.Return)
			out.Returned.addAll(body.Returned)
			out.Accessed.addAll(body.Accessed)
			out.Constructs = out.Constructs || body.Constructs
		}
		return out
	case xquery.Let:
		c1 := a.Query(g, n.Bind)
		body := a.Query(g.bind(n.Var, c1.Returned), n.Return)
		body.Accessed.addAll(c1.Accessed)
		body.Accessed.addAll(c1.Returned)
		body.Constructs = body.Constructs || c1.Constructs
		return body
	case xquery.Element:
		inner := a.Query(g, n.Content)
		// Constructed elements copy their content: the content types
		// and their subtrees are accessed.
		acc := TypeSet{}
		acc.addAll(inner.Accessed)
		acc.addAll(a.closure(inner.Returned))
		return QueryTypes{Returned: TypeSet{}, Accessed: acc, Constructs: true}
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("typeanalysis: unknown query node %T", q)})
	}
}

func merge(l, r QueryTypes) QueryTypes {
	out := QueryTypes{Returned: TypeSet{}, Accessed: TypeSet{}, Constructs: l.Constructs || r.Constructs}
	out.Returned.addAll(l.Returned)
	out.Returned.addAll(r.Returned)
	out.Accessed.addAll(l.Accessed)
	out.Accessed.addAll(r.Accessed)
	return out
}

// textType is the parent-qualified type of text content.
func textType(parent string) string { return "S@" + parent }

// isTextType reports whether s is a parent-qualified text type.
func isTextType(s string) bool { return len(s) > 2 && s[0] == 'S' && s[1] == '@' }

// closure adds the descendant closure of the given types, with text
// content typed by its parent.
func (a *Analyzer) closure(t TypeSet) TypeSet {
	out := TypeSet{}
	out.addAll(t)
	var stack []string
	for s := range t {
		if !isTextType(s) {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		a.B.Tick()
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range a.D.ChildTypes(x) {
			if c == dtd.StringType {
				out.add(textType(x))
				continue
			}
			if !out[c] {
				out.add(c)
				stack = append(stack, c)
			}
		}
	}
	return out
}

// descendants is the proper descendant closure: types reachable from
// the set via one or more ⇒d steps (a recursive seed type can be its
// own descendant), with text typed by its parent.
func (a *Analyzer) descendants(t TypeSet) TypeSet {
	out := TypeSet{}
	seen := TypeSet{}
	var stack []string
	for s := range t {
		if !isTextType(s) {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		a.B.Tick()
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range a.D.ChildTypes(x) {
			if c == dtd.StringType {
				out.add(textType(x))
				continue
			}
			out.add(c)
			if !seen[c] {
				seen.add(c)
				stack = append(stack, c)
			}
		}
	}
	return out
}

// stepTypes applies an axis + test on the type graph; without chains
// the context of a type is lost, which is the imprecision the
// chain-based technique removes.
func (a *Analyzer) stepTypes(ctx TypeSet, axis xquery.Axis, test xquery.NodeTest) TypeSet {
	res := TypeSet{}
	switch axis {
	case xquery.Self:
		res.addAll(ctx)
	case xquery.Child:
		for s := range ctx {
			if isTextType(s) {
				continue
			}
			for _, c := range a.D.ChildTypes(s) {
				if c == dtd.StringType {
					res.add(textType(s))
				} else {
					res.add(c)
				}
			}
		}
	case xquery.Descendant:
		res.addAll(a.descendants(ctx))
	case xquery.DescendantOrSelf:
		res.addAll(ctx)
		res.addAll(a.descendants(ctx))
	case xquery.Parent:
		res.addAll(a.parentTypes(ctx))
	case xquery.Ancestor, xquery.AncestorOrSelf:
		if axis == xquery.AncestorOrSelf {
			res.addAll(ctx)
		}
		frontier := ctx
		for len(frontier) > 0 {
			parents := a.parentTypes(frontier)
			next := TypeSet{}
			for p := range parents {
				if !res[p] {
					res.add(p)
					next.add(p)
				}
			}
			frontier = next
		}
	case xquery.PrecedingSibling, xquery.FollowingSibling:
		for s := range ctx {
			// Possible parents of s: its declared parents, or the
			// qualifying parent for text types.
			var parentsOf []string
			sym := s
			switch {
			case isTextType(s):
				parentsOf = []string{s[2:]}
				sym = dtd.StringType
			default:
				for _, t := range a.D.Types {
					for _, c := range a.D.ChildTypes(t) {
						if c == s {
							parentsOf = append(parentsOf, t)
							break
						}
					}
				}
			}
			for _, t := range parentsOf {
				var sibs []string
				if axis == xquery.PrecedingSibling {
					sibs = a.D.PrecedingSiblingTypes(t, sym)
				} else {
					sibs = a.D.FollowingSiblingTypes(t, sym)
				}
				for _, b := range sibs {
					if b == dtd.StringType {
						res.add(textType(t))
					} else {
						res.add(b)
					}
				}
			}
		}
	default:
		panic(&guard.InternalError{Value: "typeanalysis: unknown axis"})
	}
	// Node test.
	out := TypeSet{}
	for s := range res {
		switch test.Kind {
		case xquery.NodeAny:
			out.add(s)
		case xquery.TextTest:
			if isTextType(s) {
				out.add(s)
			}
		case xquery.TagTest:
			if !isTextType(s) && a.D.LabelOf(s) == test.Tag {
				out.add(s)
			}
		case xquery.WildcardTest:
			if !isTextType(s) {
				out.add(s)
			}
		}
	}
	return out
}

// UpdateTypes is the impacted-type set of an update.
type UpdateTypes struct {
	Impacted TypeSet
}

// Update infers the impacted types of u.
func (a *Analyzer) Update(g Env, u xquery.Update) UpdateTypes {
	a.B.Tick()
	switch n := u.(type) {
	case xquery.UEmpty:
		return UpdateTypes{Impacted: TypeSet{}}
	case xquery.USeq:
		l, r := a.Update(g, n.Left), a.Update(g, n.Right)
		out := TypeSet{}
		out.addAll(l.Impacted)
		out.addAll(r.Impacted)
		return UpdateTypes{Impacted: out}
	case xquery.UIf:
		l, r := a.Update(g, n.Then), a.Update(g, n.Else)
		out := TypeSet{}
		out.addAll(l.Impacted)
		out.addAll(r.Impacted)
		return UpdateTypes{Impacted: out}
	case xquery.UFor:
		c1 := a.Query(g, n.In)
		return a.Update(g.bind(n.Var, c1.Returned), n.Body)
	case xquery.ULet:
		c1 := a.Query(g, n.Bind)
		return a.Update(g.bind(n.Var, c1.Returned), n.Body)
	case xquery.Delete:
		// Deleted nodes and their subtrees vanish.
		r0 := a.Query(g, n.Target).Returned
		return UpdateTypes{Impacted: a.closure(r0)}
	case xquery.Rename:
		r0 := a.Query(g, n.Target).Returned
		out := TypeSet{}
		out.addAll(r0)
		out.add(n.As)
		return UpdateTypes{Impacted: out}
	case xquery.Insert:
		r0 := a.Query(g, n.Target).Returned
		out := TypeSet{}
		var under TypeSet
		if n.Pos.IsInto() {
			out.addAll(r0) // the node whose content changes
			under = r0
		} else {
			// before/after change the parent's content
			under = a.parentTypes(r0)
			out.addAll(under)
		}
		src, hasText := a.sourceTypes(g, n.Source)
		out.addAll(src)
		if hasText {
			for t := range under {
				out.add(textType(t))
			}
		}
		return UpdateTypes{Impacted: out}
	case xquery.Replace:
		r0 := a.Query(g, n.Target).Returned
		out := TypeSet{}
		out.addAll(a.closure(r0)) // removed subtree
		under := a.parentTypes(r0)
		out.addAll(under)
		src, hasText := a.sourceTypes(g, n.Source)
		out.addAll(src)
		if hasText {
			for t := range under {
				out.add(textType(t))
			}
		}
		return UpdateTypes{Impacted: out}
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("typeanalysis: unknown update node %T", u)})
	}
}

func (a *Analyzer) parentTypes(t TypeSet) TypeSet {
	out := TypeSet{}
	for s := range t {
		if isTextType(s) {
			out.add(s[2:])
		}
	}
	for _, p := range a.D.Types {
		for _, c := range a.D.ChildTypes(p) {
			if t[c] {
				out.add(p)
			}
		}
	}
	return out
}

// sourceTypes collects the types of inserted content: constructed
// element tags (when declared in the schema) and the subtree closure
// of copied input nodes. Keeping these makes the baseline sound for
// queries that select the new nodes.
func (a *Analyzer) sourceTypes(g Env, src xquery.Query) (TypeSet, bool) {
	out := TypeSet{}
	st := a.Query(g, src)
	cl := a.closure(st.Returned)
	out.addAll(cl)
	hasText := false
	for s := range cl {
		if isTextType(s) {
			hasText = true
		}
	}
	var walk func(q xquery.Query)
	walk = func(q xquery.Query) {
		switch n := q.(type) {
		case xquery.StringLit:
			hasText = true
		case xquery.Element:
			out.add(n.Tag)
			walk(n.Content)
		case xquery.Sequence:
			walk(n.Left)
			walk(n.Right)
		case xquery.For:
			walk(n.Return)
		case xquery.Let:
			walk(n.Return)
		case xquery.If:
			walk(n.Then)
			walk(n.Else)
		}
	}
	walk(src)
	return out, hasText
}

// Verdict is the baseline's independence decision.
type Verdict struct {
	Independent bool
	Overlap     []string
	Query       QueryTypes
	Update      UpdateTypes
}

// CheckIndependence deems q and u independent when the accessed and
// impacted type sets do not overlap (text excluded).
func (a *Analyzer) CheckIndependence(q xquery.Query, u xquery.Update) Verdict {
	qt := a.Query(a.rootEnv(), q)
	// Returned subtrees belong to the result: their descendant closure
	// is accessed.
	qt.Accessed.addAll(a.closure(qt.Returned))
	ut := a.Update(a.rootEnv(), u)
	var overlap []string
	for s := range ut.Impacted {
		if qt.Accessed[s] {
			overlap = append(overlap, s)
		}
	}
	sort.Strings(overlap)
	return Verdict{
		Independent: len(overlap) == 0,
		Overlap:     overlap,
		Query:       qt,
		Update:      ut,
	}
}

// Independence is the package-level convenience.
func Independence(d *dtd.DTD, q xquery.Query, u xquery.Update) Verdict {
	return New(d).CheckIndependence(q, u)
}

// IndependenceBudget is Independence under a resource budget: the
// analyzer checks the deadline cooperatively, aborting via guard.Abort
// when exhausted (recover with guard.Recover or guard.Do).
func IndependenceBudget(d *dtd.DTD, q xquery.Query, u xquery.Update, b *guard.Budget) Verdict {
	b.Point("types.check")
	return NewBudget(d, b).CheckIndependence(q, u)
}
