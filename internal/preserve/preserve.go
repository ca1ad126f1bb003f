// Package preserve statically checks whether an update keeps every
// valid document valid — the schema-preservation precondition the
// paper assumes for insert, rename and replace updates (Sections 2
// and 4) and leaves as future work to verify. The checker is sound in
// the "preserves" direction: a true verdict guarantees u(t) ∈ d for
// every t ∈ d on every successful run; false verdicts may be false
// alarms.
//
// The per-operation conditions reduce to regular-language inclusion
// over content models (package dtd):
//
//   - delete of an α child under p: removing any subset of α's keeps
//     d(p) satisfied — L(subst(d(p), α→α?)) ⊆ L(d(p));
//   - rename α→b under p: L(subst(d(p), α→α|b)) ⊆ L(d(p)) and the
//     renamed node's content satisfies b's model, L(d(α)) ⊆ L(d(b));
//   - insert of top-level tags T into t: the shuffle of d(t) with T*
//     stays within d(t) — "into" may place content anywhere, so the
//     check covers every position (and over-approximates the
//     before/after/first/last placements soundly);
//   - replace of α by a statically known word w: the in-place
//     substitution L(subst(d(p), α→α|w)) ⊆ L(d(p)); unknown
//     replacement words are rejected conservatively;
//   - constructed source elements must satisfy their own content
//     models; contents containing query holes are rejected.
//
// Target chains come from the CDAG engine, so the checker stays
// polynomial on recursive schemas.
package preserve

import (
	"fmt"
	"sort"

	"xqindep/internal/cdag"
	"xqindep/internal/dtd"
	"xqindep/internal/xquery"
)

// Verdict is the outcome of a preservation check.
type Verdict struct {
	// Preserves is true when every successful run of the update on a
	// valid document yields a valid document.
	Preserves bool
	// Reasons lists the potential violations when Preserves is false.
	Reasons []string
}

// Check analyses the quasi-closed update u against d.
func Check(d *dtd.DTD, u xquery.Update) Verdict {
	eng := cdag.EngineFor(d, nil, u)
	c := &checker{d: d, eng: eng}
	c.walk(eng.RootEnv(), xquery.NormalizeUpdate(u))
	sort.Strings(c.reasons)
	c.reasons = dedupe(c.reasons)
	return Verdict{Preserves: len(c.reasons) == 0, Reasons: c.reasons}
}

func dedupe(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

type checker struct {
	d       *dtd.DTD
	eng     *cdag.Engine
	reasons []string
}

func (c *checker) failf(format string, args ...any) {
	c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
}

// model returns the content model of an element type, or nil for the
// string type (text has no content).
func (c *checker) model(sym string) *dtd.Regex {
	if sym == dtd.StringType {
		return nil
	}
	return c.d.Content[sym]
}

func (c *checker) walk(g cdag.Env, u xquery.Update) {
	switch n := u.(type) {
	case xquery.UEmpty:
	case xquery.USeq:
		c.walk(g, n.Left)
		c.walk(g, n.Right)
	case xquery.UIf:
		c.walk(g, n.Then)
		c.walk(g, n.Else)
	case xquery.UFor:
		qc := c.eng.Query(g, n.In)
		c.walk(g.Bind(n.Var, c.eng.Union(qc.Ret, qc.Elem)), n.Body)
	case xquery.ULet:
		qc := c.eng.Query(g, n.Bind)
		c.walk(g.Bind(n.Var, c.eng.Union(qc.Ret, qc.Elem)), n.Body)
	case xquery.Delete:
		for _, ep := range c.targets(g, n.Target) {
			if ep.IsRoot {
				c.failf("delete may remove the document root")
				continue
			}
			for _, p := range ep.Parents {
				if r := c.model(p); r != nil && !dtd.DeletionSafe(r, ep.Sym) {
					c.failf("deleting %s children may break d(%s) = %s", ep.Sym, p, r)
				}
			}
		}
	case xquery.Rename:
		if !c.d.HasType(n.As) || n.As == dtd.StringType {
			c.failf("rename introduces undeclared tag %s", n.As)
			return
		}
		for _, ep := range c.targets(g, n.Target) {
			if ep.Sym == dtd.StringType || ep.Sym == n.As {
				continue // runtime error or no-op
			}
			if ep.IsRoot {
				if n.As != c.d.Start {
					c.failf("renaming the root to %s breaks the start symbol", n.As)
				}
				continue
			}
			for _, p := range ep.Parents {
				r := c.model(p)
				if r == nil {
					continue
				}
				if !dtd.RenameSafe(r, ep.Sym, n.As) {
					c.failf("renaming %s to %s may break d(%s) = %s", ep.Sym, n.As, p, r)
					continue
				}
				if !dtd.Included(c.d.Content[ep.Sym], c.d.Content[n.As]) {
					c.failf("content of %s may not satisfy d(%s) = %s", ep.Sym, n.As, c.d.Content[n.As])
				}
			}
		}
	case xquery.Insert:
		tags, _, ok := c.sourceInfo(g, n.Source)
		if !ok {
			return
		}
		for _, ep := range c.targets(g, n.Target) {
			if n.Pos.IsInto() {
				if r := c.model(ep.Sym); r != nil && !dtd.InsertionSafe(r, tags) {
					c.failf("inserting %v into %s may break d(%s) = %s", tags, ep.Sym, ep.Sym, r)
				}
				continue
			}
			if ep.IsRoot {
				c.failf("insert beside the document root")
				continue
			}
			for _, p := range ep.Parents {
				if r := c.model(p); r != nil && !dtd.InsertionSafe(r, tags) {
					c.failf("inserting %v under %s may break d(%s) = %s", tags, p, p, r)
				}
			}
		}
	case xquery.Replace:
		_, word, ok := c.sourceInfo(g, n.Source)
		if !ok {
			return
		}
		if word == nil {
			c.failf("replacement content is not statically known; cannot verify")
			return
		}
		for _, ep := range c.targets(g, n.Target) {
			if ep.IsRoot {
				c.failf("replace of the document root")
				continue
			}
			for _, p := range ep.Parents {
				if r := c.model(p); r != nil && !dtd.ReplaceSafe(r, ep.Sym, word) {
					c.failf("replacing %s by %v may break d(%s) = %s", ep.Sym, word, p, r)
				}
			}
		}
	default:
		c.failf("unknown update construct %T", u)
	}
}

// targets returns the endpoint/parent pairs of a target query.
func (c *checker) targets(g cdag.Env, q xquery.Query) []cdag.EndpointParent {
	return c.eng.Query(g, q).Ret.EndpointParents()
}

// sourceInfo computes the top-level tags a source may produce, the
// exact top-level word when the source is hole-free (nil otherwise),
// and whether constructed content validated; it reports violations for
// invalid constructed content.
func (c *checker) sourceInfo(g cdag.Env, src xquery.Query) (tags []string, word []string, ok bool) {
	set := map[string]bool{}
	ok = true
	exact := true
	var collect func(q xquery.Query)
	collect = func(q xquery.Query) {
		switch n := q.(type) {
		case xquery.Empty:
		case xquery.StringLit:
			set[dtd.StringType] = true
			word = append(word, dtd.StringType)
		case xquery.Element:
			set[n.Tag] = true
			word = append(word, n.Tag)
			if !c.d.HasType(n.Tag) {
				c.failf("constructed element <%s> is not declared in the schema", n.Tag)
				ok = false
				return
			}
			c.checkConstructed(g, n)
		case xquery.Sequence:
			collect(n.Left)
			collect(n.Right)
		case xquery.For, xquery.Let, xquery.If, xquery.Var, xquery.Step:
			exact = false
			for _, ep := range c.eng.Query(g, q).Ret.EndpointParents() {
				set[ep.Sym] = true
			}
		}
	}
	collect(src)
	for t := range set {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	if !exact {
		word = nil
	}
	return tags, word, ok
}

// checkConstructed validates a hole-free constructor against the
// schema; holes are reported.
func (c *checker) checkConstructed(g cdag.Env, e xquery.Element) {
	w, exact := staticWord(e.Content)
	if !exact {
		c.failf("constructed content of <%s> contains query holes; cannot verify statically", e.Tag)
		return
	}
	if !c.d.Content[e.Tag].Matches(w) {
		c.failf("constructed content of <%s> (%v) does not match d(%s) = %s", e.Tag, w, e.Tag, c.d.Content[e.Tag])
		return
	}
	collectChildren(e.Content, func(child xquery.Element) {
		if !c.d.HasType(child.Tag) {
			c.failf("constructed element <%s> is not declared in the schema", child.Tag)
			return
		}
		c.checkConstructed(g, child)
	})
}

// staticWord extracts the exact top-level child-tag word of
// constructor content when it is hole-free.
func staticWord(q xquery.Query) ([]string, bool) {
	switch n := q.(type) {
	case xquery.Empty:
		return nil, true
	case xquery.StringLit:
		return []string{dtd.StringType}, true
	case xquery.Element:
		return []string{n.Tag}, true
	case xquery.Sequence:
		l, ok1 := staticWord(n.Left)
		r, ok2 := staticWord(n.Right)
		return append(l, r...), ok1 && ok2
	default:
		return nil, false
	}
}

func collectChildren(q xquery.Query, f func(xquery.Element)) {
	switch n := q.(type) {
	case xquery.Element:
		f(n)
	case xquery.Sequence:
		collectChildren(n.Left, f)
		collectChildren(n.Right, f)
	}
}
