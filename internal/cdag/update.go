package cdag

import (
	"fmt"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// UpdateSet is the CDAG form of an inferred update-chain set. Full
// chains c.c' are the root→endpoint paths of Full (nil when there are
// none); ChangeRegion marks the nodes strictly below a target prefix
// (the change branches), which is what the used-chain conflict check
// needs.
type UpdateSet struct {
	Full         *Set
	ChangeRegion Marks
}

// AddAll unions t into u. Like Set.AddAll, an empty u takes over t's
// storage, so t must be an update set the engine returned to this
// caller and must not be used afterwards.
func (u *UpdateSet) AddAll(t *UpdateSet) {
	u.Full = addAll(u.Full, t.Full)
	if u.ChangeRegion.depths == 0 {
		u.ChangeRegion = t.ChangeRegion
		return
	}
	u.ChangeRegion.union(t.ChangeRegion)
}

// IsEmpty reports whether no update chains were inferred.
func (u *UpdateSet) IsEmpty() bool { return u.Full.IsEmpty() }

// Update infers the update-chain DAG of u under Γ, mirroring Table 2
// (with the same (REPLACE) correction as package infer).
func (e *Engine) Update(g Env, u xquery.Update) *UpdateSet {
	e.budget.Tick()
	switch n := u.(type) {
	case xquery.UEmpty:
		return &UpdateSet{}
	case xquery.USeq:
		out := e.Update(g, n.Left)
		out.AddAll(e.Update(g, n.Right))
		return out
	case xquery.UIf:
		out := e.Update(g, n.Then)
		out.AddAll(e.Update(g, n.Else))
		return out
	case xquery.UFor:
		bindings := e.bindingSet(e.Query(g, n.In))
		if targetsOnlyVar(n.Body, n.Var) {
			// One pass over every binding at once. Per binding endpoint
			// the body's result is that endpoint's backward cone plus
			// edits at that endpoint alone (delete marks it changed;
			// rename adds an edge from each of its predecessors, all of
			// which lie in its cone). So the union over endpoints is
			// exactly one inference over the union of the cones.
			return e.Update(g.Bind(n.Var, bindings.endCones()), n.Body)
		}
		return e.updateEach(g, n, bindings)
	case xquery.ULet:
		c1 := e.Query(g, n.Bind)
		return e.Update(g.Bind(n.Var, e.Union(c1.Ret, c1.Elem)), n.Body)
	case xquery.Delete:
		// Full chains are the target chains; the change suffix is the
		// final symbol. The target set is this rule's own, so it
		// becomes the full-chain set as it is.
		r0 := e.target(g, n.Target)
		return &UpdateSet{Full: r0, ChangeRegion: r0.ends.clone()}
	case xquery.Rename:
		return e.rename(e.target(g, n.Target), e.internSym(n.As))
	case xquery.Insert:
		src := e.Query(g, n.Source)
		r0 := e.target(g, n.Target)
		exts := e.sourceExtensions(src)
		var parts []part
		r0.forEachEnd(func(end Node) {
			if n.Pos.IsInto() {
				parts = sourceParts(parts, end, src, exts)
				return
			}
			// before/after: the change happens under the target's
			// parent (INSERT-2); inserting beside the root is
			// impossible.
			r0.forPreds(end, func(p dtd.SymID) {
				parts = sourceParts(parts, Node{end.Depth - 1, p}, src, exts)
			})
		})
		// Targets are prefixes, not ends: the full chains are the
		// target graph (this rule's own) without its endpoints.
		r0.ends = Marks{w: e.w}
		out := &UpdateSet{Full: r0, ChangeRegion: Marks{w: e.w}}
		out.Full.merge(parts, &out.ChangeRegion)
		return out
	case xquery.Replace:
		src := e.Query(g, n.Source)
		r0 := e.target(g, n.Target)
		exts := e.sourceExtensions(src)
		var parts []part
		r0.forEachEnd(func(end Node) {
			// Insertion of the source in the target's place.
			r0.forPreds(end, func(p dtd.SymID) {
				parts = sourceParts(parts, Node{end.Depth - 1, p}, src, exts)
			})
			if end.Depth == 0 {
				// Replacing the root: the source chains become
				// root-level change chains.
				if src.Elem != nil {
					parts = append(parts, part{t: src.Elem})
				}
				for _, ext := range exts {
					parts = append(parts, part{t: ext})
				}
			}
		})
		// Removal of each target node: its full chain is the target
		// chain, so the target set (this rule's own) is the base.
		out := &UpdateSet{Full: r0, ChangeRegion: r0.ends.clone()}
		out.Full.merge(parts, &out.ChangeRegion)
		return out
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown update node %T", u)})
	}
}

// updateEach is the (FOR) update rule at binding-endpoint granularity:
// the body is inferred once per endpoint of the binding set, bound to
// that endpoint's backward cone.
func (e *Engine) updateEach(g Env, n xquery.UFor, bindings *Set) *UpdateSet {
	out := &UpdateSet{}
	for _, end := range bindings.Ends() {
		out.AddAll(e.Update(g.Bind(n.Var, bindings.subWithEnd(end)), n.Body))
	}
	return out
}

// target infers the target set of an update rule that writes into it:
// the rule's own copy of the target chains, or a fresh empty set when
// there are none.
func (e *Engine) target(g Env, q xquery.Query) *Set {
	if r0 := e.Query(g, q).Ret; r0 != nil {
		return r0
	}
	return e.NewSet()
}

// targetsOnlyVar reports whether body is exactly `delete $v` or
// `rename $v as a`: an update whose only target is the loop variable.
func targetsOnlyVar(body xquery.Update, v string) bool {
	var target xquery.Query
	switch b := body.(type) {
	case xquery.Delete:
		target = b.Target
	case xquery.Rename:
		target = b.Target
	default:
		return false
	}
	x, ok := target.(xquery.Var)
	return ok && x.Name == v
}

// rename is the (RENAME) rule over the target set r0, which is the
// rule's own and becomes the full-chain set: every target node keeps
// its chain, and as joins it as a sibling under each of the target's
// parents (or as a root). Every parent is read before anything is
// written, and a renamed edge lands in a row its parent already has,
// so the graph is written in place.
func (e *Engine) rename(r0 *Set, as dtd.SymID) *UpdateSet {
	defer e.release(e.top)
	cr := r0.ends.clone()
	parents := e.sweep(r0.ends.depths)
	for d := 1; d < r0.ends.depths; d++ {
		r0.orPreds(parents.at(d-1), d, r0.ends.at(d))
	}
	if r0.ends.at(0).Any() {
		// Renaming the root: the new name becomes a root chain.
		r0.addRoot(as)
		r0.addEnd(0, as)
		cr.add(0, as)
	}
	n := 0
	for d := 1; d < parents.depths; d++ {
		ps := parents.at(d - 1)
		if !ps.Any() {
			continue
		}
		ps.ForEach(func(p int) {
			row := r0.outAt(d-1, dtd.SymID(p))
			row.Add(int(as))
			n++
		})
		r0.addEnd(d, as)
		cr.add(d, as)
	}
	e.budget.AddNodes(n)
	return &UpdateSet{Full: r0, ChangeRegion: cr}
}

// sourceExtensions returns the schema extensions α.c' of every return
// endpoint α of an update's source: the copied subtrees it inserts.
func (e *Engine) sourceExtensions(src QueryChains) []*Set {
	var exts []*Set
	src.Ret.forEachEnd(func(end Node) {
		exts = append(exts, e.suffixExtensions(end.Sym, e.MaxDepth))
	})
	return exts
}

// sourceParts appends the grafts that attach the source chains —
// constructed elements and copied input subtrees — below the prefix
// node: merged into the full-chain set with the change region, they
// mark the grafted branch as changed and its leaves as full-chain
// ends.
func sourceParts(parts []part, prefix Node, src QueryChains, exts []*Set) []part {
	at := prefix.Depth + 1
	if src.Elem != nil {
		parts = append(parts, part{t: src.Elem, off: at, at: prefix.Sym})
	}
	for _, ext := range exts {
		parts = append(parts, part{t: ext, off: at, at: prefix.Sym})
	}
	return parts
}
