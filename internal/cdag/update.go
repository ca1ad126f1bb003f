package cdag

import (
	"fmt"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// UpdateSet is the CDAG form of an inferred update-chain set. Full
// chains c.c' are the root→endpoint paths of Full; ChangeRegion marks
// the nodes strictly below a target prefix (the change branches),
// which is what the used-chain conflict check needs.
type UpdateSet struct {
	Full         *Set
	ChangeRegion Marks
}

func (e *Engine) newUpdateSet() *UpdateSet {
	return &UpdateSet{Full: e.NewSet(), ChangeRegion: Marks{w: e.w}}
}

// AddAll unions t into u.
func (u *UpdateSet) AddAll(t *UpdateSet) {
	u.Full.AddAll(t.Full)
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
		return e.newUpdateSet()
	case xquery.USeq:
		out := e.Update(g, n.Left)
		out.AddAll(e.Update(g, n.Right))
		return out
	case xquery.UIf:
		out := e.Update(g, n.Then)
		out.AddAll(e.Update(g, n.Else))
		return out
	case xquery.UFor:
		c1 := e.Query(g, n.In)
		bindings := c1.Ret
		if !c1.Elem.IsEmpty() {
			bindings = e.Union(c1.Ret, c1.Elem)
		}
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
		// final symbol.
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		out.ChangeRegion.union(r0.ends)
		return out
	case xquery.Rename:
		r0 := e.Query(g, n.Target).Ret
		as := e.internSym(n.As)
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		r0.forEachEnd(func(end Node) {
			out.ChangeRegion.add(end.Depth, end.Sym)
			if end.Depth == 0 {
				// Renaming the root: the new name becomes a root chain.
				out.Full.roots.Add(int(as))
				out.Full.addEnd(0, as)
				out.ChangeRegion.add(0, as)
				return
			}
			renamed := false
			r0.forPreds(end, func(p dtd.SymID) {
				out.Full.addEdge(end.Depth-1, p, as)
				renamed = true
			})
			if renamed {
				out.Full.addEnd(end.Depth, as)
				out.ChangeRegion.add(end.Depth, as)
			}
		})
		return out
	case xquery.Insert:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		// Targets are prefixes, not ends.
		out := &UpdateSet{Full: r0.cloneGraph(0), ChangeRegion: Marks{w: e.w}}
		r0.forEachEnd(func(end Node) {
			if n.Pos.IsInto() {
				e.graftSource(out, end, src)
				return
			}
			// before/after: the change happens under the target's
			// parent (INSERT-2); inserting beside the root is
			// impossible.
			r0.forPreds(end, func(p dtd.SymID) {
				e.graftSource(out, Node{end.Depth - 1, p}, src)
			})
		})
		return out
	case xquery.Replace:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		out := &UpdateSet{Full: r0.cloneGraph(0), ChangeRegion: Marks{w: e.w}}
		r0.forEachEnd(func(end Node) {
			// Removal of the target node: full chain = target chain.
			out.Full.addEnd(end.Depth, end.Sym)
			out.ChangeRegion.add(end.Depth, end.Sym)
			// Insertion of the source in the target's place.
			r0.forPreds(end, func(p dtd.SymID) {
				e.graftSource(out, Node{end.Depth - 1, p}, src)
			})
			if end.Depth == 0 {
				// Replacing the root: the source chains become
				// root-level change chains.
				e.graftAtRoots(out, src.Elem)
				for _, sEnd := range src.Ret.Ends() {
					e.graftAtRoots(out, e.suffixExtensions(sEnd.Sym, e.MaxDepth))
				}
			}
		})
		return out
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown update node %T", u)})
	}
}

// updateEach is the (FOR) update rule at binding-endpoint granularity:
// the body is inferred once per endpoint of the binding set, bound to
// that endpoint's backward cone.
func (e *Engine) updateEach(g Env, n xquery.UFor, bindings *Set) *UpdateSet {
	out := e.newUpdateSet()
	for _, end := range bindings.Ends() {
		out.AddAll(e.Update(g.Bind(n.Var, bindings.subWithEnd(end)), n.Body))
	}
	return out
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

// graftSource attaches the source chains (constructed elements and
// copied input subtrees) below the prefix node, marking the grafted
// branch as change region and its leaves as full-chain ends.
func (e *Engine) graftSource(out *UpdateSet, prefix Node, src QueryChains) {
	out.Full.graft(prefix, src.Elem, &out.ChangeRegion)
	for _, end := range src.Ret.Ends() {
		ext := e.suffixExtensions(end.Sym, e.MaxDepth)
		out.Full.graft(prefix, ext, &out.ChangeRegion)
	}
}

// graftAtRoots merges t as root-level chains of the update DAG,
// marking everything as change region (used when replacing the
// document root).
func (e *Engine) graftAtRoots(out *UpdateSet, t *Set) {
	out.Full.roots.OrCount(t.roots)
	out.ChangeRegion.or(0, t.roots)
	out.Full.orShifted(0, t, &out.ChangeRegion)
}
