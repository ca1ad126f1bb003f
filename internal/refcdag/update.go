package refcdag

import (
	"fmt"

	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// UpdateSet is the CDAG form of an inferred update-chain set. Full
// chains c.c' are the root→endpoint paths of Full; ChangeRegion marks
// the nodes strictly below a target prefix (the change branches),
// which is what the used-chain conflict check needs.
type UpdateSet struct {
	Full         *Set
	ChangeRegion map[Node]bool
}

func (e *Engine) newUpdateSet() *UpdateSet {
	return &UpdateSet{Full: e.NewSet(), ChangeRegion: make(map[Node]bool)}
}

// AddAll unions t into u.
func (u *UpdateSet) AddAll(t *UpdateSet) {
	u.Full.AddAll(t.Full)
	for n := range t.ChangeRegion {
		u.ChangeRegion[n] = true
	}
}

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
		out := e.newUpdateSet()
		for _, end := range bindings.Ends() {
			out.AddAll(e.Update(g.Bind(n.Var, bindings.subWithEnd(end)), n.Body))
		}
		return out
	case xquery.ULet:
		c1 := e.Query(g, n.Bind)
		return e.Update(g.Bind(n.Var, e.Union(c1.Ret, c1.Elem)), n.Body)
	case xquery.Delete:
		// Full chains are the target chains; the change suffix is the
		// final symbol.
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		for end := range r0.ends {
			out.ChangeRegion[end] = true
		}
		return out
	case xquery.Rename:
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		for end := range r0.ends {
			out.ChangeRegion[end] = true
			if end.Depth == 0 {
				// Renaming the root: the new name becomes a root chain.
				out.Full.roots[n.As] = true
				nn := Node{0, n.As}
				out.Full.ends[nn] = true
				out.ChangeRegion[nn] = true
				continue
			}
			for _, p := range r0.preds(end) {
				out.Full.addEdge(p, n.As)
				nn := Node{end.Depth, n.As}
				out.Full.ends[nn] = true
				out.ChangeRegion[nn] = true
			}
		}
		return out
	case xquery.Insert:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		out.Full.ends = make(map[Node]bool) // targets are prefixes, not ends
		for end := range r0.ends {
			if n.Pos.IsInto() {
				e.graftSource(out, end, src)
				continue
			}
			// before/after: the change happens under the target's
			// parent (INSERT-2); inserting beside the root is
			// impossible.
			for _, p := range r0.preds(end) {
				e.graftSource(out, p, src)
			}
		}
		return out
	case xquery.Replace:
		src := e.Query(g, n.Source)
		r0 := e.Query(g, n.Target).Ret
		out := e.newUpdateSet()
		out.Full.AddAll(r0)
		out.Full.ends = make(map[Node]bool)
		for end := range r0.ends {
			// Removal of the target node: full chain = target chain.
			out.Full.ends[end] = true
			out.ChangeRegion[end] = true
			// Insertion of the source in the target's place.
			for _, p := range r0.preds(end) {
				e.graftSource(out, p, src)
			}
			if end.Depth == 0 {
				// Replacing the root: the source chains become
				// root-level change chains.
				e.graftAtRoots(out, src.Elem)
				for _, sEnd := range src.Ret.Ends() {
					e.graftAtRoots(out, e.SuffixExtensions(sEnd.Sym, e.MaxDepth))
				}
			}
		}
		return out
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown update node %T", u)})
	}
}

// graftSource attaches the source chains (constructed elements and
// copied input subtrees) below the prefix node, marking the grafted
// branch as change region and its leaves as full-chain ends.
func (e *Engine) graftSource(out *UpdateSet, prefix Node, src QueryChains) {
	e.graftMarked(out, prefix, src.Elem)
	for _, end := range src.Ret.Ends() {
		ext := e.SuffixExtensions(end.Sym, e.MaxDepth)
		e.graftMarked(out, prefix, ext)
	}
}

// graftMarked is Set.graft plus change-region bookkeeping.
func (e *Engine) graftMarked(out *UpdateSet, base Node, t *Set) {
	off := base.Depth + 1
	if off > e.MaxDepth {
		return
	}
	for r := range t.roots {
		out.Full.addEdge(base, r)
		out.ChangeRegion[Node{off, r}] = true
	}
	for from, tos := range t.out {
		if off+from.Depth+1 > e.MaxDepth {
			continue
		}
		sf := Node{off + from.Depth, from.Sym}
		for to := range tos {
			out.Full.addEdge(sf, to)
			out.ChangeRegion[Node{off + from.Depth + 1, to}] = true
		}
	}
	for n := range t.ends {
		if off+n.Depth <= e.MaxDepth {
			nn := Node{off + n.Depth, n.Sym}
			out.Full.ends[nn] = true
			out.ChangeRegion[nn] = true
		}
	}
}

// graftAtRoots merges t as root-level chains of the update DAG,
// marking everything as change region (used when replacing the
// document root).
func (e *Engine) graftAtRoots(out *UpdateSet, t *Set) {
	for r := range t.roots {
		out.Full.roots[r] = true
		out.ChangeRegion[Node{0, r}] = true
	}
	for from, tos := range t.out {
		for to := range tos {
			out.Full.addEdge(from, to)
			out.ChangeRegion[Node{from.Depth + 1, to}] = true
		}
	}
	for n := range t.ends {
		out.Full.ends[n] = true
		out.ChangeRegion[n] = true
	}
}
