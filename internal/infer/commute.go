package infer

import (
	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// This file extends the chain framework from query-update independence
// to update-update commutativity — the problem of Ghelli, Rose and
// Siméon (the paper's citation [15]). Two updates commute when
// applying them in either order produces the same document on every
// valid input.
//
// The sufficient condition mirrors Definition 4.1, applied twice, with
// the reads of an update split in three classes:
//
//   - selection reads: return chains of target and binding queries —
//     the nodes the update picks to act on;
//   - observation reads: condition chains and every used chain — what
//     the update's control flow inspects;
//   - source reads: return chains of insert/replace sources, whose
//     entire subtrees are copied.
//
// Writes of one update conflict with selection and observation reads
// of the other under the used-chain rule (changes at or above the read
// node, or new nodes appearing along the changed branch), and with
// source reads under full prefix comparability (a change anywhere in a
// copied subtree matters). Writes conflict with writes when their full
// chains are prefix-comparable — except that two delete-only updates
// always converge (removing overlapping regions is order-insensitive),
// so for such pairs only observation reads are checked.

// UpdateReads classifies the chains an update reads.
type UpdateReads struct {
	Selection   *chain.Set
	Observation *chain.Set
	Source      *chain.Set
}

// Reads infers the classified read chains of u.
func (in *Inferrer) Reads(g Env, u xquery.Update) UpdateReads {
	out := UpdateReads{Selection: chain.NewSet(), Observation: chain.NewSet(), Source: chain.NewSet()}
	var walk func(g Env, u xquery.Update)
	target := func(g Env, q xquery.Query) {
		qc := in.Query(g, q)
		out.Selection.AddAll(qc.Ret)
		out.Observation.AddAll(qc.Used)
	}
	walk = func(g Env, u xquery.Update) {
		switch n := u.(type) {
		case xquery.UEmpty:
		case xquery.USeq:
			walk(g, n.Left)
			walk(g, n.Right)
		case xquery.UIf:
			qc := in.Query(g, n.Cond)
			out.Observation.AddAll(qc.Ret)
			out.Observation.AddAll(qc.Used)
			walk(g, n.Then)
			walk(g, n.Else)
		case xquery.UFor:
			c1 := in.Query(g, n.In)
			out.Selection.AddAll(c1.Ret)
			out.Observation.AddAll(c1.Used)
			walk(g.Bind(n.Var, chain.Union(c1.Ret, c1.Elem)), n.Body)
		case xquery.ULet:
			c1 := in.Query(g, n.Bind)
			out.Selection.AddAll(c1.Ret)
			out.Observation.AddAll(c1.Used)
			walk(g.Bind(n.Var, chain.Union(c1.Ret, c1.Elem)), n.Body)
		case xquery.Delete:
			target(g, n.Target)
		case xquery.Rename:
			target(g, n.Target)
		case xquery.Insert:
			target(g, n.Target)
			sc := in.Query(g, n.Source)
			out.Source.AddAll(sc.Ret)
			out.Observation.AddAll(sc.Used)
		case xquery.Replace:
			target(g, n.Target)
			sc := in.Query(g, n.Source)
			out.Source.AddAll(sc.Ret)
			out.Observation.AddAll(sc.Used)
		}
	}
	walk(g, u)
	return out
}

// isDeleteOnly reports whether u performs only deletions.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func isDeleteOnly(u xquery.Update) bool {
	switch n := u.(type) {
	case xquery.UEmpty, xquery.Delete:
		return true
	case xquery.USeq:
		return isDeleteOnly(n.Left) && isDeleteOnly(n.Right)
	case xquery.UIf:
		return isDeleteOnly(n.Then) && isDeleteOnly(n.Else)
	case xquery.UFor:
		return isDeleteOnly(n.Body)
	case xquery.ULet:
		return isDeleteOnly(n.Body)
	default:
		return false
	}
}

// CommuteVerdict reports the outcome of a commutativity check.
type CommuteVerdict struct {
	Commute   bool
	Conflicts []Conflict
	K         int
}

// CheckCommutativity decides whether u1 and u2 commute under this
// inferrer's k-chain universe.
func (in *Inferrer) CheckCommutativity(u1, u2 xquery.Update) CommuteVerdict {
	g := in.RootEnv()
	w1 := in.Update(g, u1)
	w2 := in.Update(g, u2)
	r1 := in.Reads(g, u1)
	r2 := in.Reads(g, u2)
	bothDelete := isDeleteOnly(u1) && isDeleteOnly(u2)

	var conflicts []Conflict
	check := func(w *UpdateSet, r UpdateReads) {
		conflicts = append(conflicts, usedRuleConflicts(w, r.Observation)...)
		if !bothDelete {
			conflicts = append(conflicts, usedRuleConflicts(w, r.Selection)...)
			conflicts = append(conflicts, symmetricConflicts(w, r.Source)...)
		}
	}
	check(w1, r2)
	check(w2, r1)
	if !bothDelete {
		f1, f2 := w1.FullChains(), w2.FullChains()
		for _, p := range chain.Conflicts(f1, f2) {
			conflicts = append(conflicts, Conflict{Kind: RetInUpdate, Pair: p})
		}
		for _, p := range chain.Conflicts(f2, f1) {
			conflicts = append(conflicts, Conflict{Kind: RetInUpdate, Pair: p})
		}
	}
	return CommuteVerdict{Commute: len(conflicts) == 0, Conflicts: conflicts, K: in.K}
}

// usedRuleConflicts applies the used-chain conflict rule between write
// chains and read chains (see CheckIndependence).
func usedRuleConflicts(w *UpdateSet, reads *chain.Set) []Conflict {
	var out []Conflict
	for _, wc := range w.Chains() {
		f := wc.Full()
		for _, rc := range reads.Chains() {
			switch {
			case f.IsPrefixOf(rc):
				out = append(out, Conflict{Kind: UpdateInUsed, Pair: chain.ConflictPair{Left: f, Right: rc}})
			case rc.IsPrefixOf(f) && rc.Len() > wc.Target.Len():
				out = append(out, Conflict{Kind: UpdateInUsed, Pair: chain.ConflictPair{Left: rc, Right: f}})
			}
		}
	}
	return out
}

// symmetricConflicts reports any prefix comparability (for copied
// source subtrees).
func symmetricConflicts(w *UpdateSet, reads *chain.Set) []Conflict {
	var out []Conflict
	for _, wc := range w.Chains() {
		f := wc.Full()
		for _, rc := range reads.Chains() {
			if f.IsPrefixOf(rc) || rc.IsPrefixOf(f) {
				out = append(out, Conflict{Kind: UpdateInUsed, Pair: chain.ConflictPair{Left: f, Right: rc}})
			}
		}
	}
	return out
}

// Commutativity is the package-level convenience: k is derived from
// both updates (ku1 + ku2, at least 1).
func Commutativity(d *dtd.DTD, u1, u2 xquery.Update) CommuteVerdict {
	return CommutativityBudget(d, u1, u2, nil)
}

// CommutativityBudget is Commutativity under a resource budget (nil
// means unlimited): the engine charges b for every materialised chain
// and checks the deadline cooperatively, aborting via guard.Abort when
// exhausted (recover with guard.Recover or guard.Do at the caller).
func CommutativityBudget(d *dtd.DTD, u1, u2 xquery.Update, b *guard.Budget) CommuteVerdict {
	return NewBudget(d, KUpdate(u1)+KUpdate(u2), b).CheckCommutativity(u1, u2)
}
