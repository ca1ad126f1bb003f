package cdag

import (
	"fmt"
	mathbits "math/bits"

	"xqindep/internal/bitset"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/xquery"
)

// commonNodes returns the nodes reachable from shared roots by edges
// present in both DAGs — the nodes n such that some common path spells
// a shared chain prefix ending at n. The walk is one descending sweep:
// common nodes at depth d+1 are the union over common symbols α at
// depth d of out_a[d][α] ∧ out_b[d][α], and only the α both DAGs store
// a row for are looked up. The marking is a sweep its caller releases.
func commonNodes(a, b *Set) Marks {
	if !a.roots().Intersects(b.roots()) {
		return Marks{}
	}
	maxd := min(a.nd, b.nd)
	seen := a.eng.sweep(maxd + 1)
	seen.at(0).AndOf(a.roots(), b.roots())
	for d := 0; d < maxd; d++ {
		cur := seen.at(d)
		if !cur.Any() {
			break
		}
		next := seen.at(d + 1)
		ao, bo := a.occ(d), b.occ(d)
		// Word-wise iteration, no closure: this and endReach are the
		// only loops on the per-check path.
		for w, word := range cur {
			for word &= ao[w] & bo[w]; word != 0; word &= word - 1 {
				f := dtd.SymID(w*64 + mathbits.TrailingZeros64(word))
				a.eng.budget.Tick()
				next.OrAnd(a.outAt(d, f), b.outAt(d, f))
			}
		}
	}
	return seen
}

// endReach returns, per depth, the symbols from which some endpoint of
// s is forward-reachable within s's edges (zero-length paths count):
// back[d] = ends[d] ∪ {α : out[d][α] ∩ back[d+1] ≠ ∅}. One descending
// sweep answers every "does an end survive below this node?" probe the
// conflict checks make, replacing a forward walk per candidate node.
// The marking is a sweep its caller releases.
func (s *Set) endReach() Marks {
	maxd := max(s.nd, s.ends.depths-1)
	back := s.eng.sweep(maxd + 1)
	for d := maxd; d >= 0; d-- {
		s.eng.budget.Tick()
		b := back.at(d)
		b.OrCount(s.ends.at(d))
		if below := back.at(d + 1); d < s.nd && below.Any() {
			s.orPreds(b, d+1, below)
		}
	}
	return back
}

// ConflictRetUpdate decides confl(r, U) over DAGs: some return chain
// is a prefix of some full update chain. Like the other two checks it
// reads a nil set as empty, and it allocates nothing: its sweeps come
// from the engine's scratch.
func ConflictRetUpdate(r *Set, u *UpdateSet) bool {
	return prefixConflict(r, u.Full)
}

// ConflictUpdateRet decides confl(U, r): some full update chain is a
// prefix of some return chain.
func ConflictUpdateRet(u *UpdateSet, r *Set) bool {
	return prefixConflict(u.Full, r)
}

// prefixConflict reports whether some chain of a is a prefix of some
// chain of b (Definition 4.1 specialised to one direction): an a-end
// sits on a common prefix and some b-end is reachable at or below it.
// With b's ends-reachability precomputed, every depth is answered by
// one three-way word-wise intersection over the two sweeps.
func prefixConflict(a, b *Set) bool {
	if a == nil || b == nil {
		return false
	}
	e := a.eng
	defer e.release(e.top)
	common := commonNodes(a, b)
	if !common.any() {
		return false
	}
	reach := b.endReach()
	for d := 0; d < a.ends.depths; d++ {
		if bitset.IntersectsAll(a.ends.at(d), common.at(d), reach.at(d)) {
			return true
		}
	}
	return false
}

// ConflictUpdateUsed decides the used-chain check: either a full
// update chain is a prefix of a used chain (change at or above the
// used node), or a used chain ends inside a change branch (a node
// typed by it appears on or vanishes from the branch). Both probes
// share one commonNodes sweep and run as three-way intersections; both
// need a common node, so a pair without one is decided by that sweep.
func ConflictUpdateUsed(u *UpdateSet, v *Set) bool {
	if u.Full == nil || v == nil {
		return false
	}
	e := v.eng
	defer e.release(e.top)
	common := commonNodes(u.Full, v)
	if !common.any() {
		return false
	}
	reach := v.endReach()
	for d := 0; d < u.Full.ends.depths; d++ {
		if bitset.IntersectsAll(u.Full.ends.at(d), common.at(d), reach.at(d)) {
			return true
		}
	}
	for d := 0; d < v.ends.depths; d++ {
		if bitset.IntersectsAll(v.ends.at(d), common.at(d), u.ChangeRegion.at(d)) {
			return true
		}
	}
	return false
}

// Verdict is the outcome of a CDAG independence check.
type Verdict struct {
	Independent bool
	// Reasons lists which checks fired, e.g. "confl(r,U)".
	Reasons []string
	Query   QueryChains
	Update  *UpdateSet
	K       int
}

// CheckIndependence runs the full CDAG analysis for the pair under
// this engine's depth bound. The pair must already be normalized
// (xquery.Normalize, xquery.NormalizeUpdate), which un-nests
// for-chains so pure navigation prefixes batch; the raw-AST wrappers
// below and the plan builder do it once per build. Its three guard
// points — cdag.infer_query, cdag.infer_update and cdag.conflict —
// split a traced build into its stages and are fault points too.
func (e *Engine) CheckIndependence(q xquery.Query, u xquery.Update) Verdict {
	e.budget.Point("cdag.infer_query")
	qc := e.Query(e.RootEnv(), q)
	e.budget.Point("cdag.infer_update")
	uc := e.Update(e.RootEnv(), u)
	e.budget.Point("cdag.conflict")
	var reasons []string
	if ConflictRetUpdate(qc.Ret, uc) {
		reasons = append(reasons, "confl(r,U)")
	}
	if ConflictUpdateRet(uc, qc.Ret) {
		reasons = append(reasons, "confl(U,r)")
	}
	if ConflictUpdateUsed(uc, qc.Used) {
		reasons = append(reasons, "confl(U,v)")
	}
	return Verdict{
		Independent: len(reasons) == 0,
		Reasons:     reasons,
		Query:       qc,
		Update:      uc,
		K:           e.K,
	}
}

func (v Verdict) String() string {
	if v.Independent {
		return "independent"
	}
	return fmt.Sprintf("dependent (%v)", v.Reasons)
}

// Independence runs the complete finite CDAG analysis of Section 5/6:
// k = kq + ku from Table 3, with the depth bound widened by the tags
// the pair constructs beyond the schema alphabet.
func Independence(d *dtd.DTD, q xquery.Query, u xquery.Update) Verdict {
	e := EngineFor(d, q, u)
	return e.CheckIndependence(xquery.Normalize(q), xquery.NormalizeUpdate(u))
}

// IndependenceCompiled is Independence over a pre-compiled schema.
func IndependenceCompiled(c *dtd.Compiled, q xquery.Query, u xquery.Update) Verdict {
	e := EngineForCompiled(c, q, u)
	return e.CheckIndependence(xquery.Normalize(q), xquery.NormalizeUpdate(u))
}

// IndependenceBudget is Independence under a resource budget: the
// engine charges b for every unit of graph growth and checks the
// deadline cooperatively, aborting via guard.Abort when exhausted
// (recover with guard.Recover or guard.Do at the caller).
func IndependenceBudget(d *dtd.DTD, q xquery.Query, u xquery.Update, b *guard.Budget) Verdict {
	b.Point("cdag.build")
	e := EngineFor(d, q, u).WithBudget(b)
	return e.CheckIndependence(xquery.Normalize(q), xquery.NormalizeUpdate(u))
}

// EngineFor builds the engine with the multiplicity and alphabet
// extension appropriate for the pair; q or u may be nil when only one
// side is analysed. The multiplicity k = kq + ku of Table 3 comes
// from infer.KPair, the single implementation all engines share.
func EngineFor(d *dtd.DTD, q xquery.Query, u xquery.Update) *Engine {
	return NewEngine(d, infer.KPair(q, u), pairExtras(d, q, u))
}

// EngineForCompiled is EngineFor over a pre-compiled schema.
func EngineForCompiled(c *dtd.Compiled, q xquery.Query, u xquery.Update) *Engine {
	return NewEngineCompiled(c, infer.KPair(q, u), pairExtras(c.DTD(), q, u))
}

// pairExtras counts the constructed tags outside the schema alphabet.
func pairExtras(d *dtd.DTD, q xquery.Query, u xquery.Update) int {
	extra := 0
	for tag := range constructedTags(q, u) {
		if !d.HasType(tag) {
			extra++
		}
	}
	return extra
}

// constructedTags collects element-constructor tags and rename targets
// of the pair.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func constructedTags(q xquery.Query, u xquery.Update) map[string]bool {
	out := make(map[string]bool)
	var walkQ func(xquery.Query)
	var walkU func(xquery.Update)
	walkQ = func(x xquery.Query) {
		switch n := x.(type) {
		case xquery.Sequence:
			walkQ(n.Left)
			walkQ(n.Right)
		case xquery.Element:
			out[n.Tag] = true
			walkQ(n.Content)
		case xquery.For:
			walkQ(n.In)
			walkQ(n.Return)
		case xquery.Let:
			walkQ(n.Bind)
			walkQ(n.Return)
		case xquery.If:
			walkQ(n.Cond)
			walkQ(n.Then)
			walkQ(n.Else)
		}
	}
	walkU = func(x xquery.Update) {
		switch n := x.(type) {
		case xquery.USeq:
			walkU(n.Left)
			walkU(n.Right)
		case xquery.UFor:
			walkQ(n.In)
			walkU(n.Body)
		case xquery.ULet:
			walkQ(n.Bind)
			walkU(n.Body)
		case xquery.UIf:
			walkQ(n.Cond)
			walkU(n.Then)
			walkU(n.Else)
		case xquery.Delete:
			walkQ(n.Target)
		case xquery.Rename:
			walkQ(n.Target)
			out[n.As] = true
		case xquery.Insert:
			walkQ(n.Source)
			walkQ(n.Target)
		case xquery.Replace:
			walkQ(n.Target)
			walkQ(n.Source)
		}
	}
	if q != nil {
		walkQ(q)
	}
	if u != nil {
		walkU(u)
	}
	return out
}
