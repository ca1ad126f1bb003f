package refcdag

import (
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/xquery"
)

// commonNodes returns the nodes reachable from shared roots by edges
// present in both DAGs — the nodes n such that some common path spells
// a shared chain prefix ending at n.
func commonNodes(a, b *Set) map[Node]bool {
	seen := make(map[Node]bool)
	var frontier []Node
	for r := range a.roots {
		if b.roots[r] {
			n := Node{0, r}
			seen[n] = true
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			a.eng.budget.Tick()
			for to := range a.out[f] {
				if !b.hasEdge(f, to) {
					continue
				}
				n := Node{f.Depth + 1, to}
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return seen
}

// reachesEnd reports whether some endpoint of s is forward-reachable
// from n within s's edges (zero-length paths count).
func (s *Set) reachesEnd(n Node) bool {
	if s.ends[n] {
		return true
	}
	seen := map[Node]bool{n: true}
	frontier := []Node{n}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			s.eng.budget.Tick()
			for _, c := range s.succs(f) {
				if s.ends[c] {
					return true
				}
				if !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return false
}

// ConflictRetUpdate decides confl(r, U) over DAGs: some return chain
// is a prefix of some full update chain.
func ConflictRetUpdate(r *Set, u *UpdateSet) bool {
	common := commonNodes(r, u.Full)
	for n := range r.ends {
		if common[n] && u.Full.reachesEnd(n) {
			return true
		}
	}
	return false
}

// ConflictUpdateRet decides confl(U, r): some full update chain is a
// prefix of some return chain.
func ConflictUpdateRet(u *UpdateSet, r *Set) bool {
	common := commonNodes(u.Full, r)
	for n := range u.Full.ends {
		if common[n] && r.reachesEnd(n) {
			return true
		}
	}
	return false
}

// ConflictUpdateUsed decides the used-chain check: either a full
// update chain is a prefix of a used chain (change at or above the
// used node), or a used chain ends inside a change branch (a node
// typed by it appears on or vanishes from the branch).
func ConflictUpdateUsed(u *UpdateSet, v *Set) bool {
	common := commonNodes(u.Full, v)
	for n := range u.Full.ends {
		if common[n] && v.reachesEnd(n) {
			return true
		}
	}
	for n := range v.ends {
		if common[n] && u.ChangeRegion[n] {
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
// this engine's depth bound.
func (e *Engine) CheckIndependence(q xquery.Query, u xquery.Update) Verdict {
	// Un-nest for-chains first so pure navigation prefixes batch
	// (xquery.Normalize); the semantics is unchanged.
	qc := e.Query(e.RootEnv(), xquery.Normalize(q))
	uc := e.Update(e.RootEnv(), xquery.NormalizeUpdate(u))
	e.budget.Phase("cdag.conflict")
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

// Independence runs the complete finite CDAG analysis of Section 5/6:
// k = kq + ku from Table 3, with the depth bound widened by the tags
// the pair constructs beyond the schema alphabet.
func Independence(d *dtd.DTD, q xquery.Query, u xquery.Update) Verdict {
	e := EngineFor(d, q, u)
	return e.CheckIndependence(q, u)
}

// IndependenceBudget is Independence under a resource budget: the
// engine charges b for every unit of graph growth and checks the
// deadline cooperatively, aborting via guard.Abort when exhausted
// (recover with guard.Recover or guard.Do at the caller).
func IndependenceBudget(d *dtd.DTD, q xquery.Query, u xquery.Update, b *guard.Budget) Verdict {
	b.Phase("cdag.build")
	e := EngineFor(d, q, u).WithBudget(b)
	return e.CheckIndependence(q, u)
}

// EngineFor builds the engine with the multiplicity and alphabet
// extension appropriate for the pair; q or u may be nil when only one
// side is analysed.
func EngineFor(d *dtd.DTD, q xquery.Query, u xquery.Update) *Engine {
	k := infer.KPair(q, u)
	extra := 0
	for tag := range constructedTags(q, u) {
		if !d.HasType(tag) {
			extra++
		}
	}
	return NewEngine(d, k, extra)
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
