package infer

import (
	"fmt"

	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// ConflictKind identifies which of the three checks of Definition 4.1
// a conflicting pair violates.
type ConflictKind int

const (
	// RetInUpdate is confl(r, U): an update changes data at or below a
	// node returned by the query.
	RetInUpdate ConflictKind = iota
	// UpdateInRet is confl(U, r): the query returns a node at or below
	// changed data.
	UpdateInRet
	// UpdateInUsed is confl(U, v): the query uses a node at or below
	// changed data.
	UpdateInUsed
)

func (k ConflictKind) String() string {
	switch k {
	case RetInUpdate:
		return "confl(r,U)"
	case UpdateInRet:
		return "confl(U,r)"
	case UpdateInUsed:
		return "confl(U,v)"
	}
	return "?"
}

// Conflict is a witness pair of the dependence decision.
type Conflict struct {
	Kind ConflictKind
	Pair chain.ConflictPair
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s: %s", c.Kind, c.Pair)
}

// Verdict is the outcome of a chain-based independence check,
// including the inferred chain sets for inspection.
type Verdict struct {
	Independent bool
	Conflicts   []Conflict
	Query       QueryChains
	Update      *UpdateSet
	K           int
}

// CheckIndependence decides q ⊥Ck u (Definition 4.1) over this
// inferrer's k-chain universe: independence holds when
// confl(r,U) = confl(U,r) = confl(U,v) = ∅.
//
// An update chain c:c' participates through its full chain c.c' for
// the return-chain checks. For the used-chain check the change suffix
// is read as a *branch*: the update may create (or remove) a node at
// every chain c.c” with ε ≺ c” ⪯ c', so a used chain cv conflicts
// when it is prefix-comparable with c.c' AND extends strictly past the
// target prefix c. Reading Definition 4.1 with full chains only would
// miss intermediate inserted nodes (e.g. the author element of chain
// bib.book:author.first.S flipping an existence condition on
// bib.book.author); Theorem 3.4 types exactly those nodes, and the
// differential soundness test pins this behaviour.
func (in *Inferrer) CheckIndependence(q xquery.Query, u xquery.Update) Verdict {
	qc := in.Query(in.RootEnv(), q)
	uc := in.Update(in.RootEnv(), u)
	in.B.Phase("infer.conflict")
	full := uc.FullChains()

	var conflicts []Conflict
	for _, p := range chain.Conflicts(qc.Ret, full) {
		conflicts = append(conflicts, Conflict{Kind: RetInUpdate, Pair: p})
	}
	for _, p := range chain.Conflicts(full, qc.Ret) {
		conflicts = append(conflicts, Conflict{Kind: UpdateInRet, Pair: p})
	}
	for _, w := range uc.Chains() {
		in.B.Tick()
		f := w.Full()
		for _, cv := range qc.Used.Chains() {
			switch {
			case f.IsPrefixOf(cv):
				// Change at or above the used node.
				conflicts = append(conflicts, Conflict{Kind: UpdateInUsed, Pair: chain.ConflictPair{Left: f, Right: cv}})
			case cv.IsPrefixOf(f) && cv.Len() > w.Target.Len():
				// A node typed cv appears on (or vanishes from) the
				// changed branch below the target.
				conflicts = append(conflicts, Conflict{Kind: UpdateInUsed, Pair: chain.ConflictPair{Left: cv, Right: f}})
			}
		}
	}
	return Verdict{
		Independent: len(conflicts) == 0,
		Conflicts:   conflicts,
		Query:       qc,
		Update:      uc,
		K:           in.K,
	}
}

// Independence runs the complete finite analysis of Section 5: it
// derives k = kq + ku from the pair and checks k-chain independence
// over d.
func Independence(d *dtd.DTD, q xquery.Query, u xquery.Update) Verdict {
	in := New(d, KPair(q, u))
	return in.CheckIndependence(q, u)
}

// IndependenceBudget is Independence under a resource budget: the
// engine charges b for every materialised chain and checks the
// deadline cooperatively, aborting via guard.Abort when exhausted
// (recover with guard.Recover or guard.Do at the caller).
func IndependenceBudget(d *dtd.DTD, q xquery.Query, u xquery.Update, b *guard.Budget) Verdict {
	b.Phase("infer.chains")
	in := NewBudget(d, KPair(q, u), b)
	return in.CheckIndependence(q, u)
}
