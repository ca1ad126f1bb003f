package infer

import (
	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Inferrer performs chain inference for a fixed DTD over the finite
// universe Ck_d of k-chains (Section 5). For non-recursive schemas
// every chain of Cd is a 1-chain, so any K ≥ 1 makes the analysis
// exact (the "infinite" analysis of Section 4).
type Inferrer struct {
	D *dtd.DTD
	// K is the tag-multiplicity bound: inference only produces chains
	// in which every tag occurs at most K times.
	K int
	// B, when non-nil, bounds the number of materialised chains and
	// the wall-clock time; this engine is exponential in the worst
	// case, so the budget is its only defense against pathological
	// recursive schemas.
	B *guard.Budget
}

// New builds an inferrer; k is clamped to at least 1.
func New(d *dtd.DTD, k int) *Inferrer {
	if k < 1 {
		k = 1
	}
	return &Inferrer{D: d, K: k}
}

// NewBudget builds an inferrer charging b (nil means unlimited).
func NewBudget(d *dtd.DTD, k int, b *guard.Budget) *Inferrer {
	in := New(d, k)
	in.B = b
	return in
}

// RootChain is the chain {sd} typing the document root, the initial
// binding Γ = {x ↦ ds}.
func (in *Inferrer) RootChain() chain.Chain { return chain.New(in.D.Start) }

// canExtend reports whether appending sym keeps the chain a K-chain.
func (in *Inferrer) canExtend(c chain.Chain, sym string) bool {
	if sym == dtd.StringType {
		return true // S never repeats along a chain (it is always last)
	}
	n := 0
	for _, s := range c {
		if s == sym {
			n++
		}
	}
	return n < in.K
}

// childChains returns { c.α ∈ Ck | α child type of last(c) }. Every
// materialised chain is charged to the budget: chain counts are what
// explode on recursive schemas.
func (in *Inferrer) childChains(c chain.Chain) []chain.Chain {
	if c.IsEmpty() {
		return nil
	}
	var out []chain.Chain
	for _, beta := range in.D.ChildTypes(c.Last()) {
		if in.canExtend(c, beta) {
			out = append(out, c.Extend(beta))
		}
	}
	in.B.AddChains(len(out))
	return out
}

// descChains returns { c.c' ∈ Ck | c' ≠ ε } by depth-first extension.
func (in *Inferrer) descChains(c chain.Chain) []chain.Chain {
	var out []chain.Chain
	stack := in.childChains(c)
	for len(stack) > 0 {
		in.B.Tick()
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		stack = append(stack, in.childChains(x)...)
	}
	return out
}

// Extensions returns { c.c' ∈ Ck } including c itself (the paper's τ̄
// operator applied to a single chain).
func (in *Inferrer) Extensions(c chain.Chain) []chain.Chain {
	return append([]chain.Chain{c}, in.descChains(c)...)
}

// ExtendSet computes τ̄ = { c.c' | c ∈ τ, c.c' ∈ Ck }.
func (in *Inferrer) ExtendSet(t *chain.Set) *chain.Set {
	out := chain.NewSet()
	for _, c := range t.Chains() {
		for _, e := range in.Extensions(c) {
			out.Add(e)
		}
	}
	return out
}

// AC implements axis chain inference (Section 3.1) for one context
// chain. Upward results never include the empty chain: a node typed by
// a single-symbol chain is the document root, which has no parent.
func (in *Inferrer) AC(c chain.Chain, axis xquery.Axis) []chain.Chain {
	switch axis {
	case xquery.Self:
		return []chain.Chain{c}
	case xquery.Child:
		return in.childChains(c)
	case xquery.Descendant:
		return in.descChains(c)
	case xquery.DescendantOrSelf:
		return in.Extensions(c)
	case xquery.Parent:
		if c.Len() >= 2 {
			return []chain.Chain{c.Parent()}
		}
		return nil
	case xquery.Ancestor:
		var out []chain.Chain
		for p := c; p.Len() >= 2; {
			p = p.Parent()
			out = append(out, p)
		}
		return out
	case xquery.AncestorOrSelf:
		out := []chain.Chain{c}
		for p := c; p.Len() >= 2; {
			p = p.Parent()
			out = append(out, p)
		}
		return out
	case xquery.FollowingSibling:
		return in.siblingChains(c, false)
	case xquery.PrecedingSibling:
		return in.siblingChains(c, true)
	default:
		panic(&guard.InternalError{Value: "infer: unknown axis"})
	}
}

// siblingChains computes AC(c, following/preceding-sibling): chains
// c1.β with c = c1.α and β after (resp. before) α in a word of the
// parent content model d(c1).
func (in *Inferrer) siblingChains(c chain.Chain, preceding bool) []chain.Chain {
	if c.Len() < 2 {
		return nil
	}
	parent := c.Parent()
	alpha := c.Last()
	var sibs []string
	if preceding {
		sibs = in.D.PrecedingSiblingTypes(parent.Last(), alpha)
	} else {
		sibs = in.D.FollowingSiblingTypes(parent.Last(), alpha)
	}
	var out []chain.Chain
	for _, beta := range sibs {
		if in.canExtend(parent, beta) {
			out = append(out, parent.Extend(beta))
		}
	}
	return out
}

// TC implements node-test chain inference: it keeps the chains whose
// last symbol satisfies φ. Tag tests compare the element label
// produced by the type (µ for Extended DTDs).
func (in *Inferrer) TC(cs []chain.Chain, test xquery.NodeTest) []chain.Chain {
	var out []chain.Chain
	for _, c := range cs {
		if c.IsEmpty() {
			continue
		}
		last := c.Last()
		switch test.Kind {
		case xquery.NodeAny:
			out = append(out, c)
		case xquery.TextTest:
			if last == dtd.StringType {
				out = append(out, c)
			}
		case xquery.TagTest:
			if last != dtd.StringType && in.D.LabelOf(last) == test.Tag {
				out = append(out, c)
			}
		case xquery.WildcardTest:
			if last != dtd.StringType {
				out = append(out, c)
			}
		}
	}
	return out
}

// StepChains computes TC(AC(c, axis), φ) for one context chain — the
// chains reached by one XPath step from a node typed c (Lemma 3.1).
func (in *Inferrer) StepChains(c chain.Chain, axis xquery.Axis, test xquery.NodeTest) []chain.Chain {
	return in.TC(in.AC(c, axis), test)
}
