package cdag

import (
	"fmt"

	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Env is the static environment Γ over CDAG sets.
type Env map[string]*Set

// Bind returns a copy of g with v bound to s.
func (g Env) Bind(v string, s *Set) Env {
	out := make(Env, len(g)+1)
	for k, val := range g {
		out[k] = val
	}
	out[v] = s
	return out
}

// RootEnv is Γ = {x ↦ ds}.
func (e *Engine) RootEnv() Env {
	return Env{xquery.RootVar: e.RootSet()}
}

// QueryChains is the CDAG form of the judgement Γ ⊢C q : (r; v; e).
// A side with no chains is nil.
type QueryChains struct {
	Ret  *Set
	Used *Set
	Elem *Set
}

// Query infers the chain sets of q over CDAGs, mirroring Table 1.
// The (FOR) rule iterates bindings at endpoint granularity — the
// number of endpoints is polynomial in |d| and k, unlike the number of
// chains.
func (e *Engine) Query(g Env, q xquery.Query) QueryChains {
	e.budget.Tick()
	switch n := q.(type) {
	case xquery.Empty:
		return QueryChains{}
	case xquery.StringLit:
		return QueryChains{Elem: e.stringChainSet()}
	case xquery.Var:
		// A binding stays in Γ for later reads, so the rule returns a
		// copy: every set Query returns is its caller's own.
		return QueryChains{Ret: g[n.Name].Clone()}
	case xquery.Step:
		return e.stepRule(g, n)
	case xquery.Sequence:
		l, r := e.Query(g, n.Left), e.Query(g, n.Right)
		return QueryChains{
			Ret:  e.unionOwned(l.Ret, r.Ret),
			Used: e.unionOwned(l.Used, r.Used),
			Elem: e.unionOwned(l.Elem, r.Elem),
		}
	case xquery.If:
		c0, c1, c2 := e.Query(g, n.Cond), e.Query(g, n.Then), e.Query(g, n.Else)
		return QueryChains{
			Ret:  e.unionOwned(c1.Ret, c2.Ret),
			Used: e.unionOwned(c0.Used, c1.Used, c2.Used, c0.Ret),
			Elem: e.unionOwned(c1.Elem, c2.Elem),
		}
	case xquery.For:
		return e.forRule(g, n)
	case xquery.Let:
		// The binding includes constructed items (see package infer's
		// (LET) comment).
		c1 := e.Query(g, n.Bind)
		c2 := e.Query(g.Bind(n.Var, e.Union(c1.Ret, c1.Elem)), n.Return)
		return QueryChains{
			Ret:  c2.Ret,
			Used: e.Union(c1.Ret, c1.Used, c2.Used),
			Elem: c2.Elem,
		}
	case xquery.Element:
		return e.elementRule(g, n)
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("cdag: unknown query node %T", q)})
	}
}

// stringChainSet is the element chain {S}.
func (e *Engine) stringChainSet() *Set {
	s := e.NewSet()
	str := e.C.StringSym()
	s.addRoot(str)
	s.addEnd(0, str)
	return s
}

func (e *Engine) stepRule(g Env, n xquery.Step) QueryChains {
	ctx := g[n.Var]
	if ctx == nil {
		return QueryChains{}
	}
	res, productive := ctx.Step(n.Axis, n.Test)
	out := QueryChains{Ret: res}
	if !n.Axis.IsForward() && productive.any() {
		// (STEPUH): productive context endpoints become used chains.
		out.Used = ctx.withEnds(productive)
	}
	return out
}

// forRule implements (FOR). A `//T` step is one descendant sweep
// (descendantFor). Otherwise two regimes keep the engine polynomial
// (the paper's CDAG processes each sub-expression once):
//
//   - When the body's returns provably extend the binding chain
//     (returnsExtendBinding — pure navigation, filters, conditionals
//     over them), the body is inferred once over the whole binding
//     set: binding chains are subsumed by the returns, per-binding
//     filtering cannot change the result, and the rules are additive.
//   - Otherwise the body is inferred per binding endpoint (their
//     number is polynomial), filtering unproductive iterations and
//     applying the semantic subsumption check.
func (e *Engine) forRule(g Env, n xquery.For) QueryChains {
	if out, ok := e.descendantFor(g, n); ok {
		return out
	}
	c1 := e.Query(g, n.In)
	out := QueryChains{Used: c1.Used}
	bindings := e.bindingSet(c1)
	if returnsExtendBinding(n.Return, n.Var) || navigational(n.Return, n.Var) {
		// Batch regimes. Extension bodies need no binding-used chains
		// at all. Navigational bodies (upward or horizontal steps, no
		// constructors, no conditionals) are processed set-wise like
		// the paper's single shared CDAG: (STEPUH) records the
		// productive context endpoints, which is exactly the (FOR)
		// used-chain filter at the engine's granularity. Backward
		// navigation then walks the merged cones of all bindings —
		// the same over-approximation the paper accepts for nodes
		// shared between chains of one expression.
		body := e.Query(g.Bind(n.Var, bindings), n.Return)
		out.Ret, out.Elem = body.Ret, body.Elem
		out.Used = addAll(out.Used, body.Used)
		return out
	}
	single := bindings.EndCount() == 1
	for _, end := range bindings.Ends() {
		binding := bindings
		if !single {
			binding = bindings.subWithEnd(end)
		}
		body := e.Query(g.Bind(n.Var, binding), n.Return)
		if body.Ret.IsEmpty() && body.Elem.IsEmpty() {
			continue
		}
		out.Ret = addAll(out.Ret, body.Ret)
		out.Elem = addAll(out.Elem, body.Elem)
		out.Used = addAll(out.Used, body.Used)
		if !body.Elem.IsEmpty() || !body.Ret.allExtendNode(end) {
			out.Used = addAll(out.Used, binding)
		}
	}
	return out
}

// bindingSet is what (FOR) binds of c: its returns and its constructed
// items alike, which is c.Ret itself when c constructs nothing.
func (e *Engine) bindingSet(c QueryChains) *Set {
	if c.Elem.IsEmpty() {
		return c.Ret
	}
	return e.Union(c.Ret, c.Elem)
}

// descendantFor infers a `//T` step as one strict-descendant step. The
// parser desugars E//T into for $v in E/descendant-or-self::node()
// return $v/child::T, and Normalize leaves it in one of two shapes:
//
//	for $v in $x/descendant-or-self::node() return $v/child::T
//	for $v in (for $u in X return $u/descendant-or-self::node()) return $v/child::T
//
// Inferred as two batched (FOR) steps, either shape first writes the
// DAG of every chain below its binding set B ($x's set, or X's returns
// and constructed items) down to MaxDepth, and only then prunes it to
// T. The descendant step over B builds the same DAG without that
// intermediate one: every endpoint of a set the rules build is
// reachable from one of its roots, so the descendant-or-self step keeps
// all of them, the child step grows from exactly the nodes the
// descendant closure grows from, and both prune the same graph to the
// same T-nodes. Neither descendant-or-self nor child records (STEPUH)
// productivity; Used is X's own used chains (none for the first shape)
// and Elem is empty, as the two steps give. It reports false for any
// other for.
func (e *Engine) descendantFor(g Env, n xquery.For) (QueryChains, bool) {
	step, ok := n.Return.(xquery.Step)
	if !ok || step.Var != n.Var || step.Axis != xquery.Child {
		return QueryChains{}, false
	}
	var (
		out  QueryChains
		from *Set
	)
	if x, ok := descendsOrSelf(n.In); ok {
		from = g[x]
	} else if in, ok := n.In.(xquery.For); ok {
		if u, ok := descendsOrSelf(in.Return); !ok || u != in.Var {
			return QueryChains{}, false
		}
		c1 := e.Query(g, in.In)
		from, out.Used = e.bindingSet(c1), c1.Used
	} else {
		return QueryChains{}, false
	}
	if from != nil {
		out.Ret, _ = from.descendantStep(xquery.Descendant, step.Test, false)
	}
	return out, true
}

// descendsOrSelf reports whether q is $x/descendant-or-self::node(),
// and returns x.
func descendsOrSelf(q xquery.Query) (string, bool) {
	s, ok := q.(xquery.Step)
	if !ok || s.Axis != xquery.DescendantOrSelf || s.Test.Kind != xquery.NodeAny {
		return "", false
	}
	return s.Var, true
}

// returnsExtendBinding reports whether every chain q can return
// extends the binding of v (and q constructs no elements): paths
// forward from v, the variable itself, conditionals and sequences over
// such, and nested for-loops that continue forward. For these bodies
// conflicts through the binding chain are subsumed by conflicts on the
// returns.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func returnsExtendBinding(q xquery.Query, v string) bool {
	switch n := q.(type) {
	case xquery.Empty:
		return true
	case xquery.Var:
		return n.Name == v
	case xquery.Step:
		// Self, child, descendant and descendant-or-self results all
		// contain their context chain as a prefix (plain descendant is
		// STEPUH for used-chain purposes, but still extends).
		return n.Var == v && (n.Axis.IsForward() || n.Axis == xquery.Descendant)
	case xquery.Sequence:
		return returnsExtendBinding(n.Left, v) && returnsExtendBinding(n.Right, v)
	case xquery.If:
		// The condition may navigate anywhere (its chains become used,
		// which is handled by the (IF) rule); only the branches must
		// extend the binding.
		return returnsExtendBinding(n.Then, v) && returnsExtendBinding(n.Else, v)
	case xquery.For:
		return returnsExtendBinding(n.In, v) && extendsVar(n.Return, n.Var)
	default:
		return false
	}
}

// extendsVar is returnsExtendBinding for the inner variable of a
// nested for: the body must extend y, whose bindings already extend
// the outer binding.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func extendsVar(q xquery.Query, y string) bool { return returnsExtendBinding(q, y) }

// navigational reports whether q is pure navigation from v: steps of
// any axis, nested for-loops over navigation, the variable itself, or
// sequences of those — but no element construction, strings, let or
// conditionals. Such bodies are processed set-wise: every used chain
// they need is produced by the (STEPUH) productivity filter inside
// Step, and their returns carry all remaining conflicts.
//
//xqvet:ignore budgetpoints structural recursion on the parsed AST, depth-bounded by guard's parser limits
func navigational(q xquery.Query, v string) bool {
	switch n := q.(type) {
	case xquery.Empty:
		return true
	case xquery.Var:
		return n.Name == v
	case xquery.Step:
		return n.Var == v
	case xquery.Sequence:
		return navigational(n.Left, v) && navigational(n.Right, v)
	case xquery.For:
		return navigational(n.In, v) && navigational(n.Return, n.Var)
	default:
		return false
	}
}

func (e *Engine) elementRule(g Env, n xquery.Element) QueryChains {
	inner := e.Query(g, n.Content)
	// e0: a.α.c' for each return endpoint α and its schema extensions,
	// and a.c for nested element chains, grafted below the tag in one
	// write.
	tag := e.internSym(n.Tag)
	var parts []part
	inner.Ret.forEachEnd(func(end Node) {
		parts = append(parts, part{t: e.suffixExtensions(end.Sym, e.MaxDepth), off: 1, at: tag})
	})
	if inner.Elem != nil {
		parts = append(parts, part{t: inner.Elem, off: 1, at: tag})
	}
	elem := e.NewSet()
	elem.merge(parts, nil)
	elem.addRoot(tag)
	// e0 part 3: bare a when the content contributes nothing.
	if inner.Ret.IsEmpty() && inner.Elem.IsEmpty() {
		elem.addEnd(0, tag)
	}
	// Used: r̄ ∪ v.
	return QueryChains{Elem: elem, Used: e.unionOwned(inner.Ret.Extend(), inner.Used)}
}
