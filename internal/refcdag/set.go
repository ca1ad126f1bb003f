// Package refcdag is the map-based CDAG engine that package cdag's
// dense engine replaced. It stays as the reference the dense engine is
// tested against and as the audit lane's shadow (package sentinel). It
// represents inferred chain sets as depth-indexed DAGs over
// (depth, type) nodes, the paper's CDAG (Section 6.1), making the
// finite analysis polynomial in the schema size and multiplicity k
// (Theorem 6.1).
//
// A Set stands for the set of chains spelled by its root-to-endpoint
// paths. Sharing a node per (depth, type) pair keeps the width bounded
// by the schema size; the price is that merging may introduce artifact
// paths, which can only make the independence analysis more
// conservative, never unsound. Where the paper separates chains of
// different sub-expressions with edge codes, this implementation gives
// every inferred set its own DAG, which isolates sub-expressions at
// least as strongly.
//
// The k-chain bound of the finite analysis (Section 5) is enforced by
// depth: the DAG is truncated at #nonrecursive + extraTags +
// k·#recursive + 2 (NewEngine), past which a chain repeats some symbol
// too often (pigeonhole) to be a k-chain. The resulting universe is a
// superset of Ck_d, which preserves both soundness and completeness
// relative to the infinite analysis.
package refcdag

import (
	"sort"
	"strings"

	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Node identifies a CDAG node: a type symbol at a depth.
type Node struct {
	Depth int
	Sym   string
}

// Set is a chain set in CDAG representation. The zero value is not
// usable; obtain Sets from an Engine.
type Set struct {
	eng   *Engine
	roots map[string]bool          // symbols at depth 0
	out   map[Node]map[string]bool // successors: node → child symbols
	in    map[Node]map[string]bool // predecessors: node → parent symbols
	ends  map[Node]bool            // endpoints: chains are root→endpoint paths
}

// Engine holds the schema context shared by all sets of one analysis.
type Engine struct {
	D *dtd.DTD
	// K is the multiplicity the engine was built for.
	K int
	// MaxDepth bounds chain length; see the package comment.
	MaxDepth int
	// budget, when non-nil, bounds graph growth and wall-clock time;
	// the hot loops charge it cooperatively (see package guard).
	budget *guard.Budget
}

// WithBudget attaches a resource budget to the engine and returns it;
// a nil budget means unlimited.
func (e *Engine) WithBudget(b *guard.Budget) *Engine {
	e.budget = b
	return e
}

// NewEngine builds an engine for the DTD with the depth bound implied
// by multiplicity k and the number of extra tags constructed by the
// analysed expressions.
//
// The bound is #nonrecursive + extraTags + k·#recursive + 2: a
// non-recursive type can never occur twice on a chain (a repetition
// would close a ⇒d cycle through it), recursive types occur at most k
// times on a k-chain, and constructed tags and the string type occur
// at most once per junction. Any longer chain is not a k-chain, so
// truncating there preserves both soundness and completeness of the
// finite analysis.
func NewEngine(d *dtd.DTD, k int, extraTags int) *Engine {
	if k < 1 {
		k = 1
	}
	rec := len(d.RecursiveTypes())
	nonrec := d.Size() - rec
	return &Engine{D: d, K: k, MaxDepth: nonrec + extraTags + k*rec + 2}
}

// NewSet returns an empty set.
func (e *Engine) NewSet() *Set {
	return &Set{
		eng:   e,
		roots: make(map[string]bool),
		out:   make(map[Node]map[string]bool),
		in:    make(map[Node]map[string]bool),
		ends:  make(map[Node]bool),
	}
}

// addEdge inserts from → (from.Depth+1, to). Every insertion charges
// the engine budget: edge growth is the engine's unit of work, so a
// runaway analysis aborts here long before exhausting memory.
func (s *Set) addEdge(from Node, to string) {
	s.eng.budget.AddNodes(1)
	m := s.out[from]
	if m == nil {
		m = make(map[string]bool)
		s.out[from] = m
	}
	m[to] = true
	tn := Node{from.Depth + 1, to}
	mi := s.in[tn]
	if mi == nil {
		mi = make(map[string]bool)
		s.in[tn] = mi
	}
	mi[from.Sym] = true
}

// hasEdge reports the presence of from → to.
func (s *Set) hasEdge(from Node, to string) bool { return s.out[from][to] }

// RootSet returns the set holding the single chain {sd}.
func (e *Engine) RootSet() *Set {
	s := e.NewSet()
	s.roots[e.D.Start] = true
	s.ends[Node{0, e.D.Start}] = true
	return s
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	out := s.eng.NewSet()
	out.AddAll(s)
	return out
}

// IsEmpty reports whether the set holds no chains.
func (s *Set) IsEmpty() bool { return len(s.ends) == 0 }

// EndCount returns the number of endpoint nodes (not chains — several
// chains may share an endpoint).
func (s *Set) EndCount() int { return len(s.ends) }

// Ends returns the endpoints in deterministic order.
func (s *Set) Ends() []Node {
	out := make([]Node, 0, len(s.ends))
	for n := range s.ends {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return out[i].Sym < out[j].Sym
	})
	return out
}

// AddAll unions t into s (both must come from the same engine).
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	for r := range t.roots {
		s.roots[r] = true
	}
	for from, tos := range t.out {
		for to := range tos {
			s.addEdge(from, to)
		}
	}
	for n := range t.ends {
		s.ends[n] = true
	}
}

// Union returns a fresh union of the operands.
func (e *Engine) Union(sets ...*Set) *Set {
	out := e.NewSet()
	for _, s := range sets {
		out.AddAll(s)
	}
	return out
}

// withEnds returns a copy of s's graph with the given endpoints,
// pruned to the edges that spell its chains.
func (s *Set) withEnds(ends map[Node]bool) *Set {
	out := s.Clone()
	out.ends = ends
	return out.prune()
}

// prune returns the sub-DAG of s containing exactly the edges on some
// root→endpoint path. This plays the role of the paper's edge codes:
// growth performed while exploring one step must not become spellable
// context for the next step or for backward navigation.
func (s *Set) prune() *Set {
	// Forward closure from roots.
	fwd := make(map[Node]bool)
	var frontier []Node
	for r := range s.roots {
		n := Node{0, r}
		fwd[n] = true
		frontier = append(frontier, n)
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			s.eng.budget.Tick()
			for _, c := range s.succs(f) {
				if !fwd[c] {
					fwd[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	// Backward closure from endpoints reachable forward.
	back := make(map[Node]bool)
	frontier = frontier[:0]
	for n := range s.ends {
		if fwd[n] {
			back[n] = true
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			s.eng.budget.Tick()
			for _, p := range s.preds(f) {
				if !back[p] {
					back[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	out := s.eng.NewSet()
	for r := range s.roots {
		if back[Node{0, r}] {
			out.roots[r] = true
		}
	}
	for from, tos := range s.out {
		if !fwd[from] || !back[from] {
			continue
		}
		for to := range tos {
			if back[Node{from.Depth + 1, to}] {
				out.addEdge(from, to)
			}
		}
	}
	for n := range s.ends {
		if fwd[n] {
			out.ends[n] = true
		}
	}
	return out
}

// subWithEnd returns the backward cone of a single endpoint: exactly
// the edges on root→n paths, with n as the only endpoint. It is the
// per-binding view of FOR iteration; extracting the cone directly is
// much cheaper than cloning and pruning the whole DAG when the parent
// set has many endpoints.
func (s *Set) subWithEnd(n Node) *Set {
	out := s.eng.NewSet()
	out.ends[n] = true
	seen := map[Node]bool{n: true}
	frontier := []Node{n}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			if f.Depth == 0 {
				if s.roots[f.Sym] {
					out.roots[f.Sym] = true
				}
				continue
			}
			for _, p := range s.preds(f) {
				out.addEdge(p, f.Sym)
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return out
}

// succs lists the DAG successors of n.
func (s *Set) succs(n Node) []Node {
	tos := s.out[n]
	out := make([]Node, 0, len(tos))
	for to := range tos {
		out = append(out, Node{n.Depth + 1, to})
	}
	return out
}

// preds lists the DAG predecessors of n; a root node has none.
func (s *Set) preds(n Node) []Node {
	froms := s.in[n]
	out := make([]Node, 0, len(froms))
	for f := range froms {
		out = append(out, Node{n.Depth - 1, f})
	}
	return out
}

// Step applies one XPath step (axis + node test) to the set,
// implementing AC/TC over the DAG. It returns the result set and, for
// each input endpoint, whether the step produced anything from it (the
// (STEPUH) used-chain filter).
func (s *Set) Step(axis xquery.Axis, test xquery.NodeTest) (*Set, map[Node]bool) {
	if axis == xquery.Descendant || axis == xquery.DescendantOrSelf {
		return s.descendantStep(axis, test)
	}
	out := s.Clone()
	out.ends = make(map[Node]bool)
	productive := make(map[Node]bool)
	for end := range s.ends {
		var results []Node
		switch axis {
		case xquery.Self:
			results = []Node{end}
		case xquery.Child:
			results = out.growChildren(end)
		case xquery.Parent:
			if end.Depth > 0 {
				results = s.preds(end)
			}
		case xquery.Ancestor:
			results = s.properAncestors(end)
		case xquery.AncestorOrSelf:
			results = append(s.properAncestors(end), end)
		case xquery.PrecedingSibling:
			results = out.growSiblings(s, end, true)
		case xquery.FollowingSibling:
			results = out.growSiblings(s, end, false)
		default:
			panic(&guard.InternalError{Value: "cdag: unknown axis"})
		}
		any := false
		for _, n := range results {
			if s.eng.testOK(n.Sym, test) {
				out.ends[n] = true
				any = true
			}
		}
		if any {
			productive[end] = true
		}
	}
	return out.prune(), productive
}

// descendantStep handles descendant and descendant-or-self for all
// endpoints in one traversal: the schema closure is grown from the
// whole endpoint frontier at once (one BFS instead of one per
// endpoint), results are the test-passing reached nodes, and
// per-endpoint productivity — needed by (STEPUH) for plain descendant
// — is recovered from a single backward closure of the passing nodes.
func (s *Set) descendantStep(axis xquery.Axis, test xquery.NodeTest) (*Set, map[Node]bool) {
	out := s.Clone()
	out.ends = make(map[Node]bool)

	// Forward closure below every endpoint, shared: reached nodes are
	// results; expanded tracks expansion so each node grows once (a
	// node may be both an endpoint and another endpoint's descendant).
	reached := make(map[Node]bool)
	expanded := make(map[Node]bool)
	var frontier []Node
	for end := range s.ends {
		frontier = append(frontier, end)
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			if expanded[f] {
				continue
			}
			expanded[f] = true
			for _, c := range out.growChildren(f) {
				if !reached[c] {
					reached[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}

	// Results: passing reached nodes, plus the endpoints themselves
	// for descendant-or-self.
	passing := make(map[Node]bool)
	for n := range reached {
		if s.eng.testOK(n.Sym, test) {
			passing[n] = true
			out.ends[n] = true
		}
	}
	if axis == xquery.DescendantOrSelf {
		for end := range s.ends {
			if s.eng.testOK(end.Sym, test) {
				out.ends[end] = true
			}
		}
	}

	// Productivity: an endpoint is productive when a passing node is
	// forward-reachable (strictly below for descendant; or itself for
	// descendant-or-self). hasBelow = backward closure of passing.
	hasBelow := make(map[Node]bool)
	frontier = frontier[:0]
	for n := range passing {
		hasBelow[n] = true
		frontier = append(frontier, n)
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			s.eng.budget.Tick()
			for _, p := range out.preds(f) {
				if !hasBelow[p] {
					hasBelow[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	productive := make(map[Node]bool)
	for end := range s.ends {
		switch {
		case axis == xquery.DescendantOrSelf && (s.eng.testOK(end.Sym, test) || childInSet(out, end, hasBelow)):
			productive[end] = true
		case axis == xquery.Descendant && childInSet(out, end, hasBelow):
			productive[end] = true
		}
	}
	return out.prune(), productive
}

// childInSet reports whether some child of n belongs to set.
func childInSet(s *Set, n Node, set map[Node]bool) bool {
	for to := range s.out[n] {
		if set[Node{n.Depth + 1, to}] {
			return true
		}
	}
	return false
}

func (e *Engine) testOK(sym string, test xquery.NodeTest) bool {
	switch test.Kind {
	case xquery.NodeAny:
		return true
	case xquery.TextTest:
		return sym == dtd.StringType
	case xquery.TagTest:
		return sym != dtd.StringType && e.D.LabelOf(sym) == test.Tag
	case xquery.WildcardTest:
		return sym != dtd.StringType
	}
	return false
}

// growChildren adds schema child edges below n and returns the child
// nodes.
func (s *Set) growChildren(n Node) []Node {
	if n.Depth+1 > s.eng.MaxDepth {
		return nil
	}
	kids := s.eng.D.ChildTypes(n.Sym)
	out := make([]Node, 0, len(kids))
	for _, beta := range kids {
		s.addEdge(n, beta)
		out = append(out, Node{n.Depth + 1, beta})
	}
	return out
}

// growDescendants adds the forward schema closure below n (bounded by
// MaxDepth) and returns every reached node.
func (s *Set) growDescendants(n Node) []Node {
	var out []Node
	seen := map[Node]bool{}
	frontier := []Node{n}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			for _, c := range s.growChildren(f) {
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return out
}

// properAncestors walks s's own edges upward from n and returns every
// node on a path from a root to n, excluding n.
func (s *Set) properAncestors(n Node) []Node {
	var out []Node
	seen := map[Node]bool{}
	frontier := []Node{n}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			s.eng.budget.Tick()
			for _, p := range s.preds(f) {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return out
}

// growSiblings adds sibling nodes of endpoint end: for each parent
// node reachable in the context set, the types ordered before/after
// end's type in that parent's content model.
func (s *Set) growSiblings(ctx *Set, end Node, preceding bool) []Node {
	if end.Depth == 0 {
		return nil
	}
	var out []Node
	for _, p := range ctx.preds(end) {
		var sibs []string
		if preceding {
			sibs = s.eng.D.PrecedingSiblingTypes(p.Sym, end.Sym)
		} else {
			sibs = s.eng.D.FollowingSiblingTypes(p.Sym, end.Sym)
		}
		for _, beta := range sibs {
			s.addEdge(p, beta)
			out = append(out, Node{end.Depth, beta})
		}
	}
	return out
}

// allExtendNode reports whether every chain of s has the chain(s)
// ending at n as a prefix: every endpoint lies at depth ≥ n.Depth and
// every backward path from an endpoint passes through n. Since each
// root→end path crosses each depth exactly once, it suffices that n is
// the only depth-n node backward-reachable from the endpoints.
func (s *Set) allExtendNode(n Node) bool {
	for end := range s.ends {
		if end.Depth < n.Depth {
			return false
		}
	}
	seen := make(map[Node]bool)
	var frontier []Node
	for end := range s.ends {
		seen[end] = true
		frontier = append(frontier, end)
	}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			if f.Depth == n.Depth {
				if f != n {
					return false
				}
				continue // no need to walk above the split point
			}
			for _, p := range s.preds(f) {
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return true
}

// Extend returns the set τ̄ = { c.c' | c ∈ s }: s plus the forward
// schema closure below every endpoint, all of it marked as endpoints.
func (s *Set) Extend() *Set {
	out := s.Clone()
	for end := range s.ends {
		for _, n := range out.growDescendants(end) {
			out.ends[n] = true
		}
	}
	return out
}

// graft attaches t under endpoint base: t's roots become children of
// base, every t edge is copied shifted by base.Depth+1, and t's
// endpoints become endpoints of the result (added in place to s).
// Nodes beyond MaxDepth are dropped — such chains exceed every k-chain
// length.
func (s *Set) graft(base Node, t *Set) {
	off := base.Depth + 1
	if off > s.eng.MaxDepth {
		return
	}
	for r := range t.roots {
		s.addEdge(base, r)
	}
	for from, tos := range t.out {
		if off+from.Depth+1 > s.eng.MaxDepth {
			continue
		}
		sf := Node{off + from.Depth, from.Sym}
		for to := range tos {
			s.addEdge(sf, to)
		}
	}
	for n := range t.ends {
		if off+n.Depth <= s.eng.MaxDepth {
			s.ends[Node{off + n.Depth, n.Sym}] = true
		}
	}
}

// SuffixExtensions returns the element-style set
// { sym.c” | c” schema extension of sym } rooted at depth 0 — the
// suffix α.c' used by (ELT) and by copied-source update chains.
func (e *Engine) SuffixExtensions(sym string, budget int) *Set {
	out := e.NewSet()
	out.roots[sym] = true
	root := Node{0, sym}
	out.ends[root] = true
	if budget > e.MaxDepth {
		budget = e.MaxDepth
	}
	seen := map[Node]bool{root: true}
	frontier := []Node{root}
	for len(frontier) > 0 {
		var next []Node
		for _, f := range frontier {
			if f.Depth+1 > budget {
				continue
			}
			for _, beta := range e.D.ChildTypes(f.Sym) {
				out.addEdge(f, beta)
				n := Node{f.Depth + 1, beta}
				if !seen[n] {
					seen[n] = true
					out.ends[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return out
}

// Chains enumerates the chain set spelled by the DAG, up to limit
// chains (0 = no limit). Intended for tests and diagnostics; the
// enumeration is exponential in general.
func (s *Set) Chains(limit int) []chain.Chain {
	var out []chain.Chain
	var path []string
	var rec func(n Node)
	rec = func(n Node) {
		if limit > 0 && len(out) >= limit {
			return
		}
		s.eng.budget.Tick()
		path = append(path, n.Sym)
		if s.ends[n] {
			out = append(out, chain.New(append([]string(nil), path...)...))
		}
		for _, c := range s.succs(n) {
			rec(c)
		}
		path = path[:len(path)-1]
	}
	var roots []string
	for r := range s.roots {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		rec(Node{0, r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Strings renders the enumerated chains, up to limit (0 = no limit).
func (s *Set) Strings(limit int) []string {
	cs := s.Chains(limit)
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// String summarises the DAG contents (up to 16 chains).
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("cdag{")
	for i, e := range s.Strings(16) {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e)
	}
	b.WriteString("}")
	return b.String()
}
