// Package cdag is the production chain-inference engine: it
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
// depth: a chain longer than k·|Σeff| must repeat some symbol more
// than k times (pigeonhole), so the DAG is truncated at that depth.
// The resulting universe is a superset of Ck_d, which preserves both
// soundness and completeness relative to the infinite analysis.
//
// This is the dense, compiled-schema implementation: symbols are
// interned dtd.SymID values from a dtd.Compiled artifact over a symbol
// universe fixed when the engine is built, adjacency and endpoints live
// in pointer-free []uint64 slabs of fixed-width rows, and the set
// algebra — union, intersection, pruning, prefix-conflict probing —
// runs as word loops over those slabs. The retained map-based engine
// lives in internal/refcdag as the differential-testing reference.
package cdag

import (
	"sort"
	"strings"

	"xqindep/internal/bitset"
	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// Node identifies a CDAG node: an interned type symbol at a depth.
type Node struct {
	Depth int
	Sym   dtd.SymID
}

// Marks is a per-depth marking of CDAG nodes — the dense replacement
// for map[Node]bool (endpoints, productivity flags, change regions,
// sweeps). Depth d's symbols are the w words at d·w of one pointer-free
// slab, w fixed by the engine. The zero value reads as empty
// everywhere; markings that are written come from the engine
// (Engine.marks, Engine.sweep), which fixes the row width.
type Marks struct {
	w      int      // words per depth row
	depths int      // depth rows in use; len(words) == depths·w
	words  []uint64 // row d at words[d·w : (d+1)·w]
}

// growSlab extends slab to need zeroed words. When it must reallocate
// it at least doubles the capacity, so a slab grown one depth block at
// a time reallocates only logarithmically often.
func growSlab(slab []uint64, need int) []uint64 {
	if need <= len(slab) {
		return slab
	}
	if need <= cap(slab) {
		old := len(slab)
		slab = slab[:need]
		bitset.Set(slab[old:]).Clear()
		return slab
	}
	c := 2 * cap(slab)
	if c < need {
		c = need
	}
	out := make([]uint64, need, c)
	copy(out, slab)
	return out
}

// grow makes rows [0, depths) available.
func (m *Marks) grow(depths int) {
	if depths <= m.depths {
		return
	}
	m.words = growSlab(m.words, depths*m.w)
	m.depths = depths
}

// at returns the marked symbols at depth d as a read view (nil when
// the depth is out of range).
func (m Marks) at(d int) bitset.Set {
	if d < 0 || d >= m.depths {
		return nil
	}
	return m.words[d*m.w : (d+1)*m.w : (d+1)*m.w]
}

// row returns depth d as a writable view, growing the marking to it.
func (m *Marks) row(d int) bitset.Set {
	m.grow(d + 1)
	return m.at(d)
}

// add marks (d, sym).
func (m *Marks) add(d int, sym dtd.SymID) {
	r := m.row(d)
	r.Add(int(sym))
}

// or marks every bit of bits at depth d; an empty bits leaves the
// marking untouched (it does not grow).
func (m *Marks) or(d int, bits bitset.Set) {
	if bits.Any() {
		m.row(d).OrCount(bits)
	}
}

// union merges t into m with one word-wise OR.
func (m *Marks) union(t Marks) {
	if t.depths == 0 {
		return
	}
	m.grow(t.depths)
	bitset.Set(m.words).OrCount(t.words)
}

// Has reports whether n is marked.
func (m Marks) Has(n Node) bool { return m.at(n.Depth).Has(int(n.Sym)) }

// any reports whether anything is marked.
func (m Marks) any() bool { return bitset.Set(m.words).Any() }

// count returns the number of marked nodes.
func (m Marks) count() int { return bitset.Set(m.words).Count() }

// clone returns an independent copy.
func (m Marks) clone() Marks {
	out := m
	if m.words != nil {
		out.words = append([]uint64(nil), m.words...)
	}
	return out
}

// Set is a chain set in CDAG representation. The zero value is not
// usable; obtain Sets from an Engine.
//
// Storage is fixed-width rows over the engine's universe of n symbols,
// w = ⌈n/64⌉ words each, in two pointer-free slabs that grow only by
// whole depth blocks. Adjacency depth block d holds n·w words: the
// successors at depth d+1 of node (d, α) are the row starting at word
// d·n·w + α·w. The endpoint slab (a Marks) holds one row per depth.
// Reading a row is a slice view, so it allocates nothing, and the GC
// has no pointers to scan. There is no predecessor index — a backward
// step scans one column of the depth block above, which for dense rows
// is cheaper than maintaining the inverse maps the map-based engine
// kept.
type Set struct {
	eng   *Engine
	roots bitset.Set // symbols at depth 0, w words
	adj   []uint64   // nadj depth blocks of n·w words
	nadj  int        // depth blocks in adj, kept so no probe divides
	ends  Marks      // endpoint symbols per depth
}

// Engine holds the schema context shared by all sets of one analysis.
type Engine struct {
	D *dtd.DTD
	// C is the compiled schema artifact all sets index by.
	C *dtd.Compiled
	// K is the multiplicity the engine was built for.
	K int
	// MaxDepth bounds chain length; see the package comment.
	MaxDepth int
	// budget, when non-nil, bounds graph growth and wall-clock time;
	// the hot loops charge it cooperatively (see package guard).
	budget *guard.Budget

	// base is C.NumSyms(); IDs at or above it are extra symbols
	// (constructed tags outside Σ) interned per engine, into the n-base
	// slots reserved at construction. n and w are fixed for the
	// engine's life, so no row ever regrows: n is the row stride in
	// symbols, w = ⌈n/64⌉ the row width in words, blk = n·w the size
	// of one adjacency depth block.
	base       int
	n, w, blk  int
	extraNames []string
	extraIdx   map[string]dtd.SymID
}

// WithBudget attaches a resource budget to the engine and returns it;
// a nil budget means unlimited.
func (e *Engine) WithBudget(b *guard.Budget) *Engine {
	e.budget = b
	return e
}

// NewEngine builds an engine for the DTD with the depth bound implied
// by multiplicity k and the number of extra tags constructed by the
// analysed expressions. The schema is compiled through the shared
// compilation cache; a schema beyond the compiled-symbol limit aborts
// via guard (recover with guard.Recover), degrading the analysis
// ladder to the non-compiled methods.
//
// The bound is #nonrecursive + extraTags + k·#recursive + 2: a
// non-recursive type can never occur twice on a chain (a repetition
// would close a ⇒d cycle through it), recursive types occur at most k
// times on a k-chain, and constructed tags and the string type occur
// at most once per junction. Any longer chain is not a k-chain, so
// truncating there preserves both soundness and completeness of the
// finite analysis.
func NewEngine(d *dtd.DTD, k int, extraTags int) *Engine {
	c, err := dtd.Compile(d)
	if err != nil {
		guard.Abort(err)
	}
	return NewEngineCompiled(c, k, extraTags)
}

// NewEngineCompiled is NewEngine over an already-compiled schema; use
// it on hot serving paths where the artifact is resolved once per
// request batch. It fixes the engine's symbol universe: Σ plus
// extraTags reserved slots for tags outside it (capped where SymID
// would overflow). Interning past the reservation aborts; see
// internSym.
func NewEngineCompiled(c *dtd.Compiled, k int, extraTags int) *Engine {
	if k < 1 {
		k = 1
	}
	if extraTags < 0 {
		extraTags = 0
	}
	rec := c.RecursiveCount()
	nonrec := c.DTD().Size() - rec
	base := c.NumSyms()
	n := base + extraTags
	if lim := int(^dtd.SymID(0)); n > lim {
		n = lim
	}
	w := (n + 63) / 64
	return &Engine{
		D:        c.DTD(),
		C:        c,
		K:        k,
		MaxDepth: nonrec + extraTags + k*rec + 2,
		base:     base,
		n:        n,
		w:        w,
		blk:      n * w,
	}
}

// total is the number of symbols interned so far, extras included.
func (e *Engine) total() int { return e.base + len(e.extraNames) }

// marks returns an empty writable marking with capacity reserved for
// the given number of depth rows, so filling it allocates at most
// once.
func (e *Engine) marks(depths int) Marks {
	m := Marks{w: e.w}
	if depths > 0 {
		m.words = make([]uint64, 0, depths*e.w)
	}
	return m
}

// sweep returns a zeroed marking of the given number of depth rows in
// one allocation: the scratch slab of a level-wise sweep.
func (e *Engine) sweep(depths int) Marks {
	return Marks{w: e.w, depths: depths, words: make([]uint64, depths*e.w)}
}

// symName resolves an interned ID to its type name.
func (e *Engine) symName(s dtd.SymID) string {
	if int(s) < e.base {
		return e.C.NameOf(s)
	}
	return e.extraNames[int(s)-e.base]
}

// lookupSym resolves a name without interning.
func (e *Engine) lookupSym(name string) (dtd.SymID, bool) {
	if s, ok := e.C.SymOf(name); ok {
		return s, true
	}
	s, ok := e.extraIdx[name]
	return s, ok
}

// internSym resolves a name, interning it as an extra symbol when it
// lies outside Σ (a constructed tag or rename target). The universe is
// fixed at construction, so a tag beyond the reserved slots aborts
// through guard with a symbols LimitError — a budget error the core
// ladder degrades past — rather than widening any row.
func (e *Engine) internSym(name string) dtd.SymID {
	if s, ok := e.lookupSym(name); ok {
		return s
	}
	if e.total() >= e.n {
		guard.Abort(&guard.LimitError{Resource: "symbols", Limit: e.n})
	}
	s := dtd.SymID(e.total())
	if e.extraIdx == nil {
		e.extraIdx = make(map[string]dtd.SymID)
	}
	e.extraIdx[name] = s
	e.extraNames = append(e.extraNames, name)
	return s
}

// childSet returns the schema successor bitset of s; extras and the
// string type have no children.
func (e *Engine) childSet(s dtd.SymID) bitset.Set {
	if int(s) < e.base {
		return e.C.ChildSet(s)
	}
	return nil
}

// childSyms returns the schema child list of s.
func (e *Engine) childSyms(s dtd.SymID) []dtd.SymID {
	if int(s) < e.base {
		return e.C.Children(s)
	}
	return nil
}

// testMask returns the row of symbols passing the node test over the
// engine's current universe. One mask evaluation turns per-node test
// checks into word-wise intersections.
func (e *Engine) testMask(test xquery.NodeTest) bitset.Set {
	str := int(e.C.StringSym())
	m := make(bitset.Set, e.w)
	switch test.Kind {
	case xquery.NodeAny:
		for i := 0; i < e.total(); i++ {
			m.Add(i)
		}
	case xquery.TextTest:
		m.Add(str)
	case xquery.WildcardTest:
		for i := 0; i < e.total(); i++ {
			m.Add(i)
		}
		m.Remove(str)
	case xquery.TagTest:
		if ls := e.C.LabelSyms(test.Tag); ls != nil {
			m.OrCount(ls)
		}
		// µ⁻¹ may include the string type (its label is itself);
		// node tests never select text nodes by tag.
		m.Remove(str)
		for i, name := range e.extraNames {
			if name == test.Tag {
				m.Add(e.base + i)
			}
		}
	}
	return m
}

// NewSet returns an empty set.
func (e *Engine) NewSet() *Set {
	return &Set{eng: e, roots: make(bitset.Set, e.w), ends: Marks{w: e.w}}
}

// block returns adjacency depth block d (d < nadj).
func (s *Set) block(d int) []uint64 {
	return s.adj[d*s.eng.blk : (d+1)*s.eng.blk]
}

// growAdj makes adjacency depth blocks [0, depths) available.
func (s *Set) growAdj(depths int) {
	if depths <= s.nadj {
		return
	}
	s.adj = growSlab(s.adj, depths*s.eng.blk)
	s.nadj = depths
}

// outAt returns the successor row of (d, from) as a read view; nil
// when the depth holds no block.
func (s *Set) outAt(d int, from dtd.SymID) bitset.Set {
	if d < 0 || d >= s.nadj {
		return nil
	}
	w := s.eng.w
	off := d*s.eng.blk + int(from)*w
	return s.adj[off : off+w : off+w]
}

// row returns the successor row of (d, from) as a writable view,
// growing the adjacency slab to depth d.
func (s *Set) row(d int, from dtd.SymID) bitset.Set {
	s.growAdj(d + 1)
	return s.outAt(d, from)
}

// addEdge inserts (d, from) → (d+1, to). Every insertion charges the
// engine budget: edge growth is the engine's unit of work, so a
// runaway analysis aborts here long before exhausting memory. Merging
// a whole row or slab charges the same rate, one unit per source edge
// (the popcount bitset.OrCount returns), as the map-based engine
// charges per insertion, so budget-limit behaviour is comparable
// across the ladder.
func (s *Set) addEdge(d int, from, to dtd.SymID) {
	s.eng.budget.AddNodes(1)
	r := s.row(d, from)
	r.Add(int(to))
}

// addEnd marks (d, sym) as an endpoint.
func (s *Set) addEnd(d int, sym dtd.SymID) { s.ends.add(d, sym) }

// forPreds calls f for every predecessor symbol of n, in ascending
// order, scanning n's column of the depth block above it.
func (s *Set) forPreds(n Node, f func(p dtd.SymID)) {
	d := n.Depth - 1
	if d < 0 || d >= s.nadj {
		return
	}
	w := s.eng.w
	word, bit := int(n.Sym)/64, uint64(1)<<(uint(n.Sym)%64)
	blk := s.block(d)
	for from, off := 0, word; off < len(blk); from, off = from+1, off+w {
		if blk[off]&bit != 0 {
			f(dtd.SymID(from))
		}
	}
}

// orPreds marks in dst every symbol at depth d-1 with an edge into
// targets at depth d. It scans, per nonzero word of targets, that word's
// column of the depth block above — one load per row instead of a
// whole-row intersection, since targets are usually a few symbols. dst
// is a fixed-width row, so nothing allocates.
func (s *Set) orPreds(dst bitset.Set, d int, targets bitset.Set) {
	if d <= 0 || d-1 >= s.nadj {
		return
	}
	w := s.eng.w
	blk := s.block(d - 1)
	for j, t := range targets {
		if t == 0 {
			continue
		}
		for from, off := 0, j; off < len(blk); from, off = from+1, off+w {
			if blk[off]&t != 0 {
				dst.Add(from)
			}
		}
	}
}

// RootSet returns the set holding the single chain {sd}.
func (e *Engine) RootSet() *Set {
	s := e.NewSet()
	start := e.C.Start()
	s.roots.Add(int(start))
	s.addEnd(0, start)
	return s
}

// SingletonSet returns the set holding exactly the given chain.
func (e *Engine) SingletonSet(c chain.Chain) *Set {
	s := e.NewSet()
	if c.IsEmpty() {
		return s
	}
	syms := make([]dtd.SymID, len(c))
	for i, name := range c {
		syms[i] = e.internSym(name)
	}
	s.roots.Add(int(syms[0]))
	for i := 0; i+1 < len(syms); i++ {
		s.addEdge(i, syms[i], syms[i+1])
	}
	s.addEnd(len(syms)-1, syms[len(syms)-1])
	return s
}

// Clone returns a deep copy: one copy per slab.
func (s *Set) Clone() *Set {
	out := s.cloneGraph(0)
	out.ends = s.ends.clone()
	return out
}

// cloneGraph copies s's roots and adjacency, without endpoints, with
// room for depthCap adjacency blocks before the slab must regrow. Like
// AddAll into an empty set it charges one budget unit per copied edge.
func (s *Set) cloneGraph(depthCap int) *Set {
	e := s.eng
	if depthCap < s.nadj {
		depthCap = s.nadj
	}
	out := &Set{eng: e, roots: s.roots.Clone(), nadj: s.nadj, ends: Marks{w: e.w}}
	out.adj = make([]uint64, len(s.adj), depthCap*e.blk)
	e.budget.AddNodes(bitset.Set(out.adj).OrCount(s.adj))
	return out
}

// IsEmpty reports whether the set holds no chains.
func (s *Set) IsEmpty() bool { return !s.ends.any() }

// EndCount returns the number of endpoint nodes (not chains — several
// chains may share an endpoint).
func (s *Set) EndCount() int { return s.ends.count() }

// forEachEnd calls f for every endpoint in depth order (symbol-ID
// order within a depth), without the name sort Ends performs.
func (s *Set) forEachEnd(f func(n Node)) {
	for d := 0; d < s.ends.depths; d++ {
		s.ends.at(d).ForEach(func(i int) { f(Node{d, dtd.SymID(i)}) })
	}
}

// Ends returns the endpoints in deterministic order: by depth, then by
// type name.
func (s *Set) Ends() []Node {
	out := make([]Node, 0, s.EndCount())
	s.forEachEnd(func(n Node) { out = append(out, n) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return s.eng.symName(out[i].Sym) < s.eng.symName(out[j].Sym)
	})
	return out
}

// EndpointParent describes one endpoint of a set together with the
// parent symbols of its incoming edges; IsRoot marks endpoints at
// depth 0 (document-root chains).
type EndpointParent struct {
	Sym     string
	Parents []string
	IsRoot  bool
}

// EndpointParents lists every endpoint with its possible parent
// symbols, the information schema-preservation checks need.
func (s *Set) EndpointParents() []EndpointParent {
	var out []EndpointParent
	for _, n := range s.Ends() {
		ep := EndpointParent{Sym: s.eng.symName(n.Sym), IsRoot: n.Depth == 0}
		s.forPreds(n, func(p dtd.SymID) {
			ep.Parents = append(ep.Parents, s.eng.symName(p))
		})
		sort.Strings(ep.Parents)
		out = append(out, ep)
	}
	return out
}

// AddAll unions t into s (both must come from the same engine): one
// word-wise OR per slab, charging one budget unit per edge of t. Into
// a set already as deep as t it allocates nothing.
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	s.roots.OrCount(t.roots)
	if t.nadj > 0 {
		s.growAdj(t.nadj)
		s.eng.budget.AddNodes(bitset.Set(s.adj).OrCount(t.adj))
	}
	s.ends.union(t.ends)
}

// Union returns a fresh union of the operands, sized once to the
// deepest of them.
func (e *Engine) Union(sets ...*Set) *Set {
	out := e.NewSet()
	nadj, nend := 0, 0
	for _, s := range sets {
		if s != nil {
			nadj = max(nadj, s.nadj)
			nend = max(nend, s.ends.depths)
		}
	}
	out.adj = make([]uint64, 0, nadj*e.blk)
	out.ends.words = make([]uint64, 0, nend*e.w)
	for _, s := range sets {
		out.AddAll(s)
	}
	return out
}

// prune returns the sub-DAG of s containing exactly the edges on some
// root→endpoint path. This plays the role of the paper's edge codes:
// growth performed while exploring one step must not become spellable
// context for the next step or for backward navigation.
func (s *Set) prune() *Set { return s.withEnds(s.ends) }

// withEnds returns s's graph with the given endpoints, pruned to the
// edges that spell its chains. Both closures run level-wise over one
// scratch slab, and the kept words are written straight into the
// output, sized once.
func (s *Set) withEnds(ends Marks) *Set {
	e := s.eng
	depths := max(ends.depths, s.nadj+1)
	scratch := e.sweep(2 * depths)
	fwd := Marks{w: e.w, depths: depths, words: scratch.words[:depths*e.w]}
	back := Marks{w: e.w, depths: depths, words: scratch.words[depths*e.w:]}
	// Forward closure from the roots.
	fwd.at(0).OrCount(s.roots)
	for d := 0; d+1 < depths; d++ {
		e.budget.Tick()
		if d < s.nadj {
			next := fwd.at(d + 1)
			fwd.at(d).ForEach(func(from int) {
				next.OrCount(s.outAt(d, dtd.SymID(from)))
			})
		}
	}
	// Backward closure from the forward-reachable endpoints. Only
	// forward-reachable symbols are kept, so back[d] ⊆ fwd[d].
	for d := depths - 1; d >= 0; d-- {
		e.budget.Tick()
		b := back.at(d)
		b.AndOf(ends.at(d), fwd.at(d))
		if below := back.at(d + 1); below.Any() {
			fwd.at(d).ForEach(func(from int) {
				if s.outAt(d, dtd.SymID(from)).Intersects(below) {
					b.Add(from)
				}
			})
		}
	}
	out := e.NewSet()
	out.roots.AndOf(s.roots, back.at(0))
	out.keepEdges(s, back)
	lastEnd := -1
	for d := 0; d < ends.depths; d++ {
		if ends.at(d).Intersects(fwd.at(d)) {
			lastEnd = d
		}
	}
	out.ends.grow(lastEnd + 1)
	for d := 0; d <= lastEnd; d++ {
		out.ends.at(d).AndOf(ends.at(d), fwd.at(d))
	}
	return out
}

// subWithEnd returns the backward cone of a single endpoint: exactly
// the edges on root→n paths, with n as the only endpoint. It is the
// per-binding view of FOR iteration; extracting the cone directly is
// much cheaper than cloning and pruning the whole DAG when the parent
// set has many endpoints. The sweep runs deepest first, so the output
// slab is sized by its first write.
func (s *Set) subWithEnd(n Node) *Set {
	e := s.eng
	out := e.NewSet()
	out.addEnd(n.Depth, n.Sym)
	cone := e.sweep(n.Depth + 1)
	top := cone.at(n.Depth)
	top.Add(int(n.Sym))
	for d := n.Depth; d > 0; d-- {
		e.budget.Tick()
		cur, up := cone.at(d), cone.at(d-1)
		s.orPreds(up, d, cur)
		up.ForEach(func(from int) {
			f := dtd.SymID(from)
			e.budget.AddNodes(out.row(d-1, f).AndOf(s.outAt(d-1, f), cur))
		})
	}
	out.roots.AndOf(s.roots, cone.at(0))
	return out
}

// endCones returns the union of the backward cones subWithEnd would
// extract for every endpoint of s: the edges and roots from which some
// endpoint is reachable, with all of s's endpoints. One backward sweep
// (endReach) finds them; s need not be pruned.
func (s *Set) endCones() *Set {
	e := s.eng
	back := s.endReach()
	out := e.NewSet()
	out.roots.AndOf(s.roots, back.at(0))
	out.keepEdges(s, back)
	out.ends = s.ends.clone()
	return out
}

// keepEdges copies into the empty adjacency of out the edges of s that
// run from a node marked in keep to a node marked one depth below,
// writing the kept words straight into a slab sized once, and charges
// one budget unit per kept edge.
func (out *Set) keepEdges(s *Set, keep Marks) {
	last := -1
	for d := s.nadj - 1; d >= 0; d-- {
		if keep.at(d + 1).Any() {
			last = d
			break
		}
	}
	out.growAdj(last + 1)
	for d := 0; d <= last; d++ {
		below := keep.at(d + 1)
		keep.at(d).ForEach(func(from int) {
			f := dtd.SymID(from)
			if n := out.outAt(d, f).AndOf(s.outAt(d, f), below); n > 0 {
				s.eng.budget.AddNodes(n)
			}
		})
	}
}

// Step applies one XPath step (axis + node test) to the set,
// implementing AC/TC over the DAG. It returns the result set and, for
// each input endpoint, whether the step produced anything from it (the
// (STEPUH) used-chain filter).
func (s *Set) Step(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	switch axis {
	case xquery.Descendant, xquery.DescendantOrSelf:
		return s.descendantStep(axis, test)
	case xquery.Ancestor, xquery.AncestorOrSelf:
		return s.ancestorStep(axis, test)
	}
	e := s.eng
	// Child steps add one depth below the deepest endpoint; reserve it
	// so neither slab of out regrows.
	out := s.cloneGraph(s.ends.depths)
	out.ends = e.marks(s.ends.depths + 1)
	mask := e.testMask(test)
	productive := e.marks(s.ends.depths)
	var buf []Node // step results of one endpoint, reused
	s.forEachEnd(func(end Node) {
		buf = buf[:0]
		switch axis {
		case xquery.Self:
			buf = append(buf, end)
		case xquery.Child:
			buf = out.growChildren(buf, end)
		case xquery.Parent:
			s.forPreds(end, func(p dtd.SymID) {
				buf = append(buf, Node{end.Depth - 1, p})
			})
		case xquery.PrecedingSibling:
			buf = out.growSiblings(buf, s, end, true)
		case xquery.FollowingSibling:
			buf = out.growSiblings(buf, s, end, false)
		default:
			panic(&guard.InternalError{Value: "cdag: unknown axis"})
		}
		any := false
		for _, n := range buf {
			if mask.Has(int(n.Sym)) {
				out.addEnd(n.Depth, n.Sym)
				any = true
			}
		}
		if any {
			productive.add(end.Depth, end.Sym)
		}
	})
	return out.prune(), productive
}

// childClosure closes front under schema children in place: every
// symbol marked at a depth d < limit marks its schema children at d+1,
// in one ascending sweep (⇒d edges always step one depth down, so each
// (depth, symbol) pair is expanded exactly once). When reached is
// non-nil, reached[d+1] receives exactly the children marked from
// depth d. It returns the deepest depth that gained children (-1 when
// none), so the caller sizes the adjacency slab once before
// growChildEdges writes the edges.
func (e *Engine) childClosure(front *Marks, limit int, reached *Marks) int {
	last := -1
	var kids bitset.Set
	if reached == nil {
		kids = make(bitset.Set, e.w)
	}
	for d := 0; d < front.depths && d < limit; d++ {
		bits := front.at(d)
		if !bits.Any() {
			continue
		}
		e.budget.Tick()
		if reached != nil {
			kids = reached.row(d + 1)
		} else {
			kids.Clear()
		}
		bits.ForEach(func(i int) {
			kids.OrCount(e.childSet(dtd.SymID(i)))
		})
		if kids.Any() {
			front.row(d + 1).OrCount(kids)
			last = d
		}
	}
	return last
}

// growChildEdges adds to s the schema child edges of every node front
// marks at depths [0, last], charging one budget unit per child edge.
func (s *Set) growChildEdges(front Marks, last int) {
	e := s.eng
	s.growAdj(last + 1)
	for d := 0; d <= last; d++ {
		front.at(d).ForEach(func(i int) {
			sym := dtd.SymID(i)
			if cs := e.childSet(sym); cs.Any() {
				e.budget.AddNodes(s.outAt(d, sym).OrCount(cs))
			}
		})
	}
}

// descendantStep handles descendant and descendant-or-self for all
// endpoints in one ascending sweep (childClosure). Per-endpoint
// productivity — needed by (STEPUH) for plain descendant — is
// recovered from a single descending backward closure of the passing
// nodes. Both closures run in place on one scratch slab.
func (s *Set) descendantStep(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	mask := e.testMask(test)
	depths := max(s.ends.depths, e.MaxDepth+1)
	scratch := e.sweep(2 * depths)
	active := Marks{w: e.w, depths: depths, words: scratch.words[:depths*e.w]}
	reached := Marks{w: e.w, depths: depths, words: scratch.words[depths*e.w:]}

	// Forward closure below every endpoint, shared.
	copy(active.words, s.ends.words)
	last := e.childClosure(&active, e.MaxDepth, &reached)
	out := s.cloneGraph(last + 1)
	out.growChildEdges(active, last)

	// Results: passing reached nodes (reached ∧ mask, in place), plus
	// the endpoints themselves for descendant-or-self.
	self := axis == xquery.DescendantOrSelf
	lastEnd := -1
	for d := 0; d < depths; d++ {
		if reached.at(d).AndOf(reached.at(d), mask) > 0 ||
			(self && s.ends.at(d).Intersects(mask)) {
			lastEnd = d
		}
	}
	out.ends.grow(lastEnd + 1)
	for d := 0; d <= lastEnd; d++ {
		r := out.ends.at(d)
		r.OrCount(reached.at(d))
		if self {
			r.OrAnd(s.ends.at(d), mask)
		}
	}

	// Productivity: an endpoint is productive when a passing node is
	// forward-reachable (strictly below for descendant; or itself for
	// descendant-or-self). hasBelow = backward closure of passing,
	// computed in place over the passing rows.
	hasBelow := reached
	for d := depths - 1; d > 0; d-- {
		below := hasBelow.at(d)
		if !below.Any() {
			continue
		}
		e.budget.Tick()
		out.orPreds(hasBelow.at(d-1), d, below)
	}
	productive := e.marks(s.ends.depths)
	s.forEachEnd(func(n Node) {
		kidsBelow := out.outAt(n.Depth, n.Sym).Intersects(hasBelow.at(n.Depth + 1))
		if kidsBelow || (self && mask.Has(int(n.Sym))) {
			productive.add(n.Depth, n.Sym)
		}
	})
	return out.prune(), productive
}

// growChildren adds schema child edges below n and appends the child
// nodes to buf.
func (s *Set) growChildren(buf []Node, n Node) []Node {
	if n.Depth+1 > s.eng.MaxDepth {
		return buf
	}
	kids := s.eng.childSyms(n.Sym)
	if len(kids) == 0 {
		return buf
	}
	s.eng.budget.AddNodes(len(kids))
	s.row(n.Depth, n.Sym).OrCount(s.eng.childSet(n.Sym))
	for _, beta := range kids {
		buf = append(buf, Node{n.Depth + 1, beta})
	}
	return buf
}

// ancestorStep handles ancestor and ancestor-or-self for all
// endpoints at once, over s's own edges. The union of the endpoints'
// proper ancestors is one backward sweep: above[d] = preds(ends[d+1] ∪
// above[d+1]). An endpoint is productive when some proper ancestor
// passes the test, i.e. when one forward sweep from the passing nodes,
// below[d+1] = succ(below[d] ∪ mask), reaches it (or, for
// ancestor-or-self, when it passes itself). Both sweeps share one
// scratch slab; no endpoint walks the graph alone.
func (s *Set) ancestorStep(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	mask := e.testMask(test)
	self := axis == xquery.AncestorOrSelf
	depths := s.ends.depths
	scratch := e.sweep(2*depths + 1)
	above := Marks{w: e.w, depths: depths, words: scratch.words[:depths*e.w]}
	below := Marks{w: e.w, depths: depths, words: scratch.words[depths*e.w : 2*depths*e.w]}
	front := bitset.Set(scratch.words[2*depths*e.w:]) // one row, reused per depth

	for d := depths - 2; d >= 0; d-- {
		front.Clear()
		front.OrCount(s.ends.at(d + 1))
		front.OrCount(above.at(d + 1))
		if front.Any() {
			e.budget.Tick()
			s.orPreds(above.at(d), d+1, front)
		}
	}
	for d := 0; d+1 < depths && d < s.nadj; d++ {
		e.budget.Tick()
		front.Clear()
		front.OrCount(mask)
		front.OrCount(below.at(d))
		next := below.at(d + 1)
		front.ForEach(func(i int) {
			next.OrCount(s.outAt(d, dtd.SymID(i)))
		})
	}

	out := s.cloneGraph(0)
	lastEnd := -1
	for d := 0; d < depths; d++ {
		if above.at(d).Intersects(mask) || (self && s.ends.at(d).Intersects(mask)) {
			lastEnd = d
		}
	}
	out.ends.grow(lastEnd + 1)
	for d := 0; d <= lastEnd; d++ {
		r := out.ends.at(d)
		r.AndOf(above.at(d), mask)
		if self {
			r.OrAnd(s.ends.at(d), mask)
		}
	}
	productive := e.marks(depths)
	s.forEachEnd(func(n Node) {
		if below.at(n.Depth).Has(int(n.Sym)) || (self && mask.Has(int(n.Sym))) {
			productive.add(n.Depth, n.Sym)
		}
	})
	return out.prune(), productive
}

// growSiblings adds sibling nodes of endpoint end: for each parent
// node reachable in the context set, the types ordered before/after
// end's type in that parent's content model (<r from the compiled
// sibling tables). The sibling nodes are appended to buf.
func (s *Set) growSiblings(buf []Node, ctx *Set, end Node, preceding bool) []Node {
	e := s.eng
	if end.Depth == 0 || int(end.Sym) >= e.base {
		return buf
	}
	ctx.forPreds(end, func(p dtd.SymID) {
		if int(p) >= e.base {
			return
		}
		var sibs bitset.Set
		if preceding {
			sibs = e.C.PrecedingSiblings(p, end.Sym)
		} else {
			sibs = e.C.FollowingSiblings(p, end.Sym)
		}
		if !sibs.Any() {
			return
		}
		e.budget.AddNodes(s.row(end.Depth-1, p).OrCount(sibs))
		sibs.ForEach(func(bi int) {
			buf = append(buf, Node{end.Depth, dtd.SymID(bi)})
		})
	})
	return buf
}

// allExtendNode reports whether every chain of s has the chain(s)
// ending at n as a prefix: every endpoint lies at depth ≥ n.Depth and
// every backward path from an endpoint passes through n. Since each
// root→end path crosses each depth exactly once, it suffices that n is
// the only depth-n symbol backward-reachable from the endpoints.
func (s *Set) allExtendNode(n Node) bool {
	if !s.ends.any() {
		return true
	}
	for d := 0; d < n.Depth && d < s.ends.depths; d++ {
		if s.ends.at(d).Any() {
			return false
		}
	}
	seen := s.ends.clone()
	for d := seen.depths - 1; d > n.Depth; d-- {
		if !seen.at(d).Any() {
			continue
		}
		s.eng.budget.Tick()
		s.orPreds(seen.at(d-1), d, seen.at(d))
	}
	word, bit := int(n.Sym)/64, uint64(1)<<(uint(n.Sym)%64)
	for w, x := range seen.at(n.Depth) {
		if w == word {
			x &^= bit
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// Extend returns the set τ̄ = { c.c' | c ∈ s }: s plus the forward
// schema closure below every endpoint, all of it marked as endpoints.
func (s *Set) Extend() *Set {
	out := s.Clone()
	last := s.eng.childClosure(&out.ends, s.eng.MaxDepth, nil)
	out.growChildEdges(out.ends, last)
	return out
}

// graft attaches t under endpoint base: t's roots become children of
// base, every t edge is copied shifted by base.Depth+1, and t's
// endpoints become endpoints of the result (added in place to s). When
// cr is non-nil it also receives every grafted node below base, the
// change-region bookkeeping of update grafts. Nodes beyond MaxDepth
// are dropped — such chains exceed every k-chain length. Both sets
// must come from the same engine so interned IDs agree.
func (s *Set) graft(base Node, t *Set, cr *Marks) {
	off := base.Depth + 1
	if off > s.eng.MaxDepth {
		return
	}
	if t.roots.Any() {
		s.eng.budget.AddNodes(s.row(base.Depth, base.Sym).OrCount(t.roots))
		if cr != nil {
			cr.or(off, t.roots)
		}
	}
	s.orShifted(off, t, cr)
}

// orShifted unions t's edges and endpoints into s shifted down by off
// depths, dropping what lands past MaxDepth, with one word-wise OR
// over the shifted adjacency blocks (the row layout of a block does
// not depend on its depth). When cr is non-nil it also receives the
// targets of every copied edge and every copied endpoint.
func (s *Set) orShifted(off int, t *Set, cr *Marks) {
	e := s.eng
	if nd := min(t.nadj, e.MaxDepth-off); nd > 0 {
		s.growAdj(off + nd)
		dst := bitset.Set(s.adj[off*e.blk : (off+nd)*e.blk])
		e.budget.AddNodes(dst.OrCount(t.adj[:nd*e.blk]))
		if cr != nil {
			targets := make(bitset.Set, e.w)
			for d := 0; d < nd; d++ {
				targets.Clear()
				blk := t.block(d)
				for o := 0; o < len(blk); o += e.w {
					targets.OrCount(blk[o : o+e.w])
				}
				cr.or(off+d+1, targets)
			}
		}
	}
	for d := 0; d < t.ends.depths && off+d <= e.MaxDepth; d++ {
		bits := t.ends.at(d)
		s.ends.or(off+d, bits)
		if cr != nil {
			cr.or(off+d, bits)
		}
	}
}

// Rebase returns a set whose chains are tag.c for every chain c of s —
// the element-chain composition a.c of the (ELT) rule.
func (s *Set) Rebase(tag string) *Set {
	out := s.eng.NewSet()
	sym := s.eng.internSym(tag)
	out.roots.Add(int(sym))
	out.graft(Node{Depth: 0, Sym: sym}, s, nil)
	return out
}

// SuffixExtensions returns the element-style set
// { sym.c” | c” schema extension of sym } rooted at depth 0 — the
// suffix α.c' used by (ELT) and by copied-source update chains.
func (e *Engine) SuffixExtensions(sym string, budget int) *Set {
	return e.suffixExtensions(e.internSym(sym), budget)
}

// suffixExtensions is SuffixExtensions over an interned symbol. The
// whole closure is one ascending sweep of the endpoint rows: every
// reached node is an endpoint, so the frontier at depth d is exactly
// ends[d].
func (e *Engine) suffixExtensions(sym dtd.SymID, budget int) *Set {
	out := e.NewSet()
	out.roots.Add(int(sym))
	out.addEnd(0, sym)
	if budget > e.MaxDepth {
		budget = e.MaxDepth
	}
	last := e.childClosure(&out.ends, budget, nil)
	out.growChildEdges(out.ends, last)
	return out
}

// Chains enumerates the chain set spelled by the DAG, up to limit
// chains (0 = no limit). Intended for tests and diagnostics; the
// enumeration is exponential in general.
func (s *Set) Chains(limit int) []chain.Chain {
	var out []chain.Chain
	var path []string
	var rec func(d int, sym dtd.SymID)
	rec = func(d int, sym dtd.SymID) {
		if limit > 0 && len(out) >= limit {
			return
		}
		s.eng.budget.Tick()
		path = append(path, s.eng.symName(sym))
		if s.ends.at(d).Has(int(sym)) {
			out = append(out, chain.New(append([]string(nil), path...)...))
		}
		s.outAt(d, sym).ForEach(func(to int) {
			rec(d+1, dtd.SymID(to))
		})
		path = path[:len(path)-1]
	}
	var roots []dtd.SymID
	s.roots.ForEach(func(r int) { roots = append(roots, dtd.SymID(r)) })
	sort.Slice(roots, func(i, j int) bool {
		return s.eng.symName(roots[i]) < s.eng.symName(roots[j])
	})
	for _, r := range roots {
		rec(0, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Strings renders the enumerated chains; for tests.
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
