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
// This is the compiled-schema implementation: symbols are
// interned dtd.SymID values from a dtd.Compiled artifact over a symbol
// universe fixed when the engine is built, and every row is a
// fixed-width bitset over that universe. A set's graph is one
// pointer-free slab that stores only its non-empty successor rows
// behind a per-depth occupancy row, written once at its final size;
// its endpoints are a per-depth marking. A nil *Set is the empty set,
// and the rules leave an empty side nil. The set algebra — union,
// intersection, pruning, prefix-conflict probing — runs as word loops
// over those rows; the level-wise sweeps behind them are cut from one
// scratch slab the engine owns and released last-in-first-out, so a
// build allocates only the sets and markings it keeps. The retained
// map-based engine lives in internal/refcdag as the
// differential-testing reference.
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
// everywhere; markings that are written come from the engine, which
// fixes the row width: Engine.marks for a marking a set or a rule
// keeps, Engine.sweep for the working rows of one sweep, which live in
// the engine's scratch until their taker releases them.
type Marks struct {
	w      int      // words per depth row
	depths int      // depth rows in use; len(words) == depths·w
	words  []uint64 // row d at words[d·w : (d+1)·w]
}

// growSlab extends slab to need zeroed words. When it must reallocate
// it at least doubles the capacity, so a marking grown one depth at a
// time reallocates only logarithmically often.
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

// upTo returns the marking cut to its first depths rows (a view).
func (m Marks) upTo(depths int) Marks {
	if depths < m.depths {
		m.depths = max(depths, 0)
		m.words = m.words[:m.depths*m.w]
	}
	return m
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
// Rows are w = ⌈n/64⌉ words over the engine's universe of n symbols.
// The roots and the edges live in one pointer-free slab that stores
// only non-empty successor rows behind a per-depth occupancy row (the
// layout is described in graph.go); the endpoints are a Marks, one row
// per depth. Reading a row is a slice view, so it allocates nothing,
// and the GC has no pointers to scan. There is no predecessor index —
// a backward step scans the occupied rows of the depth above.
//
// Every operation that builds a set first computes what it keeps and
// then writes it once, at its final size. A set the engine returns is
// its caller's own; AddAll relies on that to take over the storage of
// a set it merges into an empty one, and an accumulator that is still
// nil takes over the first set added (addAll).
//
// A nil *Set is the empty set: the read methods (IsEmpty, EndCount,
// Ends, Chains, Strings, String, Dot, EndpointParents) and the three
// conflict checks accept it, and rules leave a side with no chains
// nil.
type Set struct {
	eng  *Engine
	g    []uint64 // roots, occupancy rows, row index and rows; nil when empty
	nd   int      // depths with an occupancy row in g
	ends Marks    // endpoint symbols per depth
}

// Engine holds the schema context shared by all sets of one analysis.
// An engine and its sets belong to one goroutine at a time: inference
// interns symbols, and every sweep, conflict checks included, is cut
// from the engine's scratch.
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
	// engine's life, so no row ever regrows: n is the universe size in
	// symbols, w = ⌈n/64⌉ the row width in words.
	base       int
	n, w       int
	extraNames []string
	extraIdx   map[string]dtd.SymID

	// scratch is the slab every sweep and node-test mask of a build is
	// cut from; its first top words are taken (see sweep). It dies with
	// the engine.
	scratch []uint64
	top     int

	// built, when non-nil, sees every set the engine creates; the
	// layout tests use it to inspect each one.
	built func(*Set)
	// poison, when set, fills the scratch words release gives back
	// with ones, so a sweep read after its release reads garbage.
	poison bool
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
	}
}

// total is the number of symbols interned so far, extras included.
func (e *Engine) total() int { return e.base + len(e.extraNames) }

// marks returns an empty writable marking with capacity reserved for
// the given number of depth rows, so filling it allocates at most
// once. Every marking that outlives the step computing it — a set's
// endpoints, a step's productive endpoints, a change region — comes
// from here, never from the scratch.
func (e *Engine) marks(depths int) Marks {
	m := Marks{w: e.w}
	if depths > 0 {
		m.words = make([]uint64, 0, depths*e.w)
	}
	return m
}

// sweep cuts a zeroed marking of the given number of depth rows from
// the engine's scratch: the working rows of one level-wise sweep, or
// (one row) a step's node-test mask. Release is last-in-first-out: a
// function that takes sweeps gives them back as it returns, with
// release(top) for the top it read before taking the first, except
// endReach and commonNodes, which hand their sweep to the caller to
// release. Each sweep is cut with a full slice expression, so a
// Marks.grow past its rows reallocates instead of writing into the
// next sweep. When the slab is too small it is replaced by one at
// least twice as large; live sweeps keep the old slab alive, and their
// words in the new one stay unused until they are released. A sweep
// never becomes a set's storage: layout copies occupancy out of it.
func (e *Engine) sweep(depths int) Marks {
	n := depths * e.w
	if e.top+n > len(e.scratch) {
		e.scratch = make([]uint64, max(2*len(e.scratch), e.top+n, e.scratchFloor()))
	}
	words := e.scratch[e.top : e.top+n : e.top+n]
	clear(words)
	e.top += n
	return Marks{w: e.w, depths: depths, words: words}
}

// scratchFloor is the size in words of the engine's first scratch
// slab: the deepest nesting of sweeps a build reaches, which is a
// descendant or ancestor step's two sweeps, mask and front row under
// the three sweeps of the pruning it ends in, each of at most
// MaxDepth+2 rows. So a build usually allocates its scratch once.
func (e *Engine) scratchFloor() int { return (5*(e.MaxDepth+2) + 2) * e.w }

// release gives back every sweep taken since the scratch top was top.
func (e *Engine) release(top int) {
	if e.poison {
		for i := top; i < e.top; i++ {
			e.scratch[i] = ^uint64(0)
		}
	}
	e.top = top
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
// engine's current universe, cut from the scratch: the caller releases
// it. One mask evaluation turns per-node test checks into word-wise
// intersections.
func (e *Engine) testMask(test xquery.NodeTest) bitset.Set {
	str := int(e.C.StringSym())
	m := bitset.Set(e.sweep(1).words)
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
	s := &Set{eng: e, ends: Marks{w: e.w}}
	if e.built != nil {
		e.built(s)
	}
	return s
}

// addEdge inserts (d, from) → (d+1, to), charging one budget unit:
// edge growth is the engine's unit of work, so a runaway analysis
// aborts here long before exhausting memory. It is a graft of the
// one-root set {to} below (d, from): an edge from a node that already
// has a row is one bit set in place, and any other edge is the insert
// slow path, which lays the graph out anew with the row in its (depth,
// symbol) slot. Every row after the slot shifts, so an insert
// invalidates every row view of that set taken before it. Like every
// graft it drops an edge past MaxDepth.
func (s *Set) addEdge(d int, from, to dtd.SymID) {
	edge := s.eng.NewSet()
	edge.addRoot(to)
	s.merge([]part{{t: edge, off: d + 1, at: from}}, nil)
}

// addEnd marks (d, sym) as an endpoint.
func (s *Set) addEnd(d int, sym dtd.SymID) { s.ends.add(d, sym) }

// RootSet returns the set holding the single chain {sd}.
func (e *Engine) RootSet() *Set {
	s := e.NewSet()
	start := e.C.Start()
	s.addRoot(start)
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
	s.addRoot(syms[0])
	for i := 0; i+1 < len(syms); i++ {
		s.addEdge(i, syms[i], syms[i+1])
	}
	s.addEnd(len(syms)-1, syms[len(syms)-1])
	return s
}

// Clone returns a deep copy: one copy per slab, charging one budget
// unit per edge copied. The copy of nil is nil.
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	out := s.eng.NewSet()
	out.nd, out.ends = s.nd, s.ends.clone()
	if s.g != nil {
		out.g = append([]uint64(nil), s.g...)
		s.eng.budget.AddNodes(s.edgeCount())
	}
	return out
}

// IsEmpty reports whether the set holds no chains.
func (s *Set) IsEmpty() bool { return s == nil || !s.ends.any() }

// EndCount returns the number of endpoint nodes (not chains — several
// chains may share an endpoint).
func (s *Set) EndCount() int {
	if s == nil {
		return 0
	}
	return s.ends.count()
}

// forEachEnd calls f for every endpoint in depth order (symbol-ID
// order within a depth), without the name sort Ends performs.
func (s *Set) forEachEnd(f func(n Node)) {
	if s == nil {
		return
	}
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

// AddAll unions t into s (both must come from the same engine),
// charging one budget unit per edge of t. Into an empty s it takes
// over t's storage instead of copying it, and charges nothing: t must
// be a set the engine returned to this caller, and it must not be
// written afterwards, nor read once s is written again. Into a set that
// already has every row t has it ORs in place and allocates nothing.
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	if s.nd == 0 && !s.roots().Any() && !s.ends.any() {
		s.g, s.nd, s.ends = t.g, t.nd, t.ends
		return
	}
	s.merge([]part{{t: t}}, nil)
}

// addAll adds t to the accumulator acc and returns the accumulator. An
// accumulator that is still nil takes over t itself, as AddAll into an
// empty set takes over t's storage, and with the same conditions on t.
func addAll(acc, t *Set) *Set {
	if acc == nil {
		return t
	}
	acc.AddAll(t)
	return acc
}

// Union returns a fresh union of the operands, written once at its
// final size; the operands are only read. The union of nil operands
// is nil.
func (e *Engine) Union(sets ...*Set) *Set {
	var buf [4]part
	parts := buf[:0]
	nend := 0
	for _, s := range sets {
		if s != nil {
			parts = append(parts, part{t: s})
			nend = max(nend, s.ends.depths)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	out := e.NewSet()
	out.ends.words = make([]uint64, 0, nend*e.w)
	out.merge(parts, nil)
	return out
}

// withEnds returns s's graph with the given endpoints, pruned to the
// edges that spell its chains (see graph.withEnds, which takes over
// ends' words).
func (s *Set) withEnds(ends Marks) *Set { return graph{e: s.eng, s: s}.withEnds(ends) }

// subWithEnd returns the backward cone of a single endpoint: exactly
// the edges on root→n paths, with n as the only endpoint. It is the
// per-binding view of FOR iteration; extracting the cone directly is
// much cheaper than pruning the whole DAG when the parent set has many
// endpoints. Every node of the cone above n has an edge into the cone,
// so the cone's rows above n are its occupancy.
func (s *Set) subWithEnd(n Node) *Set {
	e := s.eng
	defer e.release(e.top)
	cone := e.sweep(n.Depth + 1)
	top := cone.at(n.Depth)
	top.Add(int(n.Sym))
	for d := n.Depth; d > 0; d-- {
		e.budget.Tick()
		s.orPreds(cone.at(d-1), d, cone.at(d))
	}
	out := graph{e: e, s: s}.keep(cone.upTo(n.Depth), cone)
	out.addEnd(n.Depth, n.Sym)
	return out
}

// endCones returns the union of the backward cones subWithEnd would
// extract for every endpoint of s: the edges and roots from which some
// endpoint is reachable, with all of s's endpoints. One backward sweep
// (endReach) finds them; s need not be pruned. The cones of nil are
// nil.
func (s *Set) endCones() *Set {
	if s == nil {
		return nil
	}
	e := s.eng
	defer e.release(e.top)
	back := s.endReach()
	occ := e.sweep(s.nd)
	for d := 0; d < s.nd; d++ {
		s.orPreds(occ.at(d), d+1, back.at(d+1))
	}
	out := graph{e: e, s: s}.keep(occ, back)
	out.ends = s.ends.clone()
	return out
}

// Step applies one XPath step (axis + node test) to the set,
// implementing AC/TC over the DAG. It returns the result set and the
// input endpoints the step produced anything from: the (STEPUH)
// used-chain filter. Only (STEPUH) reads that marking, and it covers
// every axis but self, child and descendant-or-self (the forward axes
// of xquery.Axis.IsForward); for those three the marking is not
// computed and comes back empty.
func (s *Set) Step(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	switch axis {
	case xquery.Descendant, xquery.DescendantOrSelf:
		return s.descendantStep(axis, test)
	case xquery.Ancestor, xquery.AncestorOrSelf:
		return s.ancestorStep(axis, test)
	case xquery.PrecedingSibling, xquery.FollowingSibling:
		return s.siblingStep(axis == xquery.PrecedingSibling, test)
	}
	e := s.eng
	defer e.release(e.top)
	mask := e.testMask(test)
	// Child results lie one depth below the deepest endpoint; reserve
	// it so the result marking never regrows.
	ends := e.marks(s.ends.depths + 1)
	var productive Marks
	if axis == xquery.Parent {
		productive = e.marks(s.ends.depths)
	}
	s.forEachEnd(func(end Node) {
		switch axis {
		case xquery.Self:
			if mask.Has(int(end.Sym)) {
				ends.add(end.Depth, end.Sym)
			}
		case xquery.Child:
			if end.Depth+1 > e.MaxDepth {
				return
			}
			kids := e.childSyms(end.Sym)
			if len(kids) == 0 {
				return
			}
			e.budget.AddNodes(len(kids))
			if cs := e.childSet(end.Sym); cs.Intersects(mask) {
				r := ends.row(end.Depth + 1)
				r.OrAnd(cs, mask)
			}
		case xquery.Parent:
			any := false
			s.forPreds(end, func(p dtd.SymID) {
				if mask.Has(int(p)) {
					ends.add(end.Depth-1, p)
					any = true
				}
			})
			if any {
				productive.add(end.Depth, end.Sym)
			}
		default:
			panic(&guard.InternalError{Value: "cdag: unknown axis"})
		}
	})
	src := graph{e: e, s: s}
	if axis == xquery.Child {
		// Every endpoint shallower than the depth bound grows its
		// schema children; pruning keeps those that lead to a result.
		src.grow = s.ends.upTo(e.MaxDepth)
	}
	return src.withEnds(ends), productive
}

// childClosure closes front under schema children in place: every
// symbol marked at a depth d < limit marks its schema children at d+1,
// in one ascending sweep (⇒d edges always step one depth down, so each
// (depth, symbol) pair is expanded exactly once). When reached is
// non-nil, reached[d+1] receives exactly the children marked from
// depth d. It returns the deepest depth that gained children (-1 when
// none): the nodes at depths up to it are the ones whose child edges
// the closure grew.
func (e *Engine) childClosure(front *Marks, limit int, reached *Marks) int {
	defer e.release(e.top)
	last := -1
	var kids bitset.Set
	if reached == nil {
		kids = bitset.Set(e.sweep(1).words)
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

// chargeChildren charges one budget unit per schema child edge of every
// node grow marks: the growth a closure performs.
func (e *Engine) chargeChildren(grow Marks) {
	n := 0
	for d := 0; d < grow.depths; d++ {
		grow.at(d).ForEach(func(i int) { n += e.childSet(dtd.SymID(i)).Count() })
	}
	e.budget.AddNodes(n)
}

// descendantStep handles descendant and descendant-or-self for all
// endpoints in one ascending sweep (childClosure), whose child edges
// are read on the fly and never stored in full. Per-endpoint
// productivity — needed by (STEPUH) for plain descendant only — is
// recovered from a single descending backward closure of the passing
// nodes, computed in place over the reached rows.
func (s *Set) descendantStep(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	defer e.release(e.top)
	mask := e.testMask(test)
	depths := max(s.ends.depths, e.MaxDepth+1)
	active, reached := e.sweep(depths), e.sweep(depths)

	// Forward closure below every endpoint, shared.
	copy(active.words, s.ends.words)
	last := e.childClosure(&active, e.MaxDepth, &reached)
	src := graph{e: e, s: s, grow: active.upTo(last + 1)}
	e.chargeChildren(src.grow)

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
	ends := e.marks(lastEnd + 1)
	ends.grow(lastEnd + 1)
	for d := 0; d <= lastEnd; d++ {
		r := ends.at(d)
		r.OrCount(reached.at(d))
		if self {
			r.OrAnd(s.ends.at(d), mask)
		}
	}

	if self {
		return src.withEnds(ends), Marks{}
	}
	// Productivity: an endpoint is productive when a passing node is
	// strictly below it. hasBelow = backward closure of passing,
	// computed in place over the passing rows.
	hasBelow := reached
	for d := depths - 1; d > 0; d-- {
		below := hasBelow.at(d)
		if !below.Any() {
			continue
		}
		e.budget.Tick()
		src.orPreds(hasBelow.at(d-1), d, below)
	}
	productive := e.marks(s.ends.depths)
	for d := 0; d < s.ends.depths; d++ {
		below := hasBelow.at(d + 1)
		src.forOut(d, s.ends.at(d), func(a int, row, kids bitset.Set) {
			if row.Intersects(below) || kids.Intersects(below) {
				productive.add(d, dtd.SymID(a))
			}
		})
	}
	return src.withEnds(ends), productive
}

// ancestorStep handles ancestor and ancestor-or-self for all
// endpoints at once, over s's own edges. The union of the endpoints'
// proper ancestors is one backward sweep: above[d] = preds(ends[d+1] ∪
// above[d+1]). An endpoint is productive when some proper ancestor
// passes the test, i.e. when one forward sweep from the passing nodes,
// below[d+1] = succ(below[d] ∪ mask), reaches it (or, for
// ancestor-or-self, when it passes itself). No endpoint walks the
// graph alone.
func (s *Set) ancestorStep(axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	defer e.release(e.top)
	mask := e.testMask(test)
	self := axis == xquery.AncestorOrSelf
	depths := s.ends.depths
	above, below := e.sweep(depths), e.sweep(depths)
	front := bitset.Set(e.sweep(1).words) // one row, reused per depth

	for d := depths - 2; d >= 0; d-- {
		front.Clear()
		front.OrCount(s.ends.at(d + 1))
		front.OrCount(above.at(d + 1))
		if front.Any() {
			e.budget.Tick()
			s.orPreds(above.at(d), d+1, front)
		}
	}
	for d := 0; d+1 < depths && d < s.nd; d++ {
		e.budget.Tick()
		front.Clear()
		front.OrCount(mask)
		front.OrCount(below.at(d))
		next := below.at(d + 1)
		s.forRowsIn(d, front, func(_ int, row bitset.Set) { next.OrCount(row) })
	}

	lastEnd := -1
	for d := 0; d < depths; d++ {
		if above.at(d).Intersects(mask) || (self && s.ends.at(d).Intersects(mask)) {
			lastEnd = d
		}
	}
	ends := e.marks(lastEnd + 1)
	ends.grow(lastEnd + 1)
	for d := 0; d <= lastEnd; d++ {
		r := ends.at(d)
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
	return s.withEnds(ends), productive
}

// siblingStep handles preceding-sibling and following-sibling: for
// each parent node of an endpoint in s, the types ordered before/after
// the endpoint's type in that parent's content model (<r from the
// compiled sibling tables) become the parent's successors, and those
// passing the test are the results. The sibling edges are laid out
// once in a set of their own — their parents are marked first — and
// united with s before pruning.
func (s *Set) siblingStep(preceding bool, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	defer e.release(e.top)
	mask := e.testMask(test)
	sibs := func(p, a dtd.SymID) bitset.Set {
		if preceding {
			return e.C.PrecedingSiblings(p, a)
		}
		return e.C.FollowingSiblings(p, a)
	}
	// forSibs calls f for every parent p of an endpoint with siblings
	// in p's content model.
	forSibs := func(f func(end Node, p dtd.SymID, sb bitset.Set)) {
		s.forEachEnd(func(end Node) {
			if end.Depth == 0 || int(end.Sym) >= e.base {
				return
			}
			s.forPreds(end, func(p dtd.SymID) {
				if int(p) >= e.base {
					return
				}
				if sb := sibs(p, end.Sym); sb.Any() {
					f(end, p, sb)
				}
			})
		})
	}
	parents := e.sweep(s.ends.depths)
	forSibs(func(end Node, p dtd.SymID, _ bitset.Set) { parents.add(end.Depth-1, p) })
	edges := e.NewSet()
	edges.layout(parents)
	ends := e.marks(s.ends.depths)
	productive := e.marks(s.ends.depths)
	forSibs(func(end Node, p dtd.SymID, sb bitset.Set) {
		edges.outAt(end.Depth-1, p).OrCount(sb) // Union charges these edges
		if sb.Intersects(mask) {
			r := ends.row(end.Depth)
			r.OrAnd(sb, mask)
			productive.add(end.Depth, end.Sym)
		}
	})
	return e.Union(s, edges).withEnds(ends), productive
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
	e := s.eng
	defer e.release(e.top)
	seen := e.sweep(s.ends.depths)
	copy(seen.words, s.ends.words)
	for d := seen.depths - 1; d > n.Depth; d-- {
		if !seen.at(d).Any() {
			continue
		}
		e.budget.Tick()
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
// The extension of nil is nil.
func (s *Set) Extend() *Set {
	if s == nil {
		return nil
	}
	e := s.eng
	ends := e.marks(max(s.ends.depths, e.MaxDepth+1))
	ends.union(s.ends)
	last := e.childClosure(&ends, e.MaxDepth, nil)
	out := graph{e: e, s: s, grow: ends.upTo(last + 1)}.full()
	out.ends = ends
	return out
}

// Rebase returns a set whose chains are tag.c for every chain c of s —
// the element-chain composition a.c of the (ELT) rule.
func (s *Set) Rebase(tag string) *Set {
	out := s.eng.NewSet()
	sym := s.eng.internSym(tag)
	out.merge([]part{{t: s, off: 1, at: sym}}, nil)
	out.addRoot(sym)
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
	if budget > e.MaxDepth {
		budget = e.MaxDepth
	}
	ends := e.marks(budget + 1)
	ends.add(0, sym)
	last := e.childClosure(&ends, budget, nil)
	out := graph{e: e, grow: ends.upTo(last + 1)}.full()
	out.addRoot(sym)
	out.ends = ends
	return out
}

// Chains enumerates the k-chains spelled by the DAG, up to limit
// chains (0 = no limit). A path on which a symbol other than the
// string type occurs more than the engine's K times is pruned, as the
// explicit engine's canExtend does, so every chain listed lies in
// C^k_d even though the depth bound alone admits longer paths. The
// enumeration is exponential in general: every path prefix it visits
// is charged to the engine's chain budget.
func (s *Set) Chains(limit int) []chain.Chain {
	if s == nil {
		return nil
	}
	var out []chain.Chain
	var path []string
	occ := make([]int, s.eng.n) // occurrences of each symbol on path
	str := s.eng.C.StringSym()
	var rec func(d int, sym dtd.SymID)
	rec = func(d int, sym dtd.SymID) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if sym != str && occ[sym] == s.eng.K {
			return // not a k-chain, nor is any extension
		}
		s.eng.budget.AddChains(1)
		occ[sym]++
		path = append(path, s.eng.symName(sym))
		if s.ends.at(d).Has(int(sym)) {
			out = append(out, chain.New(append([]string(nil), path...)...))
		}
		s.outAt(d, sym).ForEach(func(to int) {
			rec(d+1, dtd.SymID(to))
		})
		path = path[:len(path)-1]
		occ[sym]--
	}
	var roots []dtd.SymID
	s.roots().ForEach(func(r int) { roots = append(roots, dtd.SymID(r)) })
	sort.Slice(roots, func(i, j int) bool {
		return s.eng.symName(roots[i]) < s.eng.symName(roots[j])
	})
	for _, r := range roots {
		rec(0, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Strings renders the enumerated chains.
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
