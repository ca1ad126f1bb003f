package cdag

import (
	mathbits "math/bits"

	"xqindep/internal/bitset"
	"xqindep/internal/dtd"
)

// A set's successor graph is one pointer-free slab g of w-word rows,
// laid out for nd depths and r stored rows as
//
//	g[0 : w]                    roots: the symbols at depth 0
//	g[w+d·w : w+(d+1)·w]        occupancy row of depth d < nd: the
//	                            symbols at d with at least one out-edge
//	g[w+nd·w+d]                 index of depth d's first row, d ≤ nd
//	                            (the last entry is r)
//	g[hdr+i·w : hdr+(i+1)·w]    row i: the successors at depth d+1 of
//	                            the i-th occupied node in (depth,
//	                            symbol) order; hdr = w+nd·w+nd+1
//
// Only non-empty rows are stored, and depth nd-1 is the deepest that
// has one. The row of (d, α) is an occupancy test plus a popcount rank;
// the row walks rank a word at a time, and a backward scan visits only
// the occupied rows of the depth above. A nil g is the graph with no
// roots and no edges, and the read methods (roots, occ, depthRows,
// outAt and the walks) read a nil *Set as that empty graph.
//
// A graph is written once: the writers (layout, relayout) allocate the
// slab at its final size, so a row view stays valid until the next
// write that lays the set out anew.

// hdr is the word offset of the first stored row.
func (s *Set) hdr() int { return s.eng.w*(s.nd+1) + s.nd + 1 }

// rowCount is the number of stored rows.
func (s *Set) rowCount() int {
	if s == nil || s.g == nil {
		return 0
	}
	return int(s.g[s.eng.w*(s.nd+1)+s.nd])
}

// roots returns the depth-0 symbols as a view (nil for an empty graph).
func (s *Set) roots() bitset.Set {
	if s == nil || s.g == nil {
		return nil
	}
	w := s.eng.w
	return s.g[:w:w]
}

// rootRow returns the roots as a writable view, first giving an empty
// graph its slab: the roots and the one row index of an edgeless graph.
func (s *Set) rootRow() bitset.Set {
	if s.g == nil {
		s.g = make([]uint64, s.eng.w+1)
	}
	return s.roots()
}

// addRoot marks sym as a root.
func (s *Set) addRoot(sym dtd.SymID) {
	r := s.rootRow()
	r.Add(int(sym))
}

// occ returns the occupancy row of depth d (nil outside [0, nd)).
func (s *Set) occ(d int) bitset.Set {
	if s == nil || d < 0 || d >= s.nd {
		return nil
	}
	w := s.eng.w
	o := w + d*w
	return s.g[o : o+w : o+w]
}

// depthRows returns the occupancy row of depth d and that depth's
// stored rows, packed w words each in ascending symbol order.
func (s *Set) depthRows(d int) (bitset.Set, []uint64) {
	occ := s.occ(d)
	if occ == nil {
		return nil, nil
	}
	w := s.eng.w
	at, h := w*(s.nd+1)+d, s.hdr()
	return occ, s.g[h+int(s.g[at])*w : h+int(s.g[at+1])*w]
}

// outAt returns the successor row of (d, from) as a view: nil when the
// node has no out-edge. The row's position is the first-row index of
// depth d plus the occupied symbols below from.
func (s *Set) outAt(d int, from dtd.SymID) bitset.Set {
	occ := s.occ(d)
	if occ == nil {
		return nil
	}
	i, bit := int(from)>>6, uint64(1)<<(from&63)
	if occ[i]&bit == 0 {
		return nil
	}
	w := s.eng.w
	r := int(s.g[w*(s.nd+1)+d]) + mathbits.OnesCount64(occ[i]&(bit-1))
	for _, x := range occ[:i] {
		r += mathbits.OnesCount64(x)
	}
	o := s.hdr() + r*w
	return s.g[o : o+w : o+w]
}

// forRows calls f for every stored row of depth d, in ascending symbol
// order.
func (s *Set) forRows(d int, f func(from int, row bitset.Set)) { s.forRowsIn(d, s.occ(d), f) }

// forRowsIn calls f, in ascending symbol order, for every node of from
// at depth d that has a stored row, with that row. Each row's slot is
// a word-level rank, so nothing is looked up node by node.
func (s *Set) forRowsIn(d int, from bitset.Set, f func(a int, row bitset.Set)) {
	occ, rows := s.depthRows(d)
	w, base := len(occ), 0 // an occupancy row is w words; nil past nd
	for j, o := range occ {
		for x := o & from[j]; x != 0; x &= x - 1 {
			r := (base + mathbits.OnesCount64(o&(x&-x-1))) * w
			f(j*64+mathbits.TrailingZeros64(x), rows[r:r+w:r+w])
		}
		base += mathbits.OnesCount64(o)
	}
}

// edgeCount is the number of edges stored.
func (s *Set) edgeCount() int {
	if s == nil || s.g == nil {
		return 0
	}
	return bitset.Set(s.g[s.hdr():]).Count()
}

// forPreds calls f for every predecessor symbol of n, in ascending
// order, scanning the occupied rows of the depth above it.
func (s *Set) forPreds(n Node, f func(p dtd.SymID)) {
	s.forRows(n.Depth-1, func(from int, row bitset.Set) {
		if row.Has(int(n.Sym)) {
			f(dtd.SymID(from))
		}
	})
}

// orPreds marks in dst every symbol at depth d-1 with an edge into
// targets at depth d: one intersection test per occupied row of depth
// d-1. dst is a fixed-width row, so nothing allocates.
func (s *Set) orPreds(dst bitset.Set, d int, targets bitset.Set) {
	occ, rows := s.depthRows(d - 1)
	w, k := len(occ), 0 // as in forRowsIn
	for j, word := range occ {
		for word != 0 {
			from := j*64 + mathbits.TrailingZeros64(word)
			word &= word - 1
			if bitset.Set(rows[k : k+w]).Intersects(targets) {
				dst.Add(from)
			}
			k += w
		}
	}
}

// layout gives s a fresh graph with no roots, the nodes occ marks as
// its occupied rows (up to occ's deepest non-empty depth) and every row
// zeroed: the one allocation of a write-once build.
func (s *Set) layout(occ Marks) {
	w := s.eng.w
	nd := occ.depths
	for nd > 0 && !occ.at(nd-1).Any() {
		nd--
	}
	s.nd = nd
	s.g = make([]uint64, s.hdr()+bitset.Set(occ.words[:nd*w]).Count()*w)
	copy(s.g[w:], occ.words[:nd*w])
	s.index()
}

// index writes every depth's first-row index from the occupancy rows.
func (s *Set) index() {
	at, r := s.eng.w*(s.nd+1), 0
	for d := 0; d < s.nd; d++ {
		s.g[at+d] = uint64(r)
		r += s.occ(d).Count()
	}
	s.g[at+s.nd] = uint64(r)
}

// relayout moves s's graph into a fresh slab of nd depths and rows
// stored rows whose occupancy word j at depth d is occWord(d, j), a
// superset of the current occupancy. The roots and every stored row
// move to their new slots; the new rows start zeroed. occWord must not
// read s, whose slab it replaces. Row views of s taken before point
// into the old slab, so they are stale afterwards.
func (s *Set) relayout(nd, rows int, occWord func(d, j int) uint64) {
	w := s.eng.w
	old := *s
	s.nd = nd
	s.g = make([]uint64, s.hdr()+rows*w)
	copy(s.g, old.roots())
	for d := 0; d < nd; d++ {
		for j := 0; j < w; j++ {
			s.g[w+d*w+j] = occWord(d, j)
		}
	}
	s.index()
	for d := 0; d < old.nd; d++ {
		_, from := old.depthRows(d)
		k := 0
		s.forRowsIn(d, old.occ(d), func(_ int, dst bitset.Set) {
			copy(dst, from[k:k+w])
			k += w
		})
	}
}

// part is one operand of merge: t's rows land off depths down (t's
// depth d at off+d, dropped where the edge would pass MaxDepth), and
// when off > 0, t's roots become the successors of the node (off-1,
// at) — a graft.
type part struct {
	t   *Set
	off int
	at  dtd.SymID
}

// rowDepths is the number of t's row depths that land above maxDepth.
func (p part) rowDepths(maxDepth int) int { return max(0, min(p.t.nd, maxDepth-p.off)) }

// merge unions the parts into s: their rows, their endpoints and, for
// parts at offset 0, their roots. It charges one budget unit per edge a
// part writes, and when cr is non-nil it also marks every node a part
// writes at or below its attachment depth (the change region of update
// grafts). Parts past MaxDepth are dropped whole. When the parts bring
// a row s lacks, the graph is laid out anew once, at its final size;
// otherwise their rows are ORed in place and nothing allocates. No
// part may be s itself.
func (s *Set) merge(parts []part, cr *Marks) {
	e := s.eng
	w := e.w
	old := *s
	nd := old.nd
	for _, p := range parts {
		if p.off > e.MaxDepth {
			continue
		}
		if p.off > 0 && p.t.roots().Any() {
			nd = max(nd, p.off)
		}
		if k := p.rowDepths(e.MaxDepth); k > 0 {
			nd = max(nd, p.off+k)
		}
	}
	occWord := func(d, j int) uint64 {
		var x uint64
		if o := old.occ(d); o != nil {
			x = o[j]
		}
		for _, p := range parts {
			if p.off > e.MaxDepth {
				continue
			}
			if p.off > 0 && d == p.off-1 && int(p.at)>>6 == j && p.t.roots().Any() {
				x |= 1 << (p.at & 63)
			}
			if k := d - p.off; k >= 0 && k < p.rowDepths(e.MaxDepth) {
				x |= p.t.occ(k)[j]
			}
		}
		return x
	}
	rows := 0
	for d := 0; d < nd; d++ {
		for j := 0; j < w; j++ {
			rows += mathbits.OnesCount64(occWord(d, j))
		}
	}
	if nd != old.nd || rows != old.rowCount() {
		s.relayout(nd, rows, occWord)
	}
	for _, p := range parts {
		if p.off > e.MaxDepth {
			continue
		}
		t, n := p.t, 0
		if roots := t.roots(); roots.Any() {
			if p.off == 0 {
				s.rootRow().OrCount(roots)
			} else {
				n += s.outAt(p.off-1, p.at).OrCount(roots)
			}
			if cr != nil {
				cr.or(p.off, roots)
			}
		}
		for k := 0; k < p.rowDepths(e.MaxDepth); k++ {
			// s now stores a row for every node t does at this depth,
			// so both walks visit the same symbols in the same order.
			d, i := p.off+k, 0
			_, rows := t.depthRows(k)
			s.forRowsIn(d, t.occ(k), func(_ int, dst bitset.Set) {
				row := bitset.Set(rows[i : i+w])
				i += w
				n += dst.OrCount(row)
				if cr != nil {
					cr.or(d+1, row)
				}
			})
		}
		e.budget.AddNodes(n)
		for k := 0; k < t.ends.depths && p.off+k <= e.MaxDepth; k++ {
			s.ends.or(p.off+k, t.ends.at(k))
			if cr != nil {
				cr.or(p.off+k, t.ends.at(k))
			}
		}
	}
}

// graph is the successor relation a step closes over: the stored rows
// of s (nil reads as no rows), plus, for every node grow marks, its
// schema children. Grown children are read from the compiled schema on
// the fly, so a step stores only the edges it keeps.
type graph struct {
	e    *Engine
	s    *Set
	grow Marks
}

// depths is the number of depths with out-edges.
func (g graph) depths() int {
	if g.s == nil {
		return g.grow.depths
	}
	return max(g.s.nd, g.grow.depths)
}

// forOut calls f, in ascending symbol order, for every node of from at
// depth d with successors in g, passing its stored row and its grown
// children (either may be nil). One pass over the depth's occupancy and
// grow words finds both, so nothing is looked up node by node.
func (g graph) forOut(d int, from bitset.Set, f func(a int, row, kids bitset.Set)) {
	occ, rows := g.s.depthRows(d)
	grow := g.grow.at(d)
	w, base := g.e.w, 0
	for j := range from {
		var o, gw uint64
		if occ != nil {
			o = occ[j]
		}
		if grow != nil {
			gw = grow[j]
		}
		for x := (o | gw) & from[j]; x != 0; x &= x - 1 {
			bit := x & -x
			a := j*64 + mathbits.TrailingZeros64(x)
			var row, kids bitset.Set
			if o&bit != 0 {
				r := (base + mathbits.OnesCount64(o&(bit-1))) * w
				row = rows[r : r+w : r+w]
			}
			if gw&bit != 0 {
				kids = g.e.childSet(dtd.SymID(a))
			}
			f(a, row, kids)
		}
		base += mathbits.OnesCount64(o)
	}
}

// orPreds is Set.orPreds over the grown edges too.
func (g graph) orPreds(dst bitset.Set, d int, targets bitset.Set) {
	g.s.orPreds(dst, d, targets)
	g.forOut(d-1, g.grow.at(d-1), func(a int, _, kids bitset.Set) {
		if kids.Intersects(targets) {
			dst.Add(a)
		}
	})
}

// writeRows fills out's rows at depth d in order, calling f with each
// one and the successors of its node in g. out's occupied nodes at d
// must all have successors in g.
func (g graph) writeRows(out *Set, d int, f func(dst, row, kids bitset.Set)) {
	_, rows := out.depthRows(d)
	w, k := g.e.w, 0
	g.forOut(d, out.occ(d), func(_ int, row, kids bitset.Set) {
		f(rows[k:k+w:k+w], row, kids)
		k += w
	})
}

// withEnds returns g's graph with the given endpoints, pruned to the
// edges that spell its chains: the forward closure from the roots and
// the backward closure from the forward-reachable endpoints run
// level-wise over three sweeps, the backward pass records which nodes
// keep an edge, and only those rows are written, into a slab laid out
// once. This plays the role of the paper's edge codes: growth
// performed while exploring one step must not become spellable context
// for the next step or for backward navigation. The result takes over
// ends' words for its endpoints, so the caller must not use ends after.
func (g graph) withEnds(ends Marks) *Set {
	e := g.e
	defer e.release(e.top)
	depths := max(ends.depths, g.depths()+1)
	fwd, back, kept := e.sweep(depths), e.sweep(depths), e.sweep(depths)
	// Forward closure from the roots.
	fwd.at(0).OrCount(g.s.roots())
	for d := 0; d+1 < depths; d++ {
		e.budget.Tick()
		next := fwd.at(d + 1)
		g.forOut(d, fwd.at(d), func(_ int, row, kids bitset.Set) {
			next.OrCount(row)
			next.OrCount(kids)
		})
	}
	// Backward closure from the forward-reachable endpoints. Only
	// forward-reachable symbols are kept, so back[d] ⊆ fwd[d]; kept[d]
	// holds those with an edge into back[d+1], the rows to write.
	for d := depths - 1; d >= 0; d-- {
		e.budget.Tick()
		b := back.at(d)
		b.AndOf(ends.at(d), fwd.at(d))
		if below := back.at(d + 1); below.Any() {
			k := kept.at(d)
			g.forOut(d, fwd.at(d), func(a int, row, kids bitset.Set) {
				if row.Intersects(below) || kids.Intersects(below) {
					k.Add(a)
				}
			})
			b.OrCount(k)
		}
	}
	out := g.keep(kept, back)
	lastEnd := -1
	for d := 0; d < ends.depths; d++ {
		if ends.at(d).AndOf(ends.at(d), fwd.at(d)) > 0 {
			lastEnd = d
		}
	}
	out.ends = ends.upTo(lastEnd + 1)
	return out
}

// keep writes a new set whose rows are exactly the nodes occ marks:
// each holds the node's successors in g that keep marks one depth
// below, and the roots are g's roots that keep marks at depth 0. Every
// occupied node must have such a successor. One budget unit is charged
// per edge written.
func (g graph) keep(occ, keep Marks) *Set {
	e := g.e
	out := e.NewSet()
	out.layout(occ)
	out.roots().AndOf(g.s.roots(), keep.at(0))
	for d := 0; d < out.nd; d++ {
		below := keep.at(d + 1)
		g.writeRows(out, d, func(dst, row, kids bitset.Set) {
			dst.AndOf(row, below)
			dst.OrAnd(kids, below)
		})
	}
	n := out.edgeCount()
	e.budget.AddNodes(n)
	return out
}

// full writes every edge of g — s's stored rows and the grown children
// — into a new set with s's roots and no endpoints, charging one budget
// unit per edge written.
func (g graph) full() *Set {
	e := g.e
	defer e.release(e.top)
	occ := e.sweep(g.depths())
	for d := 0; d < occ.depths; d++ {
		o := occ.at(d)
		o.OrCount(g.s.occ(d))
		g.grow.at(d).ForEach(func(a int) {
			if e.childSet(dtd.SymID(a)).Any() {
				o.Add(a)
			}
		})
	}
	out := e.NewSet()
	out.layout(occ)
	out.roots().OrCount(g.s.roots())
	n := 0
	for d := 0; d < out.nd; d++ {
		g.writeRows(out, d, func(dst, row, kids bitset.Set) {
			n += dst.OrCount(row) + dst.OrCount(kids)
		})
	}
	e.budget.AddNodes(n)
	return out
}
