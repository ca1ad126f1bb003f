// Package bitset provides the dense fixed-universe bit sets backing
// the compiled-schema engines. A Set is a plain []uint64 word slice;
// the universe is the interned symbol space of one schema, so sets
// are tiny (a handful of words for realistic DTDs) and every engine
// operation — union, intersection, prefix-conflict probing — becomes
// a short word-wise loop instead of a nested map walk.
//
// A Set is either standalone or a fixed-width view. A standalone set
// grows on Add/Or, and every operation tolerates operands of different
// lengths (missing words read as zero). A view is a cap-limited slice
// of a larger pointer-free slab, one row of w = ⌈n/64⌉ words over a
// fixed universe of n symbols; the CDAG engine keeps all its rows this
// way. Add/Or never grow a view whose operands fit the universe, and
// the slab helpers OrCount, AndOf and Clear never grow at all: they
// write in place and report bit counts, so a sweep over a slab
// allocates nothing.
package bitset

import "math/bits"

// Set is a bit set over a small integer universe: a growable
// standalone set, or a fixed-width view into a slab.
type Set []uint64

// New returns a set pre-sized to hold bits [0, n).
func New(n int) Set {
	if n <= 0 {
		return nil
	}
	return make(Set, (n+63)/64)
}

// grow ensures the set can hold bit i.
func (s *Set) grow(i int) {
	w := i/64 + 1
	if len(*s) >= w {
		return
	}
	ns := make(Set, w)
	copy(ns, *s)
	*s = ns
}

// Add sets bit i and reports whether it was newly set. This is the
// hook the engines use to charge the guard budget only for genuinely
// new nodes/edges.
func (s *Set) Add(i int) bool {
	s.grow(i)
	w, m := i/64, uint64(1)<<(i%64)
	if (*s)[w]&m != 0 {
		return false
	}
	(*s)[w] |= m
	return true
}

// Remove clears bit i.
func (s Set) Remove(i int) {
	w := i / 64
	if w < len(s) {
		s[w] &^= uint64(1) << (i % 64)
	}
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool {
	w := i / 64
	return w < len(s) && s[w]&(uint64(1)<<(i%64)) != 0
}

// Or unions t into s and returns the number of newly set bits.
func (s *Set) Or(t Set) int {
	if len(t) > len(*s) {
		s.grow(len(t)*64 - 1)
	}
	n := 0
	d := *s
	for w, tw := range t {
		if tw == 0 {
			continue
		}
		nw := d[w] | tw
		n += bits.OnesCount64(nw ^ d[w])
		d[w] = nw
	}
	return n
}

// OrAnd unions a∧b into s without materialising the intersection —
// the conflict engine's inner loop, which would otherwise allocate a
// temporary per symbol per depth.
func (s *Set) OrAnd(a, b Set) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return
	}
	if len(*s) < n {
		s.grow(n*64 - 1)
	}
	d := *s
	for w := 0; w < n; w++ {
		d[w] |= a[w] & b[w]
	}
}

// OrCount unions t into s in place and returns the number of bits set
// in t — the CDAG budget's charge for merging t as one row. It never
// grows s, which must be at least as long as t.
func (s Set) OrCount(t Set) int {
	n := 0
	for w, tw := range t {
		s[w] |= tw
		n += bits.OnesCount64(tw)
	}
	return n
}

// AndOf overwrites s with a∧b and returns the number of bits set in
// the result; words missing from either operand read as zero. It never
// grows s, and s may alias a or b.
func (s Set) AndOf(a, b Set) int {
	n := 0
	for w := range s {
		var x uint64
		if w < len(a) && w < len(b) {
			x = a[w] & b[w]
		}
		s[w] = x
		n += bits.OnesCount64(x)
	}
	return n
}

// Clear zeroes every word of s in place.
func (s Set) Clear() { clear(s) }

// IntersectsAll reports whether some bit is set in all three operands
// (a ∧ b ∧ c ≠ ∅), without materialising any intersection.
func IntersectsAll(a, b, c Set) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(c) < n {
		n = len(c)
	}
	for w := 0; w < n; w++ {
		if a[w]&b[w]&c[w] != 0 {
			return true
		}
	}
	return false
}

// Intersects reports whether s and t share any bit.
func (s Set) Intersects(t Set) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for w := 0; w < n; w++ {
		if s[w]&t[w] != 0 {
			return true
		}
	}
	return false
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every set bit in ascending order.
func (s Set) ForEach(f func(i int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			f(w*64 + b)
			word &= word - 1
		}
	}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Equal reports whether s and t contain exactly the same bits,
// regardless of trailing zero words.
func (s Set) Equal(t Set) bool {
	long, short := s, t
	if len(t) > len(s) {
		long, short = t, s
	}
	for w := range short {
		if long[w] != short[w] {
			return false
		}
	}
	for _, word := range long[len(short):] {
		if word != 0 {
			return false
		}
	}
	return true
}
