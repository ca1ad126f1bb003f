// Package bitset is the fixture's stand-in for the real bitset rows:
// frozenartifact matches mutators by name and home package, so only
// the shape matters. Set is a slice, so even value-receiver mutators
// write the shared backing array.
package bitset

type Set []uint64

func (s Set) Add(i int) { s[i/64] |= 1 << (i % 64) }

func (s Set) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// The fixed-width slab helpers write their receiver in place.

func (s Set) OrCount(t Set) int {
	for w, x := range t {
		s[w] |= x
	}
	return len(t)
}

func (s Set) AndOf(a, b Set) int {
	for w := range s {
		s[w] = a[w] & b[w]
	}
	return len(s)
}

func (s Set) Clear() { clear(s) }
