package dtd

import (
	"fmt"
	"maps"

	"xqindep/internal/bitset"
)

// This file is the artifact-integrity layer of the compiled schema:
// every Compiled carries a content checksum stamped at construction,
// and Verify re-derives it together with the structural invariants the
// dense engine relies on. The compile cache validates resident artifacts
// on every hit, so a corrupted artifact (a stray write through a
// shared bitset view, a future refactor mutating "immutable" tables)
// is caught and recompiled *before* it can reach an analysis and
// produce an unsound verdict. The sentinel's audit layer is the second
// line of defense for corruption that slips past this one.

// FNV-64 parameters. The checksum mixes whole 64-bit words, inline, so
// Verify allocates nothing and costs one multiply per word.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func mix(h, w uint64) uint64 { return (h ^ w) * fnvPrime64 }

func mixSet(h uint64, s bitset.Set) uint64 {
	h = mix(h, uint64(len(s)))
	for _, w := range s {
		h = mix(h, w)
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

// mixRows digests one map of bitset rows. Map order is random, so each
// entry is hashed on its own and the digests are summed, an
// order-independent combine.
func mixRows(h uint64, rows map[SymID]bitset.Set) uint64 {
	var sum uint64
	for a, s := range rows {
		sum += mixSet(mix(fnvOffset64, uint64(a)), s)
	}
	return mix(mix(h, uint64(len(rows))), sum)
}

// computeChecksum digests every table of c: the symbols, the start and
// string symbols, the child lists and successor bitsets, both sibling
// directions, the label rows and the recursive-type count. The walk is
// deterministic (dense SymID order, raw bitset words) except for the
// map-valued tables, whose entries are combined order-independently;
// equal artifacts hash equally across processes.
func (c *Compiled) computeChecksum() uint64 {
	n := len(c.syms)
	h := mix(fnvOffset64, uint64(n))
	h = mix(h, uint64(c.start))
	h = mix(h, uint64(c.stringSym))
	for _, s := range c.syms {
		h = mixString(h, s)
	}
	for i := 0; i < n; i++ {
		h = mix(h, uint64(len(c.children[i])))
		for _, k := range c.children[i] {
			h = mix(h, uint64(k))
		}
		h = mixSet(h, c.childSet[i])
		h = mixRows(h, c.follow[i])
		h = mixRows(h, c.precede[i])
	}
	var labels uint64
	for l, s := range c.byLabel {
		labels += mixSet(mixString(fnvOffset64, l), s)
	}
	h = mix(mix(h, uint64(len(c.byLabel))), labels)
	return mix(h, uint64(c.recCount))
}

// Verify checks the artifact's structural invariants and content
// checksum, returning a descriptive error on the first violation. It
// is cheap relative to compilation (no regex work), linear in the size
// of the tables, and allocates nothing; it runs on every compile-cache
// hit. A nil error means the dense engine may trust every table.
func (c *Compiled) Verify() error {
	n := len(c.syms)
	if n == 0 {
		return fmt.Errorf("dtd: compiled artifact: empty symbol table")
	}
	if len(c.index) != n || len(c.children) != n || len(c.childSet) != n ||
		len(c.follow) != n || len(c.precede) != n {
		return fmt.Errorf("dtd: compiled artifact: table lengths disagree with |Σ|=%d", n)
	}
	if int(c.start) >= n || int(c.stringSym) >= n {
		return fmt.Errorf("dtd: compiled artifact: start/string symbol out of range")
	}
	if c.syms[c.stringSym] != StringType {
		return fmt.Errorf("dtd: compiled artifact: string symbol %d is %q", c.stringSym, c.syms[c.stringSym])
	}
	for i, name := range c.syms {
		if got, ok := c.index[name]; !ok || int(got) != i {
			return fmt.Errorf("dtd: compiled artifact: symbol index broken at %q", name)
		}
	}
	for i := 0; i < n; i++ {
		// Child list and successor bitset must agree exactly.
		if got, want := c.childSet[i].Count(), len(c.children[i]); got != want {
			return fmt.Errorf("dtd: compiled artifact: childSet[%s] has %d bits, child list %d", c.syms[i], got, want)
		}
		for _, k := range c.children[i] {
			if int(k) >= n {
				return fmt.Errorf("dtd: compiled artifact: child id %d of %s out of range", k, c.syms[i])
			}
			if !c.childSet[i].Has(int(k)) {
				return fmt.Errorf("dtd: compiled artifact: childSet[%s] missing child %s", c.syms[i], c.syms[k])
			}
		}
	}
	if got := c.computeChecksum(); got != c.checksum {
		return fmt.Errorf("dtd: compiled artifact: content checksum mismatch (stamped %x, recomputed %x)", c.checksum, got)
	}
	return nil
}

// Checksum returns the content checksum stamped at compilation.
func (c *Compiled) Checksum() uint64 { return c.checksum }

// WithCorruption returns a copy of c in which one deterministically
// chosen element type is missing from its label row (µ⁻¹) and whose
// checksum is left stale — the damage a stray write through a shared
// bitset view would do. Every tag test of the dense engine reads that
// row, so a query selecting the dropped type infers no chains for it
// and the copy can turn a dependent pair into an unsound Independent.
// It is chaos-test support for the faultinject corrupt-artifact kind:
// the copy's tables are independent of c (the original stays intact),
// Verify on the copy fails, and the dense engine runs on it without
// crashing, which is precisely what the sentinel's audit layer must
// contain. Never use it outside tests and chaos harnesses.
func (c *Compiled) WithCorruption(seed int64) *Compiled {
	cc := *c
	types := len(c.syms) - 1 // element types; StringType is last
	if types <= 0 {
		return &cc
	}
	s := int(uint64(seed) % uint64(types))
	label := c.d.LabelOf(c.syms[s])
	cc.byLabel = maps.Clone(c.byLabel)
	row := c.byLabel[label].Clone()
	row.Remove(s)
	cc.byLabel[label] = row
	return &cc
}
