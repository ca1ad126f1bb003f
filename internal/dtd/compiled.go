package dtd

import (
	"xqindep/internal/bitset"
	"xqindep/internal/guard"
)

// SymID is a dense interned symbol ID, valid for one Compiled schema.
// IDs follow the DTD's canonical type order (start symbol first, then
// sorted), with StringType interned last; dense engines use them to
// index flat tables and bitset rows instead of hashing strings.
type SymID uint16

// MaxCompiledTypes bounds the number of element types a schema may
// declare and still be compiled. The cap keeps the per-symbol tables
// (|Σ| successor bitsets of |Σ| bits each, and the sibling rows) small;
// schemas beyond it — only adversarial inputs get anywhere near — fail
// compilation with a "symbols" LimitError and the analysis ladder
// degrades to the map-based methods, which have no such bound.
const MaxCompiledTypes = 4096

// Compiled is the dense CDAG engine's schema artifact: Σ interned into
// dense symbol IDs plus exactly the schema facts Section 6.1's
// inference reads per step — child lists and successor bitsets (⇒d),
// sibling order (<r) in both directions, the label map µ⁻¹, and the
// recursive-type count behind Theorem 5.1's depth bound. The map-based
// engines read the DTD directly and never compile it. A Compiled is
// immutable after construction and safe for concurrent use; all
// returned slices and bitsets are shared read-only views that callers
// must not mutate.
//
// Obtain instances through Compile, whose cache keys on
// DTD.Fingerprint so concurrent analyses of the same schema share one
// artifact.
type Compiled struct {
	d         *DTD
	syms      []string
	index     map[string]SymID
	start     SymID
	stringSym SymID

	children [][]SymID
	childSet []bitset.Set

	follow  []map[SymID]bitset.Set
	precede []map[SymID]bitset.Set

	byLabel  map[string]bitset.Set
	recCount int

	// checksum seals every table above at compilation time; Verify
	// recomputes it so the compile cache can reject a corrupted
	// resident on hit (see verify.go).
	checksum uint64
}

// NewCompiled compiles d into its dense artifact. It fails with a
// *guard.LimitError (Resource "symbols", unwrapping to
// ErrBudgetExceeded) when the schema exceeds MaxCompiledTypes.
// Production callers should prefer Compile, which memoizes the result
// by fingerprint; constructing ad hoc in serving paths defeats the
// cache (and is flagged by the xqvet compilecache check).
func NewCompiled(d *DTD) (*Compiled, error) {
	if len(d.Types) > MaxCompiledTypes {
		return nil, &guard.LimitError{Resource: "symbols", Limit: MaxCompiledTypes}
	}
	n := len(d.Types) + 1 // + StringType
	c := &Compiled{
		d:        d,
		syms:     make([]string, n),
		index:    make(map[string]SymID, n),
		children: make([][]SymID, n),
		childSet: make([]bitset.Set, n),
		follow:   make([]map[SymID]bitset.Set, n),
		precede:  make([]map[SymID]bitset.Set, n),
		byLabel:  make(map[string]bitset.Set),
		recCount: len(d.RecursiveTypes()),
	}
	for i, t := range d.Types {
		c.syms[i] = t
		c.index[t] = SymID(i)
	}
	c.stringSym = SymID(len(d.Types))
	c.syms[c.stringSym] = StringType
	c.index[StringType] = c.stringSym
	c.start = c.index[d.Start]

	// ⇒d: child lists and successor bitsets.
	for i, t := range d.Types {
		kids := d.ChildTypes(t)
		row := make([]SymID, len(kids))
		set := bitset.New(n)
		for j, k := range kids {
			row[j] = c.index[k]
			set.Add(int(row[j]))
		}
		c.children[i] = row
		c.childSet[i] = set
	}

	// Sibling order <r, from the per-parent precedes relation the DTD
	// already derives from each content model.
	for i, t := range d.Types {
		pre := d.precedes[t]
		if len(pre) == 0 {
			continue
		}
		fw := make(map[SymID]bitset.Set)
		bw := make(map[SymID]bitset.Set)
		for alpha, after := range pre {
			a := c.index[alpha]
			set := bitset.New(n)
			for beta := range after {
				b := c.index[beta]
				set.Add(int(b))
				bs := bw[b]
				if bs == nil {
					bs = bitset.New(n)
					bw[b] = bs
				}
				bs.Add(int(a))
			}
			fw[a] = set
		}
		c.follow[i] = fw
		c.precede[i] = bw
	}

	for i, t := range c.syms {
		l := d.LabelOf(t)
		set := c.byLabel[l]
		if set == nil {
			set = bitset.New(n)
			c.byLabel[l] = set
		}
		set.Add(i)
	}
	c.checksum = c.computeChecksum()
	return c, nil
}

// DTD returns the source schema.
func (c *Compiled) DTD() *DTD { return c.d }

// NumSyms returns the size of the interned symbol space, including
// StringType.
func (c *Compiled) NumSyms() int { return len(c.syms) }

// SymOf resolves a type name to its dense ID.
func (c *Compiled) SymOf(name string) (SymID, bool) {
	s, ok := c.index[name]
	return s, ok
}

// NameOf returns the type name of a dense ID.
func (c *Compiled) NameOf(s SymID) string { return c.syms[s] }

// Start returns the interned start symbol sd.
func (c *Compiled) Start() SymID { return c.start }

// StringSym returns the interned StringType symbol.
func (c *Compiled) StringSym() SymID { return c.stringSym }

// Children returns the interned child list of s (the β with s ⇒d β),
// in the DTD's sorted child order.
func (c *Compiled) Children(s SymID) []SymID { return c.children[s] }

// ChildSet returns the successor bitset of s.
func (c *Compiled) ChildSet(s SymID) bitset.Set { return c.childSet[s] }

// FollowingSiblings returns the symbols that may follow alpha among
// the children of parent (α <r β); nil when none.
func (c *Compiled) FollowingSiblings(parent, alpha SymID) bitset.Set {
	return c.follow[parent][alpha]
}

// PrecedingSiblings returns the symbols that may precede beta among
// the children of parent; nil when none.
func (c *Compiled) PrecedingSiblings(parent, beta SymID) bitset.Set {
	return c.precede[parent][beta]
}

// RecursiveCount returns the number of recursive types.
func (c *Compiled) RecursiveCount() int { return c.recCount }

// LabelSyms returns the symbols whose element label is label (µ⁻¹);
// nil when the label is not produced by the schema.
func (c *Compiled) LabelSyms(label string) bitset.Set { return c.byLabel[label] }

// Fingerprint returns the source schema's content fingerprint — the
// compilation-cache key.
func (c *Compiled) Fingerprint() string { return c.d.Fingerprint() }
