// Package chain implements the paper's central data objects: chains
// of types (Definition 2.1), update chains c:c' (Section 3), and the
// prefix relation and conflict sets (Definition 4.1).
package chain

import (
	"fmt"
	"sort"
	"strings"
)

// A Chain is a sequence of type symbols α1.α2...αn such that
// consecutive symbols are related by ⇒d (for chains over a DTD) — or,
// for element chains, a constructed-tag followed by a schema suffix.
// Chains are value-like: functions return fresh slices and never
// mutate their arguments.
type Chain []string

// New builds a chain from symbols.
func New(syms ...string) Chain { return Chain(syms) }

// ParseChain parses the dotted notation "doc.a.c". An empty string is
// the empty chain. Input spelling an empty symbol — consecutive,
// leading or trailing dots — is malformed and rejected: silently
// producing a chain with "" symbols would corrupt prefix comparisons
// (every chain would appear to extend "a."-style prefixes).
func ParseChain(s string) (Chain, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("chain: malformed %q: empty symbol", s)
		}
	}
	return Chain(parts), nil
}

// MustParseChain is ParseChain for known-good literals (tests,
// fixtures); it panics on malformed input.
func MustParseChain(s string) Chain {
	c, err := ParseChain(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the chain in the paper's dotted notation.
func (c Chain) String() string { return strings.Join([]string(c), ".") }

// Len returns the number of symbols.
func (c Chain) Len() int { return len(c) }

// IsEmpty reports whether c is the empty chain.
func (c Chain) IsEmpty() bool { return len(c) == 0 }

// Last returns the final symbol; it panics on the empty chain.
func (c Chain) Last() string { return c[len(c)-1] }

// Parent returns the chain without its final symbol (the chain of the
// parent node); it panics on the empty chain.
func (c Chain) Parent() Chain { return c[:len(c)-1] }

// Concat returns c.c2 as a fresh chain.
func (c Chain) Concat(c2 Chain) Chain {
	out := make(Chain, 0, len(c)+len(c2))
	out = append(out, c...)
	out = append(out, c2...)
	return out
}

// Extend returns c.α as a fresh chain.
func (c Chain) Extend(sym string) Chain {
	out := make(Chain, 0, len(c)+1)
	out = append(out, c...)
	return append(out, sym)
}

// Equal reports symbol-wise equality.
func (c Chain) Equal(d Chain) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports c ⪯ d: d = c.c' for some (possibly empty) c'.
func (c Chain) IsPrefixOf(d Chain) bool {
	if len(c) > len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of c.
func (c Chain) Clone() Chain { return append(Chain(nil), c...) }

// An UpdateChain c:c' types a change made by an update: the Target
// prefix c types the node whose content may change, the Change suffix
// c' types the modified children or new/removed descendants involved
// (Section 3). The change suffix of a well-formed update chain is
// never empty.
type UpdateChain struct {
	Target Chain
	Change Chain
}

// NewUpdate builds an update chain.
func NewUpdate(target, change Chain) UpdateChain {
	return UpdateChain{Target: target.Clone(), Change: change.Clone()}
}

// ParseUpdateChain parses "doc.a:b.c" notation, rejecting empty
// symbols in either component under the same rule as ParseChain.
func ParseUpdateChain(s string) (UpdateChain, error) {
	t, c, _ := strings.Cut(s, ":")
	tc, err := ParseChain(t)
	if err != nil {
		return UpdateChain{}, err
	}
	cc, err := ParseChain(c)
	if err != nil {
		return UpdateChain{}, err
	}
	return UpdateChain{Target: tc, Change: cc}, nil
}

// MustParseUpdateChain is ParseUpdateChain for known-good literals; it
// panics on malformed input.
func MustParseUpdateChain(s string) UpdateChain {
	u, err := ParseUpdateChain(s)
	if err != nil {
		panic(err)
	}
	return u
}

// Full returns the concatenation c.c' — the chain typing the deepest
// changed nodes.
func (u UpdateChain) Full() Chain { return u.Target.Concat(u.Change) }

// String renders the paper's c:c' notation.
func (u UpdateChain) String() string { return u.Target.String() + ":" + u.Change.String() }

// Equal reports component-wise equality.
func (u UpdateChain) Equal(v UpdateChain) bool {
	return u.Target.Equal(v.Target) && u.Change.Equal(v.Change)
}

// A Set is a set of chains with canonical string keys. The zero value
// is an empty set ready for use (but prefer NewSet for clarity).
type Set struct {
	m map[string]Chain
}

// NewSet builds a set holding the given chains.
func NewSet(chains ...Chain) *Set {
	s := &Set{m: make(map[string]Chain, len(chains))}
	for _, c := range chains {
		s.Add(c)
	}
	return s
}

// Add inserts c, returning true when it was not yet present.
func (s *Set) Add(c Chain) bool {
	if s.m == nil {
		s.m = make(map[string]Chain)
	}
	k := c.String()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = c.Clone()
	return true
}

// AddAll inserts every chain of t.
func (s *Set) AddAll(t *Set) {
	if t == nil {
		return
	}
	for _, c := range t.m {
		s.Add(c)
	}
}

// Contains reports membership.
func (s *Set) Contains(c Chain) bool {
	if s == nil || s.m == nil {
		return false
	}
	_, ok := s.m[c.String()]
	return ok
}

// Len returns the number of chains.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// IsEmpty reports whether the set has no chains.
func (s *Set) IsEmpty() bool { return s.Len() == 0 }

// Chains returns the chains sorted by their string form.
func (s *Set) Chains() []Chain {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Chain, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// Strings returns the sorted dotted forms; convenient in tests.
func (s *Set) Strings() []string {
	cs := s.Chains()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// Union returns a fresh set holding all chains of the operands.
func Union(sets ...*Set) *Set {
	out := NewSet()
	for _, s := range sets {
		out.AddAll(s)
	}
	return out
}

// String renders the set as {c1, c2, ...} in sorted order.
func (s *Set) String() string {
	return "{" + strings.Join(s.Strings(), ", ") + "}"
}

// A ConflictPair witnesses a prefix conflict (c1, c2) with c1 ⪯ c2
// (Definition 4.1); Left/Right record which chain played which role.
type ConflictPair struct {
	Left, Right Chain
}

func (p ConflictPair) String() string {
	return p.Left.String() + " ⪯ " + p.Right.String()
}

// Conflicts computes confl(τ1, τ2) = {(c1,c2) | c1∈τ1, c2∈τ2, c1 ⪯ c2}.
func Conflicts(t1, t2 *Set) []ConflictPair {
	var out []ConflictPair
	for _, c1 := range t1.Chains() {
		for _, c2 := range t2.Chains() {
			if c1.IsPrefixOf(c2) {
				out = append(out, ConflictPair{Left: c1, Right: c2})
			}
		}
	}
	return out
}
