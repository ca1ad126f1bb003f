package dtd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"xqindep/internal/guard"
	"xqindep/internal/xmltree"
)

// DTD is a schema (Σ, sd, d) — and, when Label is non-trivial, an
// Extended DTD (Σ, Σ', sd, d, µ) in the sense of Definition 7.1: Types
// play the role of Σ', Label the role of µ, and the element labels the
// role of Σ. For a plain DTD every type labels itself.
//
// The reserved symbol S (StringType) denotes text content; d(S) = ε.
type DTD struct {
	// Start is the start symbol sd.
	Start string
	// Types lists the element types in declaration order. It never
	// contains StringType.
	Types []string
	// Content maps each type to its content model d(a).
	Content map[string]*Regex
	// Label maps a type to the element label it produces (the EDTD µ).
	// Types absent from the map label themselves. StringType always
	// maps to itself.
	Label map[string]string

	nfas     map[string]*nfa
	precedes map[string]map[string]map[string]bool
	children map[string][]string

	// Lazily-memoized derived state. A DTD is immutable after New, and
	// the analysis layers share one *DTD across many concurrent
	// analyses (a serving pool runs AnalyzeContext from many
	// goroutines), so each cache is computed exactly once under a
	// sync.Once and the cached maps are returned as shared read-only
	// views — callers must not mutate them.
	recOnce sync.Once
	recSet  map[string]bool
	recAny  bool
	mhOnce  sync.Once
	mh      map[string]int
	fpOnce  sync.Once
	fp      string
}

// New builds a DTD from a start symbol and content map, checking
// basic well-formedness. The content map keys determine Σ'; iteration
// order of Types is sorted with Start first for determinism.
func New(start string, content map[string]*Regex) (*DTD, error) {
	return NewExtended(start, content, nil)
}

// NewExtended builds an Extended DTD with an explicit type-to-label
// map (nil for a plain DTD).
func NewExtended(start string, content map[string]*Regex, label map[string]string) (*DTD, error) {
	if start == "" {
		return nil, fmt.Errorf("dtd: empty start symbol")
	}
	if _, ok := content[start]; !ok {
		return nil, fmt.Errorf("dtd: start symbol %q has no content model", start)
	}
	if _, ok := content[StringType]; ok {
		return nil, fmt.Errorf("dtd: %q is reserved for the string type", StringType)
	}
	types := make([]string, 0, len(content))
	for t := range content {
		if t != start {
			types = append(types, t)
		}
	}
	sort.Strings(types)
	types = append([]string{start}, types...)
	d := &DTD{Start: start, Types: types, Content: content, Label: label}
	for _, t := range types {
		if err := content[t].Validate(); err != nil {
			return nil, fmt.Errorf("dtd: content model of %q: %w", t, err)
		}
		for _, s := range content[t].SymbolList() {
			if s != StringType {
				if _, ok := content[s]; !ok {
					return nil, fmt.Errorf("dtd: type %q used in d(%s) but never declared", s, t)
				}
			}
		}
	}
	for t, l := range label {
		if _, ok := content[t]; !ok {
			return nil, fmt.Errorf("dtd: label map mentions undeclared type %q", t)
		}
		if l == StringType || l == "" {
			return nil, fmt.Errorf("dtd: type %q has invalid label %q", t, l)
		}
	}
	d.build()
	return d, nil
}

func (d *DTD) build() {
	d.nfas = make(map[string]*nfa, len(d.Types))
	d.precedes = make(map[string]map[string]map[string]bool, len(d.Types))
	d.children = make(map[string][]string, len(d.Types))
	for _, t := range d.Types {
		r := d.Content[t]
		d.nfas[t] = compileNFA(r)
		d.precedes[t] = r.Precedes()
		d.children[t] = r.SymbolList()
	}
}

// LabelOf returns the element label produced by type t (µ(t)); the
// string type labels itself.
func (d *DTD) LabelOf(t string) string {
	if t == StringType {
		return StringType
	}
	if d.Label != nil {
		if l, ok := d.Label[t]; ok {
			return l
		}
	}
	return t
}

// HasType reports whether t is a declared element type or StringType.
func (d *DTD) HasType(t string) bool {
	if t == StringType {
		return true
	}
	_, ok := d.Content[t]
	return ok
}

// Size returns |d|, the number of declared element types.
func (d *DTD) Size() int { return len(d.Types) }

// ChildTypes returns the symbols β with α ⇒d β (β occurs in d(α)),
// sorted; StringType included when text is allowed. The string type
// has no children.
func (d *DTD) ChildTypes(alpha string) []string {
	if alpha == StringType {
		return nil
	}
	return d.children[alpha]
}

// Reaches reports α ⇒d β.
func (d *DTD) Reaches(alpha, beta string) bool {
	for _, c := range d.ChildTypes(alpha) {
		if c == beta {
			return true
		}
	}
	return false
}

// FollowingSiblingTypes returns the types β such that a β-typed
// sibling may follow an α-typed child under a parent of type parent,
// i.e. α <d(parent) β.
func (d *DTD) FollowingSiblingTypes(parent, alpha string) []string {
	if parent == StringType {
		return nil
	}
	m := d.precedes[parent][alpha]
	out := make([]string, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// PrecedingSiblingTypes returns the types α such that an α-typed
// sibling may precede a β-typed child under parent: α <d(parent) β.
func (d *DTD) PrecedingSiblingTypes(parent, beta string) []string {
	if parent == StringType {
		return nil
	}
	var out []string
	for a, m := range d.precedes[parent] {
		if m[beta] {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// DescendantClosure returns the set of types reachable from any type
// in seed via one or more ⇒d steps.
func (d *DTD) DescendantClosure(seed []string) map[string]bool {
	out := make(map[string]bool)
	var stack []string
	for _, s := range seed {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.ChildTypes(t) {
			if !out[c] {
				out[c] = true
				stack = append(stack, c)
			}
		}
	}
	return out
}

// RecursiveTypes returns the set of types that lie on a ⇒d cycle
// (the recursive types of §5): members of a strongly connected
// component of size ≥ 2, or with a self-loop. The SCC computation is
// memoized (the CDAG engine consults it on every analysis); the
// returned map is a shared read-only view and must not be mutated.
func (d *DTD) RecursiveTypes() map[string]bool {
	d.recOnce.Do(d.computeRecursive)
	return d.recSet
}

func (d *DTD) computeRecursive() {
	// Tarjan's SCC algorithm, iterative indexes via recursion (depth is
	// bounded by |d|, fine for schemas).
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	rec := make(map[string]bool)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range d.ChildTypes(v) {
			if w == StringType {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					rec[w] = true
				}
			} else if d.Reaches(comp[0], comp[0]) {
				rec[comp[0]] = true
			}
		}
	}
	for _, t := range d.Types {
		if _, seen := index[t]; !seen {
			strongconnect(t)
		}
	}
	d.recSet = rec
	if rec[d.Start] {
		d.recAny = true
		return
	}
	for t := range d.DescendantClosure([]string{d.Start}) {
		if rec[t] {
			d.recAny = true
			return
		}
	}
}

// IsRecursive reports whether the DTD has any recursive type reachable
// from the start symbol (vertical recursion: Cd is infinite iff this
// holds).
func (d *DTD) IsRecursive() bool {
	d.recOnce.Do(d.computeRecursive)
	return d.recAny
}

// MinHeights computes, for every type, the minimal height of a valid
// tree rooted at that type (a leaf element has height 1; text adds 0).
// Types admitting no finite valid tree map to -1. The fixpoint is
// memoized; the returned map is a shared read-only view and must not
// be mutated.
func (d *DTD) MinHeights() map[string]int {
	d.mhOnce.Do(func() { d.mh = d.computeMinHeights() })
	return d.mh
}

func (d *DTD) computeMinHeights() map[string]int {
	const inf = 1 << 30
	h := make(map[string]int, len(d.Types)+1)
	h[StringType] = 0
	for _, t := range d.Types {
		h[t] = inf
	}
	// Fixpoint: h(a) = 1 + min over words w in L(d(a)) of max h(sym).
	// The inner minimisation is done on the regex structure.
	var mh func(r *Regex) int
	mh = func(r *Regex) int {
		switch r.Op {
		case OpEpsilon:
			return 0
		case OpSym:
			return h[r.Sym]
		case OpSeq:
			m := 0
			for _, k := range r.Kids {
				if v := mh(k); v > m {
					m = v
				}
			}
			return m
		case OpAlt:
			m := inf
			for _, k := range r.Kids {
				if v := mh(k); v < m {
					m = v
				}
			}
			return m
		case OpStar, OpOpt:
			return 0
		case OpPlus:
			return mh(r.Kids[0])
		}
		panic(&guard.InternalError{Value: "dtd: bad regex op"})
	}
	for changed := true; changed; {
		changed = false
		for _, t := range d.Types {
			v := mh(d.Content[t])
			if v < inf && 1+v < h[t] {
				h[t] = 1 + v
				changed = true
			}
		}
	}
	for t, v := range h {
		if v >= inf {
			h[t] = -1
		}
	}
	return h
}

// String renders the DTD in the paper's compact notation, start symbol
// first.
func (d *DTD) String() string {
	var b strings.Builder
	for _, t := range d.Types {
		b.WriteString(t)
		if l := d.LabelOf(t); l != t {
			b.WriteByte('[')
			b.WriteString(l)
			b.WriteByte(']')
		}
		b.WriteString(" <- ")
		b.WriteString(d.Content[t].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Fingerprint returns a stable content hash of the schema (over the
// canonical compact rendering, which sorts types deterministically):
// two DTDs with the same declarations share a fingerprint regardless
// of how they were written. The serving layer keys its per-schema
// circuit breakers on it.
func (d *DTD) Fingerprint() string {
	d.fpOnce.Do(func() {
		sum := sha256.Sum256([]byte(d.String()))
		d.fp = hex.EncodeToString(sum[:16])
	})
	return d.fp
}

// GenerateTree builds a random tree valid w.r.t. d into a fresh store.
// pRepeat controls the expected repetition count of starred content;
// maxDepth bounds tree height (recursion is cut off by restricting to
// symbols whose minimal height fits the remaining budget). Text nodes
// get short pseudo-random words. It returns an error when the start
// symbol admits no finite tree.
func (d *DTD) GenerateTree(rng *rand.Rand, pRepeat float64, maxDepth int) (xmltree.Tree, error) {
	heights := d.MinHeights()
	if heights[d.Start] < 0 {
		return xmltree.Tree{}, fmt.Errorf("dtd: start symbol %q admits no finite document", d.Start)
	}
	s := xmltree.NewStore()
	var gen func(t string, budget int) xmltree.Loc
	gen = func(t string, budget int) xmltree.Loc {
		if t == StringType {
			return s.NewText(randWord(rng))
		}
		if min := heights[t]; budget < min {
			// Too deep to honour the budget: fall back to a minimal
			// subtree so generation always terminates.
			budget = min
		}
		el := s.NewElement(d.LabelOf(t))
		allow := func(sym string) bool {
			h := heights[sym]
			return h >= 0 && h <= budget-1
		}
		word := d.Content[t].Sample(rng, pRepeat, allow)
		for _, c := range word {
			s.AppendChild(el, gen(c, budget-1))
		}
		return el
	}
	root := gen(d.Start, maxDepth)
	return xmltree.NewTree(s, root), nil
}

func randWord(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 3 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
