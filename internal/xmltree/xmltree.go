// Package xmltree implements the XML data model of the paper
// (Bidoit-Tollu, Colazzo, Ulliana, "Type-Based Detection of XML
// Query-Update Independence", VLDB 2012, Section 2).
//
// An instance of the data model is a store σ: an environment
// associating each node location l with either an element node a[L]
// (a tag plus an ordered list of children locations) or a text node s.
// A tree is a pair (σ, l) of a store and a root location.
//
// Stores are mutable: the update semantics in package eval applies
// update pending lists by rewriting children lists in place. Locations
// are stable — a detached node keeps its location, it just becomes
// unreachable from the root (the paper's σu@lt discards disconnected
// locations only logically).
package xmltree

import (
	"fmt"
	"sort"
	"strings"

	"xqindep/internal/guard"
)

// Loc identifies a node in a Store. The zero value NilLoc is not a
// valid location.
type Loc int

// NilLoc is the absent location.
const NilLoc Loc = 0

// Kind discriminates element and text nodes.
type Kind int

const (
	// ElementKind marks element nodes a[L].
	ElementKind Kind = iota
	// TextKind marks text nodes s.
	TextKind
)

func (k Kind) String() string {
	switch k {
	case ElementKind:
		return "element"
	case TextKind:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// node is the store-internal representation of σ(l).
type node struct {
	kind     Kind
	tag      string // element tag, element nodes only
	text     string // text value, text nodes only
	parent   Loc    // NilLoc when detached or a root
	children []Loc  // element nodes only, ordered
}

// Store is the environment σ. The zero value is not usable; call
// NewStore.
type Store struct {
	nodes []node // index = int(Loc) - 1
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Size reports the number of locations ever allocated in the store,
// reachable or not.
func (s *Store) Size() int { return len(s.nodes) }

// Contains reports whether l is a location allocated in s.
func (s *Store) Contains(l Loc) bool { return l > 0 && int(l) <= len(s.nodes) }

func (s *Store) at(l Loc) *node {
	if !s.Contains(l) {
		panic(&guard.InternalError{Value: fmt.Sprintf("xmltree: location %d not in store", l)})
	}
	return &s.nodes[int(l)-1]
}

// NewElement allocates a fresh element node with the given tag and no
// children, and returns its location.
func (s *Store) NewElement(tag string) Loc {
	s.nodes = append(s.nodes, node{kind: ElementKind, tag: tag})
	return Loc(len(s.nodes))
}

// NewText allocates a fresh text node holding value and returns its
// location.
func (s *Store) NewText(value string) Loc {
	s.nodes = append(s.nodes, node{kind: TextKind, text: value})
	return Loc(len(s.nodes))
}

// IsElement reports whether l is an element node.
func (s *Store) IsElement(l Loc) bool { return s.at(l).kind == ElementKind }

// IsText reports whether l is a text node.
func (s *Store) IsText(l Loc) bool { return s.at(l).kind == TextKind }

// Tag returns the element tag of l; it panics when l is a text node.
func (s *Store) Tag(l Loc) string {
	n := s.at(l)
	if n.kind != ElementKind {
		panic(&guard.InternalError{Value: "xmltree: Tag on text node"})
	}
	return n.tag
}

// Text returns the text value of l; it panics when l is an element.
func (s *Store) Text(l Loc) string {
	n := s.at(l)
	if n.kind != TextKind {
		panic(&guard.InternalError{Value: "xmltree: Text on element node"})
	}
	return n.text
}

// Parent returns the parent location of l, or NilLoc when l has none.
func (s *Store) Parent(l Loc) Loc { return s.at(l).parent }

// Children returns the ordered children of l. Text nodes have none.
// The returned slice is a copy and may be retained by the caller.
func (s *Store) Children(l Loc) []Loc {
	n := s.at(l)
	if len(n.children) == 0 {
		return nil
	}
	out := make([]Loc, len(n.children))
	copy(out, n.children)
	return out
}

// ChildCount returns the number of children of l.
func (s *Store) ChildCount(l Loc) int { return len(s.at(l).children) }

// Child returns the i-th child of l.
func (s *Store) Child(l Loc, i int) Loc { return s.at(l).children[i] }

// SetTag renames the element at l to tag (the ren(l,a) elementary
// update command).
func (s *Store) SetTag(l Loc, tag string) {
	n := s.at(l)
	if n.kind != ElementKind {
		panic(&guard.InternalError{Value: "xmltree: SetTag on text node"})
	}
	n.tag = tag
}

// AppendChild appends child to parent's children list. The child must
// currently be detached (no parent); it panics otherwise, since a
// location has at most one parent in a store.
func (s *Store) AppendChild(parent, child Loc) {
	s.InsertChildren(parent, s.ChildCount(parent), []Loc{child})
}

// InsertChildren inserts the detached locations kids into parent's
// children list so that the first of them ends up at index i.
func (s *Store) InsertChildren(parent Loc, i int, kids []Loc) {
	p := s.at(parent)
	if p.kind != ElementKind {
		panic(&guard.InternalError{Value: "xmltree: insert under text node"})
	}
	if i < 0 || i > len(p.children) {
		panic(&guard.InternalError{Value: fmt.Sprintf("xmltree: insert index %d out of range [0,%d]", i, len(p.children))})
	}
	for _, k := range kids {
		kn := s.at(k)
		if kn.parent != NilLoc {
			panic(&guard.InternalError{Value: "xmltree: inserting a node that already has a parent"})
		}
		kn.parent = parent
	}
	p.children = append(p.children[:i:i], append(append([]Loc{}, kids...), p.children[i:]...)...)
}

// Detach removes l from its parent's children list and clears its
// parent pointer. Detaching an already detached node is a no-op.
func (s *Store) Detach(l Loc) {
	n := s.at(l)
	if n.parent == NilLoc {
		return
	}
	p := s.at(n.parent)
	for i, c := range p.children {
		if c == l {
			p.children = append(p.children[:i:i], p.children[i+1:]...)
			break
		}
	}
	n.parent = NilLoc
}

// IndexInParent returns the position of l in its parent's children
// list, or -1 when l is detached.
func (s *Store) IndexInParent(l Loc) int {
	n := s.at(l)
	if n.parent == NilLoc {
		return -1
	}
	for i, c := range s.at(n.parent).children {
		if c == l {
			return i
		}
	}
	return -1
}

// Root walks parent pointers from l up to the connected root.
func (s *Store) Root(l Loc) Loc {
	for {
		p := s.at(l).parent
		if p == NilLoc {
			return l
		}
		l = p
	}
}

// Tree is the pair t = (σ, lt) of a store and its root location.
type Tree struct {
	Store *Store
	Root  Loc
}

// NewTree wraps a store and root location.
func NewTree(s *Store, root Loc) Tree { return Tree{Store: s, Root: root} }

// Domain returns the set of locations connected to l (the domain of
// the subtree σ@l), in document order.
func (s *Store) Domain(l Loc) []Loc {
	var out []Loc
	s.Walk(l, func(x Loc) bool {
		out = append(out, x)
		return true
	})
	return out
}

// Walk visits l and all its descendants in document order, calling f
// on each; when f returns false the walk stops.
func (s *Store) Walk(l Loc, f func(Loc) bool) {
	stack := []Loc{l}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f(x) {
			return
		}
		kids := s.at(x).children
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
}

// Descendants returns all proper descendants of l in document order.
func (s *Store) Descendants(l Loc) []Loc {
	var out []Loc
	for _, c := range s.at(l).children {
		s.Walk(c, func(x Loc) bool {
			out = append(out, x)
			return true
		})
	}
	return out
}

// Ancestors returns the proper ancestors of l, nearest first.
func (s *Store) Ancestors(l Loc) []Loc {
	var out []Loc
	for p := s.at(l).parent; p != NilLoc; p = s.at(p).parent {
		out = append(out, p)
	}
	return out
}

// FollowingSiblings returns the siblings of l after it, in order.
func (s *Store) FollowingSiblings(l Loc) []Loc {
	n := s.at(l)
	if n.parent == NilLoc {
		return nil
	}
	sib := s.at(n.parent).children
	for i, c := range sib {
		if c == l {
			out := make([]Loc, len(sib)-i-1)
			copy(out, sib[i+1:])
			return out
		}
	}
	return nil
}

// PrecedingSiblings returns the siblings of l before it, in document
// order.
func (s *Store) PrecedingSiblings(l Loc) []Loc {
	n := s.at(l)
	if n.parent == NilLoc {
		return nil
	}
	sib := s.at(n.parent).children
	for i, c := range sib {
		if c == l {
			out := make([]Loc, i)
			copy(out, sib[:i])
			return out
		}
	}
	return nil
}

// pathFromRoot returns the child-index path from the connected root
// down to l; used for document-order comparison.
func (s *Store) pathFromRoot(l Loc) []int {
	var rev []int
	for {
		p := s.at(l).parent
		if p == NilLoc {
			break
		}
		rev = append(rev, s.IndexInParent(l))
		l = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// CompareDocOrder orders two locations of the same tree: -1 when a
// precedes b in document order, +1 when it follows, 0 when a == b.
// An ancestor precedes its descendants.
func (s *Store) CompareDocOrder(a, b Loc) int {
	if a == b {
		return 0
	}
	pa, pb := s.pathFromRoot(a), s.pathFromRoot(b)
	for i := 0; i < len(pa) && i < len(pb); i++ {
		switch {
		case pa[i] < pb[i]:
			return -1
		case pa[i] > pb[i]:
			return 1
		}
	}
	if len(pa) < len(pb) {
		return -1
	}
	return 1
}

// SortDocOrder sorts locs in document order in place and removes
// duplicates, returning the (possibly shorter) slice.
func (s *Store) SortDocOrder(locs []Loc) []Loc {
	if len(locs) < 2 {
		return locs
	}
	sort.Slice(locs, func(i, j int) bool { return s.CompareDocOrder(locs[i], locs[j]) < 0 })
	out := locs[:1]
	for _, l := range locs[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// Copy deep-copies the subtree rooted at src (which may live in a
// different store) into dst and returns the fresh, detached root
// location. This is the copy performed by XQuery element construction
// and by insert/replace sources.
func (dst *Store) Copy(src *Store, l Loc) Loc {
	n := src.at(l)
	if n.kind == TextKind {
		return dst.NewText(n.text)
	}
	el := dst.NewElement(n.tag)
	for _, c := range n.children {
		cc := dst.Copy(src, c)
		dst.at(cc).parent = el
		dn := dst.at(el)
		dn.children = append(dn.children, cc)
	}
	return el
}

// String renders the subtree at l as XML text (elements and text
// nodes only, no escaping of markup beyond the five predefined
// entities).
func (s *Store) String(l Loc) string {
	var b strings.Builder
	s.write(&b, l)
	return b.String()
}

func (s *Store) write(b *strings.Builder, l Loc) {
	n := s.at(l)
	if n.kind == TextKind {
		b.WriteString(escapeText(n.text))
		return
	}
	b.WriteByte('<')
	b.WriteString(n.tag)
	if len(n.children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.children {
		s.write(b, c)
	}
	b.WriteString("</")
	b.WriteString(n.tag)
	b.WriteByte('>')
}

func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
