package chain

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"", "doc", "doc.a.c", "bib.book.title"}
	for _, s := range cases {
		if got := MustParseChain(s).String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	c := New("doc", "a", "c")
	if c.String() != "doc.a.c" || c.Len() != 3 || c.Last() != "c" {
		t.Errorf("basic accessors broken: %v", c)
	}
	if c.Parent().String() != "doc.a" {
		t.Errorf("Parent = %v", c.Parent())
	}
	if !MustParseChain("").IsEmpty() || c.IsEmpty() {
		t.Errorf("IsEmpty wrong")
	}
}

func TestConcatExtendFresh(t *testing.T) {
	c := New("a", "b")
	d := c.Concat(New("c"))
	e := c.Extend("x")
	if d.String() != "a.b.c" || e.String() != "a.b.x" {
		t.Errorf("concat/extend wrong: %v %v", d, e)
	}
	if c.String() != "a.b" {
		t.Errorf("argument mutated: %v", c)
	}
	// Appending to one result must not clobber the other.
	_ = append([]string(d), "zzz")
	if e.String() != "a.b.x" {
		t.Errorf("aliasing between Concat results")
	}
}

func TestPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "a.b", true},
		{"a", "a.b", true},
		{"a.b", "a.b", true},
		{"a.b", "a", false},
		{"a.c", "a.b", false},
		{"bib.book", "bib.book.title", true},
		{"bib.book.author", "bib.book.title", false},
	}
	for _, c := range cases {
		if got := MustParseChain(c.a).IsPrefixOf(MustParseChain(c.b)); got != c.want {
			t.Errorf("IsPrefixOf(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestPrefixPartialOrder property-checks reflexivity, antisymmetry and
// transitivity of ⪯ on random short chains.
func TestPrefixPartialOrder(t *testing.T) {
	gen := func(r *rand.Rand) Chain {
		n := r.Intn(5)
		c := make(Chain, n)
		for i := range c {
			c[i] = string(rune('a' + r.Intn(3)))
		}
		return c
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		if !a.IsPrefixOf(a) {
			t.Fatalf("not reflexive: %v", a)
		}
		if a.IsPrefixOf(b) && b.IsPrefixOf(a) && !a.Equal(b) {
			t.Fatalf("not antisymmetric: %v %v", a, b)
		}
		if a.IsPrefixOf(b) && b.IsPrefixOf(c) && !a.IsPrefixOf(c) {
			t.Fatalf("not transitive: %v %v %v", a, b, c)
		}
	}
}

func TestUpdateChain(t *testing.T) {
	u := MustParseUpdateChain("bib.book:author.first")
	if u.Target.String() != "bib.book" || u.Change.String() != "author.first" {
		t.Errorf("parse wrong: %v", u)
	}
	if u.Full().String() != "bib.book.author.first" {
		t.Errorf("Full = %v", u.Full())
	}
	if u.String() != "bib.book:author.first" {
		t.Errorf("String = %q", u.String())
	}
	if !u.Equal(NewUpdate(New("bib", "book"), New("author", "first"))) {
		t.Errorf("Equal broken")
	}
	if u.Equal(MustParseUpdateChain("bib.book:author")) {
		t.Errorf("Equal too lax")
	}
}

func TestSet(t *testing.T) {
	s := NewSet(MustParseChain("doc.a"), MustParseChain("doc.b"), MustParseChain("doc.a"))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", s.Len())
	}
	if !s.Contains(MustParseChain("doc.a")) || s.Contains(MustParseChain("doc.c")) {
		t.Errorf("Contains wrong")
	}
	if got := s.Strings(); !reflect.DeepEqual(got, []string{"doc.a", "doc.b"}) {
		t.Errorf("Strings = %v", got)
	}
	s2 := NewSet(MustParseChain("doc.c"))
	u := Union(s, s2)
	if u.Len() != 3 {
		t.Errorf("Union len = %d", u.Len())
	}
	if u.String() != "{doc.a, doc.b, doc.c}" {
		t.Errorf("String = %q", u.String())
	}
	var zero Set
	if zero.Len() != 0 || !zero.IsEmpty() {
		t.Errorf("zero Set not empty")
	}
	zero.Add(MustParseChain("x"))
	if zero.Len() != 1 {
		t.Errorf("zero Set Add failed")
	}
	var nilSet *Set
	if nilSet.Len() != 0 || nilSet.Contains(MustParseChain("x")) || nilSet.Chains() != nil {
		t.Errorf("nil Set accessors broken")
	}
}

func TestSetAddCopies(t *testing.T) {
	c := New("a", "b")
	s := NewSet(c)
	c[0] = "ZZZ"
	if !s.Contains(New("a", "b")) {
		t.Errorf("Set aliased caller's chain")
	}
}

// TestConflictsPaperExamples replays the two introduction examples.
func TestConflictsPaperExamples(t *testing.T) {
	// q1 = //a//c, u1 = delete //b//c over {doc<-(a|b)*, a<-c, b<-c}:
	// chains doc.a.c vs doc.b.c are disjoint -> no conflict.
	q1 := NewSet(MustParseChain("doc.a.c"))
	u1 := NewSet(MustParseChain("doc.b.c"))
	if len(Conflicts(q1, u1)) > 0 || len(Conflicts(u1, q1)) > 0 {
		t.Errorf("q1/u1 should not conflict")
	}
	// q2 = //title, u2 inserts author into book:
	// bib.book.title vs bib.book.author diverge after book.
	q2 := NewSet(MustParseChain("bib.book.title"))
	u2 := NewSet(MustParseUpdateChain("bib.book:author").Full())
	if len(Conflicts(q2, u2)) > 0 || len(Conflicts(u2, q2)) > 0 {
		t.Errorf("q2/u2 should not conflict")
	}
	// But an update deleting book conflicts with q2.
	u3 := NewSet(MustParseUpdateChain("bib:book").Full())
	pairs := Conflicts(u3, q2)
	if len(pairs) != 1 || pairs[0].String() != "bib.book ⪯ bib.book.title" {
		t.Errorf("Conflicts = %v", pairs)
	}
}

func TestConflictsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func() *Set {
		s := NewSet()
		for i := 0; i < 5; i++ {
			n := 1 + rng.Intn(4)
			c := make(Chain, n)
			for j := range c {
				c[j] = string(rune('a' + rng.Intn(2)))
			}
			s.Add(c)
		}
		return s
	}
	for trial := 0; trial < 100; trial++ {
		t1, t2 := gen(), gen()
		want := false
		for _, c1 := range t1.Chains() {
			for _, c2 := range t2.Chains() {
				if c1.IsPrefixOf(c2) {
					want = true
				}
			}
		}
		if got := len(Conflicts(t1, t2)) > 0; got != want {
			t.Fatalf("Conflicts(%v,%v) non-empty = %v, want %v", t1, t2, got, want)
		}
	}
}
