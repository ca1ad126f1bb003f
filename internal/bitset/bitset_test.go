package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

func collect(s Set) []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

func TestAddHasRemove(t *testing.T) {
	var s Set
	if s.Has(0) || s.Any() || s.Count() != 0 {
		t.Fatal("zero set not empty")
	}
	if !s.Add(3) {
		t.Error("Add(3) not new")
	}
	if s.Add(3) {
		t.Error("Add(3) twice reported new")
	}
	if !s.Add(200) {
		t.Error("Add(200) not new")
	}
	if got := collect(s); !reflect.DeepEqual(got, []int{3, 200}) {
		t.Errorf("bits = %v", got)
	}
	s.Remove(3)
	s.Remove(9999) // out of range: no-op
	if got := collect(s); !reflect.DeepEqual(got, []int{200}) {
		t.Errorf("after remove = %v", got)
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestAndIntersects(t *testing.T) {
	var a, b Set
	for _, i := range []int{0, 5, 70, 128} {
		a.Add(i)
	}
	for _, i := range []int{5, 128, 300} {
		b.Add(i)
	}
	x := make(Set, len(a))
	if n := x.AndOf(a, b); n != 2 {
		t.Errorf("AndOf count = %d, want 2", n)
	}
	if got := collect(x); !reflect.DeepEqual(got, []int{5, 128}) {
		t.Errorf("AndOf = %v", got)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects false negative")
	}
	var c Set
	c.Add(9)
	if a.Intersects(c) {
		t.Error("Intersects false positive")
	}
	a.AndOf(a, b) // in place: s may alias an operand
	if got := collect(a); !reflect.DeepEqual(got, []int{5, 128}) {
		t.Errorf("AndOf in place = %v", got)
	}
	// AndOf against a shorter operand zeroes the tail.
	var d Set
	d.Add(1)
	d.Add(400)
	var e Set
	e.Add(1)
	d.AndOf(d, e)
	if got := collect(d); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("AndOf tail = %v", got)
	}
}

// TestFixedWidthHelpers: OrCount and Clear write a view in place, never
// grow it, and OrCount reports the operand's popcount (the CDAG budget
// charge), not the newly set bits.
func TestFixedWidthHelpers(t *testing.T) {
	slab := make([]uint64, 6)
	row := Set(slab[2:4:4])
	var src Set
	src.Add(3)
	src.Add(70)
	if n := row.OrCount(src); n != 2 {
		t.Errorf("OrCount = %d, want 2", n)
	}
	if n := row.OrCount(src); n != 2 {
		t.Errorf("repeat OrCount = %d, want the operand's 2 bits again", n)
	}
	if got := collect(Set(slab)); !reflect.DeepEqual(got, []int{128 + 3, 128 + 70}) {
		t.Errorf("slab after OrCount into its row = %v", got)
	}
	row.Clear()
	if Set(slab).Any() {
		t.Errorf("Clear left bits: %v", collect(Set(slab)))
	}
	if len(row) != 2 || cap(row) != 2 {
		t.Errorf("helpers resized the view: len %d cap %d", len(row), cap(row))
	}
}

func TestEqualLengthTolerant(t *testing.T) {
	var a, b Set
	a.Add(7)
	b.Add(7)
	b.Add(700)
	b.Remove(700) // leaves trailing zero words
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal must ignore trailing zero words")
	}
	b.Add(8)
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
	if !Set(nil).Equal(Set(nil)) {
		t.Error("nil sets must be equal")
	}
}

func TestCloneIndependent(t *testing.T) {
	var a Set
	a.Add(42)
	c := a.Clone()
	c.Add(43)
	if a.Has(43) {
		t.Error("Clone aliases the original")
	}
	if Set(nil).Clone() != nil {
		t.Error("nil Clone must stay nil")
	}
}

func TestNewPresized(t *testing.T) {
	s := New(129)
	if len(s) != 3 {
		t.Errorf("New(129) words = %d", len(s))
	}
	if New(0) != nil || New(-1) != nil {
		t.Error("New(<=0) must be nil")
	}
}

func TestOrAnd(t *testing.T) {
	var a, b Set
	for _, i := range []int{0, 5, 70, 128} {
		a.Add(i)
	}
	for _, i := range []int{5, 128, 300} {
		b.Add(i)
	}
	var s Set
	s.Add(9)
	s.OrAnd(a, b)
	if got := collect(s); !reflect.DeepEqual(got, []int{5, 9, 128}) {
		t.Errorf("OrAnd = %v", got)
	}
	// Accumulation: a second OrAnd unions on top of the first.
	var c Set
	c.Add(0)
	s.OrAnd(a, c)
	if got := collect(s); !reflect.DeepEqual(got, []int{0, 5, 9, 128}) {
		t.Errorf("accumulated OrAnd = %v", got)
	}
	// Empty operands leave the target untouched (and never grow it).
	s.OrAnd(nil, b)
	s.OrAnd(a, nil)
	if got := collect(s); !reflect.DeepEqual(got, []int{0, 5, 9, 128}) {
		t.Errorf("OrAnd with empty operand = %v", got)
	}
}

func TestIntersectsAll(t *testing.T) {
	var a, b, c Set
	for _, i := range []int{3, 70, 200} {
		a.Add(i)
	}
	for _, i := range []int{70, 200} {
		b.Add(i)
	}
	c.Add(200)
	if !IntersectsAll(a, b, c) {
		t.Error("IntersectsAll false negative")
	}
	c.Remove(200)
	c.Add(70)
	if !IntersectsAll(a, b, c) {
		t.Error("IntersectsAll false negative at word 1")
	}
	c.Remove(70)
	c.Add(3) // in a only
	if IntersectsAll(a, b, c) {
		t.Error("IntersectsAll false positive: pairwise but not three-way")
	}
	if IntersectsAll(a, b, nil) || IntersectsAll(nil, nil, nil) {
		t.Error("IntersectsAll with an empty operand must be false")
	}
}

func TestOrAndRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var a, b, s Set
		ref := map[int]bool{}
		for i := 0; i < 40; i++ {
			a.Add(rng.Intn(256))
			b.Add(rng.Intn(256))
			n := rng.Intn(256)
			s.Add(n)
			ref[n] = true
		}
		want3 := false
		for i := 0; i < 256; i++ {
			if a.Has(i) && b.Has(i) {
				ref[i] = true
			}
			if a.Has(i) && b.Has(i) && s.Has(i) {
				want3 = true
			}
		}
		if IntersectsAll(a, b, s) != want3 {
			t.Fatalf("trial %d: IntersectsAll disagrees with reference", trial)
		}
		s.OrAnd(a, b)
		if s.Count() != len(ref) {
			t.Fatalf("trial %d: OrAnd count = %d, reference %d", trial, s.Count(), len(ref))
		}
		for i := range ref {
			if !s.Has(i) {
				t.Fatalf("trial %d: OrAnd missing bit %d", trial, i)
			}
		}
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Set
	ref := map[int]bool{}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(512)
		switch rng.Intn(3) {
		case 0:
			if s.Add(n) == ref[n] {
				t.Fatalf("Add(%d) newness disagrees with reference", n)
			}
			ref[n] = true
		case 1:
			s.Remove(n)
			delete(ref, n)
		case 2:
			if s.Has(n) != ref[n] {
				t.Fatalf("Has(%d) disagrees with reference", n)
			}
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, reference %d", s.Count(), len(ref))
	}
}
