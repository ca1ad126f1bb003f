package dtd

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"xqindep/internal/bitset"
	"xqindep/internal/guard"
)

var compBib = MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- first?, last?, email?
first <- #PCDATA
last <- #PCDATA
email <- #PCDATA
price <- #PCDATA
`)

var compRec = MustParse(`
r <- a
a <- (b, c, e)*
b <- f
c <- f
e <- f
f <- a, g
g <- ()
`)

func mustCompile(t *testing.T, d *DTD) *Compiled {
	t.Helper()
	c, err := NewCompiled(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompiledInterning(t *testing.T) {
	c := mustCompile(t, compBib)
	if c.NumSyms() != len(compBib.Types)+1 {
		t.Fatalf("NumSyms = %d", c.NumSyms())
	}
	// Symbol order is the DTD's canonical Types order, StringType last.
	for i, name := range compBib.Types {
		s, ok := c.SymOf(name)
		if !ok || s != SymID(i) || c.NameOf(s) != name {
			t.Errorf("SymOf(%q) = %d,%v", name, s, ok)
		}
	}
	if c.NameOf(c.StringSym()) != StringType {
		t.Errorf("StringSym name = %q", c.NameOf(c.StringSym()))
	}
	if c.NameOf(c.Start()) != "bib" {
		t.Errorf("Start name = %q", c.NameOf(c.Start()))
	}
	if _, ok := c.SymOf("nosuch"); ok {
		t.Error("SymOf on undeclared type succeeded")
	}
	if c.DTD() != compBib || c.Fingerprint() != compBib.Fingerprint() {
		t.Error("DTD/Fingerprint do not round-trip")
	}
}

func TestCompiledChildrenParentsMatchDTD(t *testing.T) {
	for _, d := range []*DTD{compBib, compRec} {
		c := mustCompile(t, d)
		for _, name := range d.Types {
			s, _ := c.SymOf(name)
			want := d.ChildTypes(name)
			var got []string
			for _, k := range c.Children(s) {
				got = append(got, c.NameOf(k))
			}
			if !reflect.DeepEqual(got, append([]string(nil), want...)) {
				t.Errorf("%s: Children(%s) = %v, want %v", d.Start, name, got, want)
			}
			for _, k := range want {
				ks, _ := c.SymOf(k)
				if !c.ChildSet(s).Has(int(ks)) {
					t.Errorf("%s: ChildSet(%s) missing %s", d.Start, name, k)
				}
			}
			if c.ChildSet(s).Count() != len(dedup(want)) {
				t.Errorf("%s: ChildSet(%s) count %d vs %v", d.Start, name, c.ChildSet(s).Count(), want)
			}
		}
		// Read backwards, the successor bitsets give exactly the
		// declared parents.
		for _, name := range append(append([]string(nil), d.Types...), StringType) {
			s, _ := c.SymOf(name)
			for _, p := range d.Types {
				ps, _ := c.SymOf(p)
				if got := c.ChildSet(ps).Has(int(s)); got != d.Reaches(p, name) {
					t.Errorf("%s: ChildSet(%s) has %s = %v, DTD says %v", d.Start, p, name, got, !got)
				}
			}
		}
	}
}

func dedup(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// symNames lists the type names of a symbol bitset, sorted.
func symNames(c *Compiled, set bitset.Set) []string {
	var out []string
	set.ForEach(func(s int) { out = append(out, c.NameOf(SymID(s))) })
	sort.Strings(out)
	return out
}

func TestCompiledSiblingsMatchDTD(t *testing.T) {
	for _, d := range []*DTD{compBib, compRec} {
		c := mustCompile(t, d)
		all := append(append([]string(nil), d.Types...), StringType)
		for _, parent := range d.Types {
			ps, _ := c.SymOf(parent)
			for _, x := range all {
				xs, _ := c.SymOf(x)
				wantF := d.FollowingSiblingTypes(parent, x)
				if gotF := symNames(c, c.FollowingSiblings(ps, xs)); !slices.Equal(gotF, wantF) {
					t.Errorf("%s: following(%s,%s) = %v, want %v", d.Start, parent, x, gotF, wantF)
				}
				wantP := d.PrecedingSiblingTypes(parent, x)
				if gotP := symNames(c, c.PrecedingSiblings(ps, xs)); !slices.Equal(gotP, wantP) {
					t.Errorf("%s: preceding(%s,%s) = %v, want %v", d.Start, parent, x, gotP, wantP)
				}
			}
		}
		a, _ := c.SymOf(d.Types[0])
		if c.FollowingSiblings(c.StringSym(), a) != nil || c.PrecedingSiblings(c.StringSym(), a) != nil {
			t.Error("string type must have no sibling order")
		}
	}
}

func TestCompiledRecursionHeightsLabels(t *testing.T) {
	c := mustCompile(t, compRec)
	rec := compRec.RecursiveTypes()
	if c.RecursiveCount() != len(rec) {
		t.Errorf("RecursiveCount = %d, want %d", c.RecursiveCount(), len(rec))
	}
	// Plain DTD: every type labels itself; labels index the type.
	for _, name := range compRec.Types {
		s, _ := c.SymOf(name)
		set := c.LabelSyms(name)
		if set == nil || !set.Has(int(s)) || set.Count() != 1 {
			t.Errorf("LabelSyms(%s) = %v", name, set)
		}
	}
	if c.LabelSyms("nosuch") != nil {
		t.Error("LabelSyms on unknown label non-nil")
	}
}

func TestCompiledExtendedLabels(t *testing.T) {
	// An EDTD where two types share a label: µ⁻¹ must group them.
	d, err := Parse(`
doc <- a1, a2
a1[a] <- #PCDATA
a2[a] <- ()
`)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, d)
	set := c.LabelSyms("a")
	if set == nil || set.Count() != 2 {
		t.Fatalf("LabelSyms(a) = %v", set)
	}
	s1, _ := c.SymOf("a1")
	s2, _ := c.SymOf("a2")
	if !set.Has(int(s1)) || !set.Has(int(s2)) {
		t.Errorf("LabelSyms(a) misses a type: %v", set)
	}
	if c.LabelSyms("a1") != nil {
		t.Error("type name with a foreign label must not be a label")
	}
}

func TestCompiledSymbolLimit(t *testing.T) {
	var b strings.Builder
	b.WriteString("root <- ()\n")
	for i := 0; i < MaxCompiledTypes; i++ {
		fmt.Fprintf(&b, "t%04d <- ()\n", i)
	}
	d := MustParse(b.String())
	_, err := NewCompiled(d)
	if err == nil {
		t.Fatal("compiling an oversized schema must fail")
	}
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "symbols" {
		t.Fatalf("err = %v, want symbols LimitError", err)
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err %v must unwrap to ErrBudgetExceeded", err)
	}
}

func TestCompileCacheCounters(t *testing.T) {
	cc := newCompileCache(1)
	c1, err := compileIn(cc, compBib)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compileIn(cc, compBib)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("second Get must return the resident artifact")
	}
	// A semantically identical schema written differently shares the
	// fingerprint, so it hits.
	same := MustParse(compBib.String())
	if c3, err := compileIn(cc, same); err != nil || c3 != c1 {
		t.Errorf("fingerprint-equal schema missed the cache (err %v)", err)
	}
	// A different schema evicts at capacity 1.
	if _, err := compileIn(cc, compRec); err != nil {
		t.Fatal(err)
	}
	st := statsOf(cc)
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Resident != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Schemas) != 1 || st.Schemas[0].Fingerprint != compRec.Fingerprint() ||
		st.Schemas[0].Types != len(compRec.Types) || !st.Schemas[0].Recursive {
		t.Errorf("schemas = %+v", st.Schemas)
	}
	// Compile errors are reported, not cached as artifacts.
	var b strings.Builder
	b.WriteString("root <- ()\n")
	for i := 0; i < MaxCompiledTypes; i++ {
		fmt.Fprintf(&b, "t%04d <- ()\n", i)
	}
	if _, err := compileIn(cc, MustParse(b.String())); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("oversized schema through cache: %v", err)
	}
}

func TestCompileCacheConcurrent(t *testing.T) {
	cc := newCompileCache(8)
	var wg sync.WaitGroup
	got := make([]*Compiled, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := compileIn(cc, compRec)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for _, c := range got[1:] {
		if c != got[0] {
			t.Fatal("concurrent Gets returned distinct artifacts")
		}
	}
	st := cc.Stats()
	if st.Resident != 1 || st.Hits+st.Misses != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPackageCompileShared(t *testing.T) {
	a, err := Compile(compBib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(compBib)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("package-level Compile must share one artifact per fingerprint")
	}
	if CompileCacheStats().Resident < 1 {
		t.Error("default cache reports no residents")
	}
}
