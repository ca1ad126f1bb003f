package dtd

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

const verifySchema = `lib <- book*
book <- (title, author*, note?)
title <- #PCDATA
author <- #PCDATA
note <- (note | title)*`

func compiledFor(t *testing.T, src string) *Compiled {
	t.Helper()
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCompiled(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVerifyFreshArtifact(t *testing.T) {
	c := compiledFor(t, verifySchema)
	if err := c.Verify(); err != nil {
		t.Fatalf("fresh artifact fails Verify: %v", err)
	}
	if c.Checksum() == 0 {
		t.Fatal("checksum not stamped")
	}
}

func TestChecksumDeterministic(t *testing.T) {
	a := compiledFor(t, verifySchema)
	b := compiledFor(t, verifySchema)
	if a.Checksum() != b.Checksum() {
		t.Fatalf("checksums differ for identical schemas: %x vs %x", a.Checksum(), b.Checksum())
	}
	other := compiledFor(t, "r <- a*\na <- #PCDATA")
	if a.Checksum() == other.Checksum() {
		t.Fatal("distinct schemas share a checksum")
	}
}

func TestWithCorruptionFailsVerify(t *testing.T) {
	c := compiledFor(t, verifySchema)
	for seed := int64(1); seed <= 16; seed++ {
		bad := c.WithCorruption(seed)
		if err := bad.Verify(); err == nil {
			t.Fatalf("seed %d: corrupted artifact passes Verify", seed)
		}
		// The original must stay intact: corruption clones the tables.
		if err := c.Verify(); err != nil {
			t.Fatalf("seed %d: corruption leaked into the original: %v", seed, err)
		}
	}
}

// TestVerifyRejectsTamperedTables writes one entry of each sealed table
// of a private copy and checks Verify catches it. Each write keeps the
// structural invariants, so only the checksum can.
func TestVerifyRejectsTamperedTables(t *testing.T) {
	c := compiledFor(t, verifySchema)
	lib, _ := c.SymOf("lib")
	book, _ := c.SymOf("book")
	title, _ := c.SymOf("title")
	author, _ := c.SymOf("author")
	cases := []struct {
		name   string
		tamper func(cc *Compiled)
	}{
		{"symbols", func(cc *Compiled) {
			// Renamed consistently in both directions of the interning.
			cc.syms = slices.Clone(cc.syms)
			cc.syms[title] = "heading"
			cc.index = maps.Clone(cc.index)
			delete(cc.index, "title")
			cc.index["heading"] = title
		}},
		{"start", func(cc *Compiled) { cc.start = book }},
		{"string symbol", func(cc *Compiled) {
			// Swapped with title in both directions of the interning.
			str := cc.stringSym
			cc.syms = slices.Clone(cc.syms)
			cc.syms[str], cc.syms[title] = cc.syms[title], cc.syms[str]
			cc.index = maps.Clone(cc.index)
			cc.index["title"], cc.index[StringType] = str, title
			cc.stringSym = title
		}},
		{"child list", func(cc *Compiled) {
			cc.children = slices.Clone(cc.children)
			cc.children[book] = slices.Clone(cc.children[book])
			slices.Reverse(cc.children[book])
		}},
		{"childSet", func(cc *Compiled) {
			// A trailing zero word changes no member.
			cc.childSet = slices.Clone(cc.childSet)
			cc.childSet[lib] = append(cc.childSet[lib].Clone(), 0)
		}},
		{"follow row", func(cc *Compiled) {
			cc.follow = slices.Clone(cc.follow)
			cc.follow[book] = maps.Clone(cc.follow[book])
			s := cc.follow[book][title].Clone()
			s.Add(int(title))
			cc.follow[book][title] = s
		}},
		{"precede row", func(cc *Compiled) {
			cc.precede = slices.Clone(cc.precede)
			cc.precede[book] = maps.Clone(cc.precede[book])
			s := cc.precede[book][author].Clone()
			s.Remove(int(title))
			cc.precede[book][author] = s
		}},
		{"byLabel", func(cc *Compiled) {
			cc.byLabel = maps.Clone(cc.byLabel)
			row := cc.byLabel["author"].Clone()
			row.Remove(int(author))
			cc.byLabel["author"] = row
		}},
		{"recursive", func(cc *Compiled) { cc.recCount++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc := *c
			tc.tamper(&cc)
			if err := cc.Verify(); err == nil {
				t.Fatal("tampered copy passes Verify")
			}
		})
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("original damaged by tampering its copies: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = c.Verify() }); n != 0 {
		t.Fatalf("Verify allocates %v times per call, want 0", n)
	}
}

func TestVerifyDetectsStructuralDamage(t *testing.T) {
	c := compiledFor(t, verifySchema)
	// Flip a successor bit directly (stale checksum and a child list
	// that no longer matches its bitset): Verify must fail either way.
	last := len(c.syms) - 1
	if c.childSet[0].Has(last) {
		c.childSet[0].Remove(last)
	} else {
		c.childSet[0].Add(last)
	}
	err := c.Verify()
	if err == nil {
		t.Fatal("damaged successor table passes Verify")
	}
	if !strings.Contains(err.Error(), "compiled artifact") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}
