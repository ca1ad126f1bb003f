package cdag

import (
	"math/rand"
	"reflect"
	"testing"

	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/infer"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

var (
	figure1 = dtd.MustParse(`
doc <- (a | b)*
a <- c
b <- c
c <- ()
`)
	bib = dtd.MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- first?, last?, email?
first <- #PCDATA
last <- #PCDATA
email <- #PCDATA
price <- #PCDATA
`)
	d1 = dtd.MustParse(`
r <- a
a <- (b, c, e)*
b <- f
c <- f
e <- f
f <- a, g
g <- ()
`)
	// figure2 is the schema behind the CDAG illustration of Section 6.1.
	figure2 = dtd.MustParse(`
a <- b?, d?
b <- c?
d <- c?
c <- e?, f?
e <- ()
f <- ()
`)
)

func TestSingletonAndChains(t *testing.T) {
	e := NewEngine(figure1, 1, 0)
	s := e.SingletonSet(chain.MustParseChain("doc.a.c"))
	if got := s.Strings(0); !reflect.DeepEqual(got, []string{"doc.a.c"}) {
		t.Errorf("singleton chains = %v", got)
	}
	if s.IsEmpty() || s.EndCount() != 1 {
		t.Errorf("singleton shape wrong")
	}
	if got := e.NewSet().Strings(0); len(got) != 0 {
		t.Errorf("empty set chains = %v", got)
	}
}

// TestFigure2NoArtifacts replays the Figure 2 discussion: per-set DAGs
// keep q1 = //c/e and q2 = /a/d/c/f apart, and q1's own merge of
// a.b.c.e and a.d.c.e does not fabricate a.b.c.f.
func TestFigure2NoArtifacts(t *testing.T) {
	e := NewEngine(figure2, 2, 0)
	q1 := e.Query(e.RootEnv(), xquery.MustParseQuery("//c/e"))
	q2 := e.Query(e.RootEnv(), xquery.MustParseQuery("/a/d/c/f"))
	want1 := []string{"a.b.c.e", "a.d.c.e"}
	if got := q1.Ret.Strings(0); !reflect.DeepEqual(got, want1) {
		t.Errorf("q1 chains = %v, want %v", got, want1)
	}
	if got := q2.Ret.Strings(0); !reflect.DeepEqual(got, []string{"a.d.c.f"}) {
		t.Errorf("q2 chains = %v", got)
	}
	// Backward navigation from q2's endpoint stays within q2's DAG:
	// ancestor::* from a.d.c.f never reaches a b node.
	q2b := e.Query(e.RootEnv(), xquery.MustParseQuery("for $x in /a/d/c/f return $x/ancestor::b"))
	if !q2b.Ret.IsEmpty() {
		t.Errorf("backward navigation leaked into foreign chains: %v", q2b.Ret)
	}
}

func TestStepOverDAGMatchesSetEngine(t *testing.T) {
	// For a battery of queries over non-recursive schemas, the CDAG
	// chain sets coincide exactly with the explicit-set engine. The
	// engines are inferred on normalized ASTs for a fair comparison.
	queries := []string{
		"//a//c", "//c", "/doc/a", "//c/..", "//b/following-sibling::a",
		"//a/preceding-sibling::b", "/doc",
		"for $x in //a return $x/c",
		"for $x in //node() return if ($x/c) then $x else ()",
	}
	for _, qs := range queries {
		q := xquery.MustParseQuery(qs)
		ce := NewEngine(figure1, 2, 0)
		cc := ce.Query(ce.RootEnv(), q)
		ie := infer.New(figure1, 2)
		ic := ie.Query(ie.RootEnv(), q)
		if got, want := cc.Ret.Strings(0), ic.Ret.Strings(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CDAG ret %v, set ret %v", qs, got, want)
		}
		if got, want := cc.Used.Strings(0), ic.Used.Strings(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CDAG used %v, set used %v", qs, got, want)
		}
	}
	// Purely navigational upward bodies are processed set-wise by the
	// CDAG engine ((STEPUH) granularity): binding chains subsumed by
	// the step's productive contexts and returns. The reference engine
	// follows the printed (FOR) rule and also records the outer
	// bindings, so the CDAG used set is a (sound) subset there.
	q := xquery.MustParseQuery("//c/ancestor::node()")
	ce := NewEngine(figure1, 2, 0)
	cc := ce.Query(ce.RootEnv(), q)
	ie := infer.New(figure1, 2)
	ic := ie.Query(ie.RootEnv(), q)
	if got, want := cc.Ret.Strings(0), ic.Ret.Strings(); !reflect.DeepEqual(got, want) {
		t.Errorf("ancestor ret: CDAG %v, set %v", got, want)
	}
	if got, want := cc.Used.Strings(0), []string{"doc.a.c", "doc.b.c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ancestor used: CDAG %v, want %v", got, want)
	}
	setUsed := chain.NewSet()
	for _, c := range ic.Used.Chains() {
		setUsed.Add(c)
	}
	for _, c := range cc.Used.Chains(0) {
		if !setUsed.Contains(c) {
			t.Errorf("CDAG used chain %v not among reference used chains %v", c, ic.Used)
		}
	}
}

func TestUpdateDAGPaperExamples(t *testing.T) {
	e := NewEngine(figure1, 2, 0)
	u1 := e.Update(e.RootEnv(), xquery.MustParseUpdate("delete //b//c"))
	if got := u1.Full.Strings(0); !reflect.DeepEqual(got, []string{"doc.b.c"}) {
		t.Errorf("u1 full chains = %v", got)
	}
	cSym, _ := e.C.SymOf("c")
	bSym, _ := e.C.SymOf("b")
	if !u1.ChangeRegion.Has(Node{2, cSym}) {
		t.Errorf("u1 change region misses 2:c")
	}
	if u1.ChangeRegion.Has(Node{1, bSym}) {
		t.Errorf("target prefix wrongly in change region")
	}

	e2 := NewEngine(bib, 2, 1)
	u2 := e2.Update(e2.RootEnv(), xquery.MustParseUpdate("for $x in //book return insert <author/> into $x"))
	if got := u2.Full.Strings(0); !reflect.DeepEqual(got, []string{"bib.book.author"}) {
		t.Errorf("u2 full chains = %v", got)
	}
}

func TestCDAGIndependencePaperExamples(t *testing.T) {
	cases := []struct {
		name string
		d    *dtd.DTD
		q, u string
		want bool
	}{
		{"q1-u1", figure1, "//a//c", "delete //b//c", true},
		{"q1-u1-dep", figure1, "//a//c", "delete //a//c", false},
		{"q2-u2", bib, "//title", "for $x in //book return insert <author/> into $x", true},
		{"author-email", bib, "//author/email",
			"for $x in //book return insert <author><first>U</first><last>E</last></author> into $x", true},
		{"author-first", bib, "//author/first",
			"for $x in //book return insert <author><first>U</first></author> into $x", false},
		{"delete-book", bib, "//title", "delete //book", false},
		{"recursive-dep", d1, "/descendant::b", "delete /descendant::c", false},
		{"recursive-indep", d1, "/r/a/e", "delete /r/a/b", true},
		{"cond-insert", bib, "for $b in //book return if ($b/author) then $b/title else ()",
			"for $x in //book return insert <author><first>U</first></author> into $x", false},
	}
	for _, c := range cases {
		q := xquery.MustParseQuery(c.q)
		u := xquery.MustParseUpdate(c.u)
		v := Independence(c.d, q, u)
		if v.Independent != c.want {
			t.Errorf("%s: CDAG says %v, want %v (reasons %v; q ret %v used %v; u %v)",
				c.name, v.Independent, c.want, v.Reasons,
				v.Query.Ret.Strings(12), v.Query.Used.Strings(12), v.Update.Full.Strings(12))
		}
	}
}

// TestCDAGConservativeVsSetEngine checks the designed relationship:
// whenever the CDAG analysis concludes independence, the explicit-set
// analysis does too (the CDAG may only be more conservative).
func TestCDAGConservativeVsSetEngine(t *testing.T) {
	schemas := []*dtd.DTD{figure1, bib, figure2}
	queries := []string{
		"//a//c", "//c", "/doc", "//title", "//author/email", "//c/e",
		"//c/..", "for $x in //node() return if ($x/e) then $x/f else ()",
		"//b/following-sibling::node()",
	}
	updates := []string{
		"delete //b//c", "delete //c", "delete //author",
		"for $x in //book return insert <author/> into $x",
		"for $x in //c return rename $x as e",
		"for $x in //c/e return replace $x with <f/>",
		"()",
	}
	for _, d := range schemas {
		for _, qs := range queries {
			q := xquery.MustParseQuery(qs)
			for _, us := range updates {
				u := xquery.MustParseUpdate(us)
				cv := Independence(d, q, u)
				iv := infer.Independence(d, q, u)
				if cv.Independent && !iv.Independent {
					t.Errorf("CDAG more liberal than set engine for q=%s u=%s", qs, us)
				}
			}
		}
	}
}

// TestCDAGSoundnessDifferential mirrors the set engine's soundness
// test: CDAG independence must never contradict runtime execution.
func TestCDAGSoundnessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schemas := []*dtd.DTD{figure1, bib, d1, figure2}
	queries := []string{
		"//a//c", "//c", "//title", "//author/email", "//c/e", "//b",
		"/descendant::g", "//c/..", "for $x in //node() return if ($x/b) then $x else ()",
	}
	updates := []string{
		"delete //b//c", "delete //c", "delete //b",
		"for $x in //book return insert <author/> into $x",
		"for $x in //b return rename $x as zz",
		"delete /descendant::c",
	}
	for _, d := range schemas {
		var trees []xmltree.Tree
		for i := 0; i < 8; i++ {
			tr, err := d.GenerateTree(rng, 0.55, 6)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tr)
		}
		for _, qs := range queries {
			q := xquery.MustParseQuery(qs)
			for _, us := range updates {
				u := xquery.MustParseUpdate(us)
				// Skip updates renaming/inserting tags the schema does
				// not declare only when inference would reject; the
				// analysis itself must stay sound regardless.
				v := Independence(d, q, u)
				if !v.Independent {
					continue
				}
				if i := eval.DependentOnAny(trees, q, u); i >= 0 {
					t.Errorf("UNSOUND CDAG verdict for q=%s u=%s on %s\ndoc: %s",
						qs, us, d.Start, trees[i].Store.String(trees[i].Root))
				}
			}
		}
	}
}

// TestEngineDepthBound: the depth bound is #nonrecursive + extraTags +
// k·#recursive + 2, and no chain is longer. d1 has two non-recursive
// types (r, g) and five recursive ones (a, b, c, e, f).
func TestEngineDepthBound(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, extras := range []int{0, 1, 4} {
			e := NewEngine(d1, k, extras)
			if want := 2 + extras + k*5 + 2; e.MaxDepth != want {
				t.Errorf("k=%d, %d extra tags: MaxDepth %d, want %d", k, extras, e.MaxDepth, want)
			}
			if e.K != k {
				t.Errorf("K = %d, want %d", e.K, k)
			}
			desc, _ := e.RootSet().Step(xquery.Descendant, xquery.AnyNode())
			deepest := 0
			for _, end := range desc.Ends() {
				deepest = max(deepest, end.Depth)
			}
			// d1 recurses without end, so the descendants reach the
			// bound and stop there.
			if deepest != e.MaxDepth {
				t.Errorf("k=%d, %d extra tags: deepest descendant at %d, bound %d", k, extras, deepest, e.MaxDepth)
			}
		}
	}
}

func TestSuffixExtensions(t *testing.T) {
	e := NewEngine(bib, 1, 1)
	ext := e.suffixExtensions(e.internSym("author"), e.MaxDepth)
	want := []string{"author", "author.email", "author.email.S", "author.first",
		"author.first.S", "author.last", "author.last.S"}
	if got := ext.Strings(0); !reflect.DeepEqual(got, want) {
		t.Errorf("suffixExtensions = %v, want %v", got, want)
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Independent: true}
	if v.String() != "independent" {
		t.Errorf("String = %q", v.String())
	}
	v2 := Verdict{Reasons: []string{"confl(r,U)"}}
	if v2.String() != "dependent ([confl(r,U)])" {
		t.Errorf("String = %q", v2.String())
	}
}
