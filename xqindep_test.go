package xqindep

import (
	"reflect"
	"strings"
	"testing"
)

const bibSchema = `
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- first?, last?, email?
first <- #PCDATA
last <- #PCDATA
email <- #PCDATA
price <- #PCDATA
`

func TestQuickstartFlow(t *testing.T) {
	schema := MustParseSchema(bibSchema)
	if schema.Start() != "bib" || schema.Size() != 8 || schema.IsRecursive() {
		t.Fatalf("schema basics wrong: %s size %d", schema.Start(), schema.Size())
	}
	q := MustParseQuery("//title")
	u := MustParseUpdate("for $x in //book return insert <author/> into $x")
	ok, err := schema.Independent(q, u)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("q2/u2 must be independent")
	}
	// All four methods run through the same API.
	for _, m := range []Method{Chains, ChainsExact, Types, Paths} {
		r, err := schema.Analyze(q, u, m)
		if err != nil {
			t.Fatalf("Analyze(%v): %v", m, err)
		}
		wantIndep := m == Chains || m == ChainsExact
		if r.Independent != wantIndep {
			t.Errorf("method %v: independent=%v, want %v (witnesses %v)", m, r.Independent, wantIndep, r.Witnesses)
		}
	}
}

func TestExplainChains(t *testing.T) {
	schema := MustParseSchema(bibSchema)
	ev, err := schema.ExplainChains(MustParseQuery("//title"),
		MustParseUpdate("for $x in //book return insert <author/> into $x"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.Return, []string{"bib.book.title"}) {
		t.Errorf("return chains = %v", ev.Return)
	}
	if !reflect.DeepEqual(ev.Update, []string{"bib.book.author"}) {
		t.Errorf("update chains = %v", ev.Update)
	}
	if ev.K < 2 {
		t.Errorf("k = %d", ev.K)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	doc := MustParseDocument("<bib><book><title>AI</title><price>9</price></book></bib>")
	schema := MustParseSchema(bibSchema)
	if err := schema.Validate(doc); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if doc.Size() != 6 {
		t.Errorf("Size = %d", doc.Size())
	}
	res, err := doc.Run(MustParseQuery("//title"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, []string{"<title>AI</title>"}) {
		t.Errorf("Run = %v", res)
	}
	cp := doc.Copy()
	if err := doc.Apply(MustParseUpdate("delete //price")); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc.String(), "price") {
		t.Errorf("Apply did not delete: %s", doc)
	}
	if !strings.Contains(cp.String(), "price") {
		t.Errorf("Copy aliased the original")
	}
	if err := schema.Validate(doc); err == nil {
		// price? is optional so the updated document is still valid
	} else {
		t.Errorf("updated document invalid: %v", err)
	}
}

func TestIndependentOnOracle(t *testing.T) {
	doc := MustParseDocument("<bib><book><title>AI</title></book></bib>")
	q := MustParseQuery("//title")
	ok, err := IndependentOn(doc, q, MustParseUpdate("for $b in //book return insert <author/> into $b"))
	if err != nil || !ok {
		t.Errorf("oracle says dependent or errs: %v %v", ok, err)
	}
	ok2, err := IndependentOn(doc, q, MustParseUpdate("delete //title"))
	if err != nil || ok2 {
		t.Errorf("oracle missed dependence: %v %v", ok2, err)
	}
	// The oracle never mutates its input.
	if doc.String() != "<bib><book><title>AI</title></book></bib>" {
		t.Errorf("oracle mutated document: %s", doc)
	}
}

func TestGenerate(t *testing.T) {
	schema := MustParseSchema(bibSchema)
	doc, err := schema.Generate(7, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Validate(doc); err != nil {
		t.Errorf("generated document invalid: %v", err)
	}
	// Determinism per seed.
	doc2, _ := schema.Generate(7, 0.5, 6)
	if doc.String() != doc2.String() {
		t.Errorf("generation is not deterministic per seed")
	}
}

func TestAPIErrors(t *testing.T) {
	if _, err := ParseSchema("a <- undeclared"); err == nil {
		t.Errorf("bad schema accepted")
	}
	if _, err := ParseQuery("for $x in"); err == nil {
		t.Errorf("bad query accepted")
	}
	if _, err := ParseUpdate("delete"); err == nil {
		t.Errorf("bad update accepted")
	}
	if _, err := ParseDocumentString("<a><b></a>"); err == nil {
		t.Errorf("bad document accepted")
	}
	schema := MustParseSchema(bibSchema)
	// Non-quasi-closed expressions are rejected by analysis.
	q := MustParseQuery("$y/title")
	if _, err := schema.Independent(q, MustParseUpdate("delete //price")); err == nil {
		t.Errorf("free-variable query accepted by analysis")
	}
	// Runtime errors surface from Apply.
	doc := MustParseDocument("<bib><book><title>x</title></book><book><title>y</title></book></bib>")
	if err := doc.Apply(MustParseUpdate("insert <author/> into //book")); err == nil {
		t.Errorf("multi-node insert target must fail")
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{Chains: "chains", ChainsExact: "chains-exact", Types: "types", Paths: "paths"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestCommuteAPI(t *testing.T) {
	schema := MustParseSchema(bibSchema)
	u1 := MustParseUpdate("delete //author")
	u2 := MustParseUpdate("delete //price")
	ok, err := schema.Commute(u1, u2)
	if err != nil || !ok {
		t.Errorf("Commute = %v, %v; want true", ok, err)
	}
	u3 := MustParseUpdate("for $b in //book return insert <author/> into $b")
	ok, err = schema.Commute(u1, u3)
	if err != nil || ok {
		t.Errorf("insert author vs delete author should not commute")
	}
	if _, err := schema.Commute(MustParseUpdate("delete $z/a"), u2); err == nil {
		t.Errorf("non-quasi-closed update accepted")
	}
}

func TestPreservesSchemaAPI(t *testing.T) {
	schema := MustParseSchema(bibSchema)
	ok, reasons := schema.PreservesSchema(MustParseUpdate("delete //author"))
	if !ok || len(reasons) != 0 {
		t.Errorf("delete //author should preserve: %v", reasons)
	}
	ok, reasons = schema.PreservesSchema(MustParseUpdate("delete //title"))
	if ok || len(reasons) == 0 {
		t.Errorf("delete //title must be flagged")
	}
}

func TestRecursiveSchemaEndToEnd(t *testing.T) {
	schema := MustParseSchema(`
r <- a
a <- (b, c, e)*
b <- f
c <- f
e <- f
f <- a, g
g <- ()
`)
	if !schema.IsRecursive() {
		t.Fatalf("d1 should be recursive")
	}
	q := MustParseQuery("/descendant::b")
	u := MustParseUpdate("delete /descendant::c")
	ok, err := schema.Independent(q, u)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("the Section 5 pair must be dependent (k=kq+ku matters)")
	}
	r, _ := schema.Analyze(q, u, Chains)
	if r.K != 2 {
		t.Errorf("k = %d, want 2", r.K)
	}
}
