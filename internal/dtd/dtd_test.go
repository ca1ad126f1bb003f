package dtd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xqindep/internal/xmltree"
)

// figure1DTD is the DTD of the paper's Figure 1:
// sd=doc, d(doc)=(a|b)*, d(a)=c, d(b)=c.
const figure1DTD = `
doc <- (a | b)*
a <- c
b <- c
c <- ()
`

func TestParseCompact(t *testing.T) {
	d := MustParse(figure1DTD)
	if d.Start != "doc" {
		t.Errorf("start = %q", d.Start)
	}
	if d.Size() != 4 {
		t.Errorf("size = %d, want 4", d.Size())
	}
	if !d.Reaches("doc", "a") || !d.Reaches("a", "c") || !d.Reaches("doc", "b") || !d.Reaches("b", "c") {
		t.Errorf("reachability wrong: %v", d)
	}
	if d.Reaches("a", "b") || d.Reaches("c", "doc") {
		t.Errorf("spurious reachability")
	}
}

func TestParseStartDirectiveAndComments(t *testing.T) {
	d := MustParse(`
# bibliography
start bib
other <- ()
bib <- book*          # the root
book <- title, author*
title <- #PCDATA
author <- #PCDATA
`)
	if d.Start != "bib" {
		t.Errorf("start = %q", d.Start)
	}
	if got := d.Content["book"].String(); got != "title, author*" {
		t.Errorf("book model = %q", got)
	}
}

func TestParseClassic(t *testing.T) {
	d := MustParse(`
<!ELEMENT bib (book*)>
<!ELEMENT book (title, (author+ | editor+)?, price)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT empty EMPTY>
`)
	if d.Start != "bib" {
		t.Errorf("start = %q", d.Start)
	}
	if !d.Reaches("book", "editor") {
		t.Errorf("book should reach editor")
	}
	if d.Content["empty"].Op != OpEpsilon {
		t.Errorf("EMPTY should parse to epsilon")
	}
	if !d.Reaches("title", StringType) {
		t.Errorf("title should contain text")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"a <- b",              // b undeclared
		"a <- (b",             // unbalanced
		"a <- ()\na <- ()",    // duplicate
		"S <- ()",             // reserved
		"a <- ()\nstart zz\n", // unknown start: zz has no content model
		"a",                   // missing arrow
		"<!ELEMENT a ANY>",    // ANY unsupported
		"a! <- ()",            // bad name
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

func TestRegexStringRoundTrip(t *testing.T) {
	exprs := []string{
		"(a | b)*",
		"title, author*",
		"a, (b | c)+, d?",
		"#PCDATA",
		"(a, b) | (c, d)",
		"()",
		"(#PCDATA | a)*",
	}
	for _, e := range exprs {
		r, err := parseRegex(e)
		if err != nil {
			t.Fatalf("parseRegex(%q): %v", e, err)
		}
		r2, err := parseRegex(r.String())
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", e, r.String(), err)
		}
		if r.String() != r2.String() {
			t.Errorf("print not stable: %q -> %q -> %q", e, r.String(), r2.String())
		}
	}
}

func TestRegexMatches(t *testing.T) {
	cases := []struct {
		re   string
		word []string
		want bool
	}{
		{"(a | b)*", nil, true},
		{"(a | b)*", []string{"a", "a", "b", "a"}, true},
		{"(a | b)*", []string{"a", "c"}, false},
		{"a, b", []string{"a", "b"}, true},
		{"a, b", []string{"b", "a"}, false},
		{"a, b", []string{"a"}, false},
		{"a+", nil, false},
		{"a+", []string{"a", "a", "a"}, true},
		{"a?", nil, true},
		{"a?", []string{"a", "a"}, false},
		{"title, (author+ | editor+)?, price", []string{"title", "price"}, true},
		{"title, (author+ | editor+)?, price", []string{"title", "author", "author", "price"}, true},
		{"title, (author+ | editor+)?, price", []string{"title", "author", "editor", "price"}, false},
		{"()", nil, true},
		{"()", []string{"a"}, false},
	}
	for _, c := range cases {
		r, err := parseRegex(c.re)
		if err != nil {
			t.Fatalf("parseRegex(%q): %v", c.re, err)
		}
		if got := r.Matches(c.word); got != c.want {
			t.Errorf("Matches(%q, %v) = %v, want %v", c.re, c.word, got, c.want)
		}
	}
}

// TestPrecedesPaperExample checks the paper's worked example:
// <_{a,(b|c)*} = {(a,b),(a,c),(b,c),(c,b),(c,c),(b,b)}.
func TestPrecedesPaperExample(t *testing.T) {
	r, _ := parseRegex("a, (b | c)*")
	p := r.Precedes()
	want := map[[2]string]bool{
		{"a", "b"}: true, {"a", "c"}: true, {"b", "c"}: true,
		{"c", "b"}: true, {"c", "c"}: true, {"b", "b"}: true,
	}
	got := make(map[[2]string]bool)
	for a, m := range p {
		for b := range m {
			got[[2]string{a, b}] = true
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	for pr := range want {
		if !got[pr] {
			t.Errorf("missing pair %v", pr)
		}
	}
	for pr := range got {
		if !want[pr] {
			t.Errorf("spurious pair %v", pr)
		}
	}
}

// TestPrecedesConsistentWithSamples property-checks that for random
// sampled words, observed orderings are always in Precedes.
func TestPrecedesConsistentWithSamples(t *testing.T) {
	exprs := []string{"a, (b | c)*", "(a | b)+, c?", "(a?, b)*", "a, b, a"}
	rng := rand.New(rand.NewSource(7))
	for _, e := range exprs {
		r, _ := parseRegex(e)
		p := r.Precedes()
		for trial := 0; trial < 200; trial++ {
			w := r.Sample(rng, 0.5, nil)
			if !r.Matches(w) {
				t.Fatalf("Sample(%q) produced non-member %v", e, w)
			}
			for i := 0; i < len(w); i++ {
				for j := i + 1; j < len(w); j++ {
					if !p[w[i]][w[j]] {
						t.Fatalf("observed %s before %s in %v of %q, not in Precedes", w[i], w[j], w, e)
					}
				}
			}
		}
	}
}

func TestSiblingTypes(t *testing.T) {
	d := MustParse("a <- b+, c*\nb <- ()\nc <- ()")
	if got := d.FollowingSiblingTypes("a", "b"); strings.Join(got, ",") != "b,c" {
		t.Errorf("following of b = %v", got)
	}
	if got := d.FollowingSiblingTypes("a", "c"); strings.Join(got, ",") != "c" {
		t.Errorf("following of c = %v", got)
	}
	if got := d.PrecedingSiblingTypes("a", "c"); strings.Join(got, ",") != "b,c" {
		t.Errorf("preceding of c = %v", got)
	}
	if got := d.PrecedingSiblingTypes("a", "b"); strings.Join(got, ",") != "b" {
		t.Errorf("preceding of b = %v", got)
	}
}

func TestClosures(t *testing.T) {
	d := MustParse(figure1DTD)
	desc := d.DescendantClosure([]string{"doc"})
	for _, want := range []string{"a", "b", "c"} {
		if !desc[want] {
			t.Errorf("descendant closure missing %s", want)
		}
	}
	if desc["doc"] {
		t.Errorf("doc descends from itself in non-recursive schema")
	}
}

// d1 is the recursive schema of Section 5:
// r ← a  b,c,e ← f  a ← (b,c,e)*  f ← a,g
const d1DTD = `
r <- a
a <- (b, c, e)*
b <- f
c <- f
e <- f
f <- a, g
g <- ()
`

func TestRecursion(t *testing.T) {
	d := MustParse(d1DTD)
	rec := d.RecursiveTypes()
	for _, want := range []string{"a", "b", "c", "e", "f"} {
		if !rec[want] {
			t.Errorf("type %s should be recursive", want)
		}
	}
	for _, not := range []string{"r", "g"} {
		if rec[not] {
			t.Errorf("type %s should not be recursive", not)
		}
	}
	if !d.IsRecursive() {
		t.Errorf("d1 is vertically recursive")
	}
	if MustParse(figure1DTD).IsRecursive() {
		t.Errorf("figure 1 DTD is not recursive")
	}
	if !MustParse("a <- a?").IsRecursive() {
		t.Errorf("self-loop is recursive")
	}
	// Recursive but unreachable from start: not vertically recursive.
	d2 := MustParse("root <- ()\nx <- x?")
	if d2.IsRecursive() {
		t.Errorf("unreachable recursion should not count")
	}
}

func TestMinHeights(t *testing.T) {
	d := MustParse(d1DTD)
	h := d.MinHeights()
	// a can be empty: height 1. r <- a: height 2. b <- f, f <- a,g.
	want := map[string]int{"a": 1, "r": 2, "g": 1, "f": 2, "b": 3, "c": 3, "e": 3, StringType: 0}
	for ty, w := range want {
		if h[ty] != w {
			t.Errorf("minHeight(%s) = %d, want %d", ty, h[ty], w)
		}
	}
	// A type with no finite expansion.
	bad := MustParse("a <- b\nb <- a")
	hb := bad.MinHeights()
	if hb["a"] != -1 || hb["b"] != -1 {
		t.Errorf("unsatisfiable types should map to -1: %v", hb)
	}
}

func TestValidateFigure1(t *testing.T) {
	d := MustParse(figure1DTD)
	tr := xmltree.MustParse("<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>")
	nu, err := d.TypeAssignment(tr)
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if nu[tr.Root] != "doc" {
		t.Errorf("root typed %q", nu[tr.Root])
	}
	s := tr.Store
	for _, k := range s.Children(tr.Root) {
		if nu[k] != s.Tag(k) {
			t.Errorf("child typed %q, tagged %q", nu[k], s.Tag(k))
		}
	}

	for _, invalid := range []string{
		"<doc><c/></doc>",            // c not allowed under doc
		"<a><c/></a>",                // wrong root
		"<doc><a/></doc>",            // a must contain c
		"<doc><a><c/><c/></a></doc>", // a has exactly one c
		"<doc>text</doc>",            // no text under doc
	} {
		tr := xmltree.MustParse(invalid)
		if d.IsValid(tr) {
			t.Errorf("invalid document accepted: %s", invalid)
		}
	}
}

func TestValidateTextContent(t *testing.T) {
	d := MustParse("a <- (#PCDATA | b)*\nb <- ()")
	for _, valid := range []string{"<a/>", "<a>x</a>", "<a>x<b/>y</a>", "<a><b/><b/></a>"} {
		if !d.IsValid(xmltree.MustParse(valid)) {
			t.Errorf("valid mixed content rejected: %s", valid)
		}
	}
	d2 := MustParse("a <- #PCDATA\n")
	if d2.IsValid(xmltree.MustParse("<a/>")) {
		t.Errorf("missing mandatory text accepted")
	}
}

func TestValidateEDTD(t *testing.T) {
	// XML-Schema-style: a "name" element has different content under
	// person than under company.
	d := MustParse(`
start db
db <- person*, company*
person <- pname
company <- cname
pname[name] <- first, last
cname[name] <- #PCDATA
first <- #PCDATA
last <- #PCDATA
`)
	if d.LabelOf("pname") != "name" || d.LabelOf("first") != "first" {
		t.Errorf("labels wrong")
	}
	okDoc := xmltree.MustParse("<db><person><name><first>a</first><last>b</last></name></person><company><name>acme</name></company></db>")
	nu, err := d.TypeAssignment(okDoc)
	if err != nil {
		t.Fatalf("valid EDTD document rejected: %v", err)
	}
	// The two <name> elements must get different types.
	var sawP, sawC bool
	for l, ty := range nu {
		if okDoc.Store.IsElement(l) && okDoc.Store.Tag(l) == "name" {
			switch ty {
			case "pname":
				sawP = true
			case "cname":
				sawC = true
			}
		}
	}
	if !sawP || !sawC {
		t.Errorf("EDTD typing did not distinguish name types: %v %v", sawP, sawC)
	}
	// Structured name under company is invalid.
	bad := xmltree.MustParse("<db><company><name><first>a</first><last>b</last></name></company></db>")
	if d.IsValid(bad) {
		t.Errorf("invalid EDTD document accepted")
	}
}

func TestGenerateTreeValid(t *testing.T) {
	schemas := []string{figure1DTD, d1DTD, `
bib <- book*
book <- title, author+, price?
title <- #PCDATA
author <- #PCDATA
price <- #PCDATA
`}
	rng := rand.New(rand.NewSource(42))
	for _, schema := range schemas {
		d := MustParse(schema)
		for trial := 0; trial < 25; trial++ {
			tr, err := d.GenerateTree(rng, 0.55, 8)
			if err != nil {
				t.Fatalf("GenerateTree: %v", err)
			}
			if err := d.Validate(tr); err != nil {
				t.Fatalf("generated document invalid for\n%s: %v\ndoc: %s", schema, err, tr.Store.String(tr.Root))
			}
		}
	}
	// Unsatisfiable start symbol errors out.
	bad := MustParse("a <- b\nb <- a")
	if _, err := bad.GenerateTree(rng, 0.5, 5); err == nil {
		t.Errorf("expected error for unsatisfiable schema")
	}
}

// TestGeneratedTreesAlwaysValid is the package's main property test:
// for random repetition probabilities and depths, generation always
// yields valid documents of the recursive schema d1.
func TestGeneratedTreesAlwaysValid(t *testing.T) {
	d := MustParse(d1DTD)
	f := func(seed int64, pRaw uint8, depthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := float64(pRaw%90) / 100.0
		depth := 2 + int(depthRaw%10)
		tr, err := d.GenerateTree(rng, p, depth)
		if err != nil {
			return false
		}
		return d.IsValid(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDTDString(t *testing.T) {
	d := MustParse(figure1DTD)
	s := d.String()
	if !strings.HasPrefix(s, "doc <- ") {
		t.Errorf("String should start with start symbol: %q", s)
	}
	// Round-trip: parse the printed form.
	d2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse of String(): %v\n%s", err, s)
	}
	if d2.Start != d.Start || d2.Size() != d.Size() {
		t.Errorf("round trip changed schema")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Errorf("empty start accepted")
	}
	if _, err := New("a", map[string]*Regex{"b": Epsilon()}); err == nil {
		t.Errorf("undeclared start accepted")
	}
	if _, err := New("a", map[string]*Regex{"a": Sym("zz")}); err == nil {
		t.Errorf("undeclared referenced type accepted")
	}
	if _, err := NewExtended("a", map[string]*Regex{"a": Epsilon()}, map[string]string{"zz": "x"}); err == nil {
		t.Errorf("label for undeclared type accepted")
	}
	if _, err := NewExtended("a", map[string]*Regex{"a": Epsilon()}, map[string]string{"a": ""}); err == nil {
		t.Errorf("empty label accepted")
	}
}
