package xquery

import (
	"strings"
	"testing"
)

func TestParsePaths(t *testing.T) {
	cases := []struct {
		in   string
		want string // String() of the desugared AST
	}{
		{"()", "()"},
		{`"hello"`, `"hello"`},
		{"$x", "$x"},
		{"/a", "$root/self::a"},
		{"/a/b", "for $%1 in $root/self::a return $%1/child::b"},
		{"//c", "for $%1 in $root/descendant-or-self::node() return $%1/child::c"},
		{"$x/b", "$x/child::b"},
		{"$x/descendant::b", "$x/descendant::b"},
		{"$x/..", "$x/parent::node()"},
		{"$x/.", "$x/self::node()"},
		{"$x/*", "$x/child::*"},
		{"$x/text()", "$x/child::text()"},
		{"$x/node()", "$x/child::node()"},
		{"$x/ancestor::a", "$x/ancestor::a"},
		{"$x/following-sibling::c", "$x/following-sibling::c"},
		{"$x/preceding-sibling::*", "$x/preceding-sibling::*"},
		{"$x/ancestor-or-self::node()", "$x/ancestor-or-self::node()"},
		{
			"//a//c",
			"for $%1 in $root/descendant-or-self::node() return for $%2 in $%1/child::a return for $%3 in $%2/descendant-or-self::node() return $%3/child::c",
		},
		{"$x/a/b", "for $%1 in $x/child::a return $%1/child::b"},
		{"(), ()", "((), ())"},
		{"($x)", "$x"},
		{"($x)/b", "$x/child::b"},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.in)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("ParseQuery(%q) =\n  %s\nwant\n  %s", c.in, got, c.want)
		}
	}
}

func TestParseFLWR(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{
			"for $x in //a return $x/b",
			"for $x in for $%1 in $root/descendant-or-self::node() return $%1/child::a return $x/child::b",
		},
		{
			"let $x := /a return ($x, $x)",
			"let $x := $root/self::a return ($x, $x)",
		},
		{
			"if ($x/b) then $x/c else ()",
			"if ($x/child::b) then $x/child::c else ()",
		},
		{
			"if ($x/b) then $x/c",
			"if ($x/child::b) then $x/child::c else ()",
		},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.in)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("ParseQuery(%q) =\n  %s\nwant\n  %s", c.in, got, c.want)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	q := MustParseQuery("//book[author]")
	want := "for $%1 in $root/descendant-or-self::node() return for $%2 in $%1/child::book return if ($%2/child::author) then $%2 else ()"
	// The exact fresh-variable numbering is an implementation detail;
	// compare shapes modulo numbering by stripping digits.
	if got := stripDigits(q.String()); got != stripDigits(want) {
		t.Errorf("predicate desugar:\n  %s\nwant shape\n  %s", q, want)
	}

	// Nested predicate: the inner context must bind to the inner step.
	q2 := MustParseQuery("$x/a[b[c]]")
	s := q2.String()
	if !strings.Contains(s, "/child::b return if (") || !strings.Contains(s, "/child::c)") {
		t.Errorf("nested predicate desugar wrong: %s", s)
	}

	// and / or / not / comparison.
	for _, in := range []string{
		"$x/a[b and c]",
		"$x/a[b or c]",
		"$x/a[not(b)]",
		"$x/a[b = 'x']",
		"$x/a[b = c]",
		"$x/a[price > 40]",
		"$x/a[.//k]",
		"$x/a[../b]",
	} {
		if _, err := ParseQuery(in); err != nil {
			t.Errorf("ParseQuery(%q): %v", in, err)
		}
	}

	// Comparison keeps both operand paths as condition queries.
	qc := MustParseQuery("$x/a[b = c]").String()
	if !strings.Contains(qc, "child::b") || !strings.Contains(qc, "child::c") {
		t.Errorf("comparison lost a path: %s", qc)
	}
}

func stripDigits(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return 'N'
		}
		return r
	}, s)
}

func TestParseElements(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"<a/>", "<a/>"},
		{"<a></a>", "<a/>"},
		{"<a>{$x/b}</a>", "<a>{$x/child::b}</a>"},
		{"<a>hello</a>", `<a>{"hello"}</a>`},
		{"<a><b/><c/></a>", "<a>{(<b/>, <c/>)}</a>"},
		{
			"<author><first>Umberto</first><second>Eco</second></author>",
			`<author>{(<first>{"Umberto"}</first>, <second>{"Eco"}</second>)}</author>`,
		},
		{"<r1>{$x/a, <r2>{$x/b}</r2>}</r1>", "<r1>{($x/child::a, <r2>{$x/child::b}</r2>)}</r1>"},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.in)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("ParseQuery(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestParseUpdates(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"delete //b", "delete for $%1 in $root/descendant-or-self::node() return $%1/child::b"},
		{"delete node $x/b", "delete $x/child::b"},
		{"rename $x/b as c", "rename $x/child::b as c"},
		{"replace $x/b with <c/>", "replace $x/child::b with <c/>"},
		{"insert <author/> into $x", "insert <author/> into $x"},
		{"insert <a/> as first into $x", "insert <a/> as first into $x"},
		{"insert <a/> as last into $x", "insert <a/> as last into $x"},
		{"insert <a/> before $x/b", "insert <a/> before $x/child::b"},
		{"insert <a/> after $x/b", "insert <a/> after $x/child::b"},
		{
			"for $x in //book return insert <author/> into $x",
			"for $x in for $%1 in $root/descendant-or-self::node() return $%1/child::book return insert <author/> into $x",
		},
		{"let $x := /a return delete $x/b", "let $x := $root/self::a return delete $x/child::b"},
		{"if ($x/b) then delete $x/c else ()", "if ($x/child::b) then delete $x/child::c else ()"},
		{"if ($x/b) then delete $x/c", "if ($x/child::b) then delete $x/child::c else ()"},
		{"delete $x/a, delete $x/b", "(delete $x/child::a, delete $x/child::b)"},
		{"()", "()"},
		{"(delete $x/a)", "delete $x/child::a"},
	}
	for _, c := range cases {
		u, err := ParseUpdate(c.in)
		if err != nil {
			t.Errorf("ParseUpdate(%q): %v", c.in, err)
			continue
		}
		if got := u.String(); got != c.want {
			t.Errorf("ParseUpdate(%q) =\n  %s\nwant\n  %s", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	badQueries := []string{
		"",
		"for $x in return $x",
		"for x in $y return $x",
		"let $x = $y return $x",
		"$x/",
		"(",
		"<a>",
		"<a></b>",
		"$x/unknown::b",
		`"unterminated`,
		"$x trailing",
		"a/b",          // relative path outside a predicate
		"if ($x) then", // missing branch
	}
	for _, in := range badQueries {
		if _, err := ParseQuery(in); err == nil {
			t.Errorf("ParseQuery(%q): want error", in)
		}
	}
	badUpdates := []string{
		"",
		"$x/b",
		"delete",
		"insert <a/> $x",
		"insert <a/> as middle into $x",
		"rename $x/b",
		"replace $x/b",
		"frobnicate $x",
	}
	for _, in := range badUpdates {
		if _, err := ParseUpdate(in); err == nil {
			t.Errorf("ParseUpdate(%q): want error", in)
		}
	}
}

func TestElementInForLetRejected(t *testing.T) {
	if _, err := ParseQuery("for $x in <a/> return $x"); err == nil {
		t.Errorf("element constructor in for binding must be rejected")
	}
	if _, err := ParseQuery("let $x := <a>{$y/b}</a> return $x"); err == nil {
		t.Errorf("element constructor in let binding must be rejected")
	}
	if _, err := ParseQuery("let $x := $y/b return <b>{$x}</b>"); err != nil {
		t.Errorf("constructor in return position is fine: %v", err)
	}
}

func TestFreeVars(t *testing.T) {
	q := MustParseQuery("for $x in //a return ($x/b, $y/c)")
	free := map[string]bool{}
	FreeQueryVars(q, free)
	if !free["$y"] || !free[RootVar] || free["$x"] {
		t.Errorf("free vars = %v", free)
	}
	if QuasiClosedQuery(q) {
		t.Errorf("query with $y free is not quasi-closed")
	}
	if !QuasiClosedQuery(MustParseQuery("//a//c")) {
		t.Errorf("//a//c is quasi-closed")
	}

	u := MustParseUpdate("for $x in //book return insert <author/> into $x")
	freeU := map[string]bool{}
	FreeUpdateVars(u, freeU)
	if !freeU[RootVar] || freeU["$x"] {
		t.Errorf("update free vars = %v", freeU)
	}
	if !QuasiClosedUpdate(u) {
		t.Errorf("update should be quasi-closed")
	}
	if QuasiClosedUpdate(MustParseUpdate("delete $z/a")) {
		t.Errorf("update with $z free is not quasi-closed")
	}
}

func TestAxisPredicates(t *testing.T) {
	if Self.IsRecursive() || Child.IsRecursive() || FollowingSibling.IsRecursive() || Parent.IsRecursive() {
		t.Errorf("non-recursive axes misclassified")
	}
	if !Descendant.IsRecursive() || !Ancestor.IsRecursive() || !DescendantOrSelf.IsRecursive() || !AncestorOrSelf.IsRecursive() {
		t.Errorf("recursive axes misclassified")
	}
	if !Self.IsForward() || !Child.IsForward() || !DescendantOrSelf.IsForward() {
		t.Errorf("STEPF axes misclassified")
	}
	if Descendant.IsForward() || Parent.IsForward() || Ancestor.IsForward() || PrecedingSibling.IsForward() {
		t.Errorf("STEPUH axes misclassified")
	}
}

// TestPaperExpressions parses the expressions used throughout the
// paper's prose.
func TestPaperExpressions(t *testing.T) {
	queries := []string{
		"//a//c",
		"//title",
		"/r/a/b/f/a",
		"/r/a/b/f/a/parent::f",
		"/r/a/b/f/*",
		"/descendant::b/descendant::c/descendant::e",
		"/descendant::b/a/b",
		"/descendant::b/ancestor::c",
		"/descendant::c/following-sibling::b",
		"/a/b/following-sibling::c",
		"for $x in //node() return if ($x/b) then $x/a else ()",
		"for $x in /a/a return for $y in /a/b return ($x, $y)",
		"<r1>{($x/a, <r2>{$x/b}</r2>)}</r1>",
	}
	for _, in := range queries {
		if _, err := ParseQuery(in); err != nil {
			t.Errorf("ParseQuery(%q): %v", in, err)
		}
	}
	updates := []string{
		"delete //b//c",
		"for $x in //book return insert <author/> into $x",
		"for $x in //book return insert <author><first>Umberto</first><second>Eco</second></author> into $x",
		"for $x in /a/b return insert <b><b><c/></b></b> into $x",
		"delete /descendant::c",
	}
	for _, in := range updates {
		if _, err := ParseUpdate(in); err != nil {
			t.Errorf("ParseUpdate(%q): %v", in, err)
		}
	}
}

func TestSubstituteVarShadowing(t *testing.T) {
	// $x free under a for that rebinds $x: substitution must stop.
	q := MustParseQuery("for $x in $y/a return $x/b")
	got := substituteVar(q, "$x", "$z")
	if got.String() != q.String() {
		t.Errorf("substitution crossed a binder: %s", got)
	}
	got2 := substituteVar(q, "$y", "$w")
	if !strings.Contains(got2.String(), "$w/child::a") {
		t.Errorf("substitution missed free occurrence: %s", got2)
	}
}
