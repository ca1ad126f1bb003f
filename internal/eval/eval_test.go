package eval

import (
	"strings"
	"testing"

	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// renderSeq renders a result sequence as XML fragments joined by ";".
func renderSeq(s *xmltree.Store, locs []xmltree.Loc) string {
	parts := make([]string, len(locs))
	for i, l := range locs {
		parts[i] = s.String(l)
	}
	return strings.Join(parts, ";")
}

// runQuery evaluates the query text against the document text.
func runQuery(t *testing.T, doc, query string) string {
	t.Helper()
	tr := xmltree.MustParse(doc)
	q := xquery.MustParseQuery(query)
	s, locs, err := QueryTree(tr, q)
	if err != nil {
		t.Fatalf("Query(%q): %v", query, err)
	}
	return renderSeq(s, locs)
}

func TestQueryEvaluation(t *testing.T) {
	const doc = "<doc><a><c>1</c></a><a><c>2</c></a><b><c>3</c></b><a><c/></a></doc>"
	cases := []struct {
		query string
		want  string
	}{
		{"()", ""},
		{`"hi"`, "hi"},
		{"/doc", doc},
		{"/nosuch", ""},
		{"//b", "<b><c>3</c></b>"},
		{"//c", "<c>1</c>;<c>2</c>;<c>3</c>;<c/>"},
		{"//a//c", "<c>1</c>;<c>2</c>;<c/>"},
		{"//b//c", "<c>3</c>"},
		{"/doc/a", "<a><c>1</c></a>;<a><c>2</c></a>;<a><c/></a>"},
		{"/doc/a/c/text()", "1;2"},
		{"//c/..", "<a><c>1</c></a>;<a><c>2</c></a>;<b><c>3</c></b>;<a><c/></a>"},
		// Paths are encoded as nested for-loops (the paper's encoding),
		// so there is no whole-path deduplication: each of the four c
		// bindings contributes its ancestor.
		{"//c/ancestor::doc", doc + ";" + doc + ";" + doc + ";" + doc},
		{"//b/preceding-sibling::a", "<a><c>1</c></a>;<a><c>2</c></a>"},
		{"//b/following-sibling::a", "<a><c/></a>"},
		{"//b/following-sibling::node()", "<a><c/></a>"},
		{"/doc/*", "<a><c>1</c></a>;<a><c>2</c></a>;<b><c>3</c></b>;<a><c/></a>"},
		{"//a[c/text()]", "<a><c>1</c></a>;<a><c>2</c></a>"},
		{"for $x in //a return $x/c", "<c>1</c>;<c>2</c>;<c/>"},
		{"let $x := //a return ($x, $x)", "<a><c>1</c></a>;<a><c>2</c></a>;<a><c/></a>;<a><c>1</c></a>;<a><c>2</c></a>;<a><c/></a>"},
		{"if (//b) then //b/c else ()", "<c>3</c>"},
		{"if (//zz) then //b/c else //a/c", "<c>1</c>;<c>2</c>;<c/>"},
		{"<r>{//b/c}</r>", "<r><c>3</c></r>"},
		{"<r><s/>x</r>", "<r><s/>x</r>"},
		{"//a/c, //b/c", "<c>1</c>;<c>2</c>;<c/>;<c>3</c>"},
		{"/doc/descendant::c", "<c>1</c>;<c>2</c>;<c>3</c>;<c/>"},
		{"/doc/descendant-or-self::node()/self::b", "<b><c>3</c></b>"},
	}
	for _, c := range cases {
		if got := runQuery(t, doc, c.query); got != c.want {
			t.Errorf("query %q:\n got %q\nwant %q", c.query, got, c.want)
		}
	}
}

func TestQueryDocOrderAndDedup(t *testing.T) {
	// Steps sort and deduplicate; two paths to the same c nodes.
	got := runQuery(t, "<d><a><c/></a></d>", "let $x := (//a, //a) return $x/c")
	if got != "<c/>" {
		t.Errorf("step over duplicated context = %q", got)
	}
	// Sequences do NOT deduplicate.
	got2 := runQuery(t, "<d><a><c/></a></d>", "(//a/c, //a/c)")
	if got2 != "<c/>;<c/>" {
		t.Errorf("sequence dedup happened: %q", got2)
	}
}

func TestElementConstructionCopies(t *testing.T) {
	tr := xmltree.MustParse("<d><a>x</a></d>")
	q := xquery.MustParseQuery("<w>{/d/a}</w>")
	s, locs, err := QueryTree(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 {
		t.Fatalf("want 1 result, got %d", len(locs))
	}
	// Mutate the constructed copy: the document inside the store must
	// be unaffected.
	inner := s.Child(locs[0], 0)
	s.SetTag(inner, "MUT")
	doc2, err := Query(s, RootEnv(s.Root(s.Child(s.Root(inner), 0))), xquery.MustParseQuery("$root"))
	if err != nil {
		t.Fatal(err)
	}
	_ = doc2
	if strings.Contains(renderSeq(s, []xmltree.Loc{locs[0]}), "<a>") {
		t.Errorf("mutation did not apply to copy")
	}
}

func TestQueryErrors(t *testing.T) {
	tr := xmltree.MustParse("<d/>")
	if _, _, err := QueryTree(tr, xquery.Var{Name: "$zz"}); err == nil {
		t.Errorf("unbound variable should error")
	}
	if _, _, err := QueryTree(tr, xquery.Step{Var: "$zz", Axis: xquery.Child, Test: xquery.AnyNode()}); err == nil {
		t.Errorf("unbound step variable should error")
	}
}

// runUpdate applies the update text to a copy of the document and
// returns the re-serialised copy.
func runUpdate(t *testing.T, doc, update string) string {
	t.Helper()
	tr := xmltree.MustParse(doc)
	s := xmltree.NewStore()
	root := s.Copy(tr.Store, tr.Root)
	if err := Update(s, RootEnv(root), xquery.MustParseUpdate(update)); err != nil {
		t.Fatalf("Update(%q): %v", update, err)
	}
	return s.String(root)
}

func TestUpdateEvaluation(t *testing.T) {
	const doc = "<doc><a><c>1</c></a><b><c>2</c></b></doc>"
	cases := []struct {
		update string
		want   string
	}{
		{"()", doc},
		{"delete //c", "<doc><a/><b/></doc>"},
		{"delete //b//c", "<doc><a><c>1</c></a><b/></doc>"},
		{"delete //zz", doc},
		{"rename /doc/b as bb", "<doc><a><c>1</c></a><bb><c>2</c></bb></doc>"},
		{"replace /doc/b with <n/>", "<doc><a><c>1</c></a><n/></doc>"},
		{"insert <n/> into /doc/b", "<doc><a><c>1</c></a><b><c>2</c><n/></b></doc>"},
		{"insert <n/> as first into /doc/b", "<doc><a><c>1</c></a><b><n/><c>2</c></b></doc>"},
		{"insert <n/> as last into /doc/b", "<doc><a><c>1</c></a><b><c>2</c><n/></b></doc>"},
		{"insert <n/> before /doc/b", "<doc><a><c>1</c></a><n/><b><c>2</c></b></doc>"},
		{"insert <n/> after /doc/a", "<doc><a><c>1</c></a><n/><b><c>2</c></b></doc>"},
		{"for $x in //c return rename $x as k", "<doc><a><k>1</k></a><b><k>2</k></b></doc>"},
		{"if (//b) then delete //a else ()", "<doc><b><c>2</c></b></doc>"},
		{"if (//zz) then delete //a else delete //b", "<doc><a><c>1</c></a></doc>"},
		{"delete //a/c, insert <n/> into /doc/a", "<doc><a><n/></a><b><c>2</c></b></doc>"},
		{"let $x := /doc/a return insert <n/> into $x", "<doc><a><c>1</c><n/></a><b><c>2</c></b></doc>"},
		{"insert (<n/>, <m/>) into /doc/b", "<doc><a><c>1</c></a><b><c>2</c><n/><m/></b></doc>"},
		// Source can copy existing nodes.
		{"insert /doc/a/c into /doc/b", "<doc><a><c>1</c></a><b><c>2</c><c>1</c></b></doc>"},
		{"replace /doc/a/c with /doc/b/c", "<doc><a><c>2</c></a><b><c>2</c></b></doc>"},
	}
	for _, c := range cases {
		if got := runUpdate(t, doc, c.update); got != c.want {
			t.Errorf("update %q:\n got %s\nwant %s", c.update, got, c.want)
		}
	}
}

func TestUpdateSnapshotSemantics(t *testing.T) {
	// All target/source queries are evaluated against the original
	// store before any command applies: inserting <c/> into every a
	// must not revisit freshly inserted nodes.
	got := runUpdate(t, "<d><a/><a/></d>", "for $x in //a return insert <a/> into $x")
	if got != "<d><a><a/></a><a><a/></a></d>" {
		t.Errorf("snapshot semantics violated: %s", got)
	}
	// Deleting //a deletes both pre-existing a's (not the new ones).
	got2 := runUpdate(t, "<d><a><b/></a></d>", "insert <a/> into /d, delete //b")
	if got2 != "<d><a/><a/></d>" {
		t.Errorf("combined update wrong: %s", got2)
	}
}

func TestUpdateRuntimeErrors(t *testing.T) {
	tr := xmltree.MustParse("<d><a/><a/></d>")
	cases := []string{
		"insert <n/> into //a",  // two targets
		"rename //a as b",       // two targets
		"replace //a with <n/>", // two targets
		"insert <n/> into //zz", // zero targets
		"rename //a/text() as b",
	}
	for _, in := range cases {
		u := xquery.MustParseUpdate(in)
		s := xmltree.NewStore()
		root := s.Copy(tr.Store, tr.Root)
		if err := Update(s, RootEnv(root), u); err == nil {
			t.Errorf("update %q: want runtime error", in)
		}
	}
	// Text-node insert-into is an error; before/after a text node is fine.
	tr2 := xmltree.MustParse("<d><a>x</a></d>")
	if err := Update(tr2.Store, RootEnv(tr2.Root), xquery.MustParseUpdate("insert <n/> into /d/a/text()")); err == nil {
		t.Errorf("insert into text node should fail")
	}
	tr3 := xmltree.MustParse("<d><a>x</a></d>")
	if err := Update(tr3.Store, RootEnv(tr3.Root), xquery.MustParseUpdate("insert <n/> before /d/a/text()")); err != nil {
		t.Errorf("insert before text node: %v", err)
	}
	if got := tr3.Store.String(tr3.Root); got != "<d><a><n/>x</a></d>" {
		t.Errorf("insert before text = %s", got)
	}
}

func TestPendingListChecks(t *testing.T) {
	tr := xmltree.MustParse("<d><a/></d>")
	// Two renames of the same node conflict.
	u := xquery.MustParseUpdate("rename /d/a as x, rename /d/a as y")
	if err := Update(tr.Store, RootEnv(tr.Root), u); err == nil {
		t.Errorf("double rename should fail the sanity check")
	}
	tr2 := xmltree.MustParse("<d><a/></d>")
	u2 := xquery.MustParseUpdate("replace /d/a with <x/>, replace /d/a with <y/>")
	if err := Update(tr2.Store, RootEnv(tr2.Root), u2); err == nil {
		t.Errorf("double replace should fail the sanity check")
	}
	// Double delete of the same node is fine.
	tr3 := xmltree.MustParse("<d><a/></d>")
	u3 := xquery.MustParseUpdate("delete /d/a, delete /d/a")
	if err := Update(tr3.Store, RootEnv(tr3.Root), u3); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

func TestUpdateOnDetachedTargets(t *testing.T) {
	// Insert-after a node that a previous command deleted: the insert
	// is skipped because the target is detached by apply time
	// (deletes run last, but replace detaches earlier).
	got := runUpdate(t, "<d><a/><b/></d>", "replace /d/a with <x/>, insert <n/> after /d/a")
	// The insert happens first (inserts before replaces), so n lands
	// after a, then a is replaced by x.
	if got != "<d><x/><n/><b/></d>" {
		t.Errorf("got %s", got)
	}
}

func TestIndependenceOracle(t *testing.T) {
	doc := xmltree.MustParse("<doc><a><c>1</c></a><b><c>2</c></b></doc>")
	cases := []struct {
		q, u string
		want bool
	}{
		{"//a//c", "delete //b//c", true},      // the paper's q1/u1
		{"//a//c", "delete //a//c", false},     // obviously dependent
		{"//b", "delete //b", false},           // result node deleted
		{"//a", "delete //b//c", true},         // different subtrees
		{"//b/c", "rename /doc/b as z", false}, // path broken by rename
		{"//c", "insert <c/> into /doc/a", false},
		{"//b/c", "insert <c/> into /doc/a", true},
		{"/doc", "()", true},
		{"/doc", "insert <n/> into /doc/b", false}, // whole doc returned
	}
	for _, c := range cases {
		got, err := IndependentOn(doc, xquery.MustParseQuery(c.q), xquery.MustParseUpdate(c.u))
		if err != nil {
			t.Errorf("oracle(%q,%q): %v", c.q, c.u, err)
			continue
		}
		if got != c.want {
			t.Errorf("oracle(%q,%q) = %v, want %v", c.q, c.u, got, c.want)
		}
	}
	// The original tree must never be mutated by the oracle.
	if got := doc.Store.String(doc.Root); got != "<doc><a><c>1</c></a><b><c>2</c></b></doc>" {
		t.Errorf("oracle mutated its input: %s", got)
	}
}

func TestDependentOnAny(t *testing.T) {
	trees := []xmltree.Tree{
		xmltree.MustParse("<doc><a/></doc>"),
		xmltree.MustParse("<doc><a/><b><c/></b></doc>"),
	}
	q := xquery.MustParseQuery("//b/c")
	u := xquery.MustParseUpdate("delete //b")
	if got := DependentOnAny(trees, q, u); got != 1 {
		t.Errorf("DependentOnAny = %d, want 1 (second tree witnesses)", got)
	}
	u2 := xquery.MustParseUpdate("delete //zz")
	if got := DependentOnAny(trees, q, u2); got != -1 {
		t.Errorf("DependentOnAny = %d, want -1", got)
	}
	// A runtime error on one tree is skipped, the other still witnesses.
	u3 := xquery.MustParseUpdate("insert <z/> into //b, delete //c")
	if got := DependentOnAny(trees, q, u3); got != 1 {
		t.Errorf("DependentOnAny with partial errors = %d, want 1", got)
	}
}
