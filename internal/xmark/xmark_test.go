package xmark

import (
	"strings"
	"testing"

	"xqindep/internal/eval"
	"xqindep/internal/xmltree"
)

func TestSchemaShape(t *testing.T) {
	d := Schema()
	if d.Start != "site" {
		t.Errorf("start = %q", d.Start)
	}
	// The paper reports |d| = 76 for its attribute-free rewriting; our
	// re-derivation has 74 element types (the small delta comes from
	// attribute-only helper elements dropped with the attributes).
	if d.Size() < 70 || d.Size() > 80 {
		t.Errorf("|d| = %d, expected mid-seventies", d.Size())
	}
	if !d.IsRecursive() {
		t.Errorf("XMark schema must be recursive")
	}
	rec := d.RecursiveTypes()
	// The two mutually recursive cliques: {bold, keyword, emph} (plus
	// text feeding them) and {parlist, listitem}.
	for _, want := range []string{"bold", "keyword", "emph", "parlist", "listitem"} {
		if !rec[want] {
			t.Errorf("type %s should be recursive", want)
		}
	}
	if rec["site"] || rec["item"] {
		t.Errorf("non-recursive types misclassified: %v", rec)
	}
}

func TestGeneratedDocumentsValid(t *testing.T) {
	d := Schema()
	for _, factor := range []float64{0.3, 1.0, 2.0} {
		doc := GenerateDocument(42, factor)
		if err := d.Validate(doc); err != nil {
			t.Fatalf("factor %.1f: generated document invalid: %v", factor, err)
		}
	}
	// Scaling grows the document.
	small := len(GenerateDocument(1, 0.5).Store.Domain(GenerateDocument(1, 0.5).Root))
	big := GenerateDocument(1, 4)
	bigN := len(big.Store.Domain(big.Root))
	if bigN < 4*small {
		t.Errorf("scaling too weak: factor 0.5 → %d nodes, factor 4 → %d", small, bigN)
	}
	// Determinism per seed.
	a := GenerateDocument(7, 1)
	b := GenerateDocument(7, 1)
	if a.Store.String(a.Root) != b.Store.String(b.Root) {
		t.Errorf("generation not deterministic")
	}
}

func TestWorkloadParsesAndCounts(t *testing.T) {
	vs := Views()
	if len(vs) != 36 {
		t.Fatalf("views = %d, want 36", len(vs))
	}
	us := Updates()
	if len(us) != 31 {
		t.Fatalf("updates = %d, want 31", len(us))
	}
	names := map[string]bool{}
	for _, v := range vs {
		if names[v.Name] {
			t.Errorf("duplicate view name %s", v.Name)
		}
		names[v.Name] = true
	}
	for _, u := range us {
		if names[u.Name] {
			t.Errorf("duplicate update name %s", u.Name)
		}
		names[u.Name] = true
	}
	if _, ok := ViewByName("q15"); !ok {
		t.Errorf("ViewByName(q15) missing")
	}
	if _, ok := UpdateByName("UP5"); !ok {
		t.Errorf("UpdateByName(UP5) missing")
	}
	if _, ok := ViewByName("zz"); ok {
		t.Errorf("ViewByName(zz) should miss")
	}
}

// TestViewsEvaluate runs every view on a sample document — none may
// raise a runtime error, and the structurally guaranteed ones must be
// non-empty.
func TestViewsEvaluate(t *testing.T) {
	doc := GenerateDocument(3, 1.5)
	nonEmpty := map[string]bool{
		"q1": true, "q5": true, "q6": true, "q7": true, "q10": true,
		"q18": true, "q19": true, "A2": false, // keyword content is probabilistic
	}
	for _, v := range Views() {
		s := xmltree.NewStore()
		root := s.Copy(doc.Store, doc.Root)
		locs, err := eval.Query(s, eval.RootEnv(root), v.AST)
		if err != nil {
			t.Errorf("view %s: %v", v.Name, err)
			continue
		}
		if nonEmpty[v.Name] && len(locs) == 0 {
			t.Errorf("view %s returned nothing on a factor-1.5 document", v.Name)
		}
	}
}

// TestUpdatesApply applies every update; the ones marked
// schema-preserving must keep the document valid.
func TestUpdatesApply(t *testing.T) {
	d := Schema()
	base := GenerateDocument(4, 1)
	for _, u := range Updates() {
		s := xmltree.NewStore()
		root := s.Copy(base.Store, base.Root)
		if err := eval.Update(s, eval.RootEnv(root), u.AST); err != nil {
			t.Errorf("update %s failed: %v", u.Name, err)
			continue
		}
		tree := xmltree.NewTree(s, root)
		if u.PreservesSchema {
			if err := d.Validate(tree); err != nil {
				t.Errorf("update %s should preserve validity: %v", u.Name, err)
			}
		}
	}
}

// TestUpdatesChangeSomething: every benchmark update must actually
// modify some sample document (otherwise it measures nothing).
func TestUpdatesChangeSomething(t *testing.T) {
	docs := SampleDocuments(4, 1.2)
	for _, u := range Updates() {
		changed := false
		for _, doc := range docs {
			before := doc.Store.String(doc.Root)
			s := xmltree.NewStore()
			root := s.Copy(doc.Store, doc.Root)
			if err := eval.Update(s, eval.RootEnv(root), u.AST); err != nil {
				t.Fatalf("update %s: %v", u.Name, err)
			}
			if s.String(root) != before {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("update %s is a no-op on all sample documents", u.Name)
		}
	}
}

func TestGroundTruthSanity(t *testing.T) {
	docs := SampleDocuments(3, 1)
	truth, err := GroundTruth(docs)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting a view's own target must be recorded dependent.
	mustDep := [][2]string{
		{"UA1", "A1"}, {"UA2", "A2"}, {"UB3", "B3"},
		{"UP5", "q5"},  // replacing prices changes the price view
		{"UN2", "q14"}, // renaming emph→keyword inside item descriptions can change q14
	}
	for _, p := range mustDep {
		if !truth.IsDependent(p[0], p[1]) {
			t.Errorf("ground truth should mark %s-%s dependent", p[0], p[1])
		}
	}
	// Structurally unrelated pairs stay independent.
	mustIndep := [][2]string{
		{"UI2", "q5"},  // watches vs closed-auction prices
		{"UI1", "q1"},  // mailbox mails vs person names
		{"UP1", "q18"}, // emailaddresses vs current prices
	}
	for _, p := range mustIndep {
		if truth.IsDependent(p[0], p[1]) {
			t.Errorf("ground truth wrongly marks %s-%s dependent", p[0], p[1])
		}
	}
	// Every update must have at least one dependent view (the workload
	// was designed to touch queried regions) and at least one
	// independent view.
	for _, u := range Updates() {
		dep := 0
		for _, v := range Views() {
			if truth.IsDependent(u.Name, v.Name) {
				dep++
			}
		}
		if dep == 0 {
			t.Errorf("update %s has no dependent view", u.Name)
		}
		if dep == len(Views()) {
			t.Errorf("update %s dependent on every view", u.Name)
		}
	}
}

func TestSchemaTextStable(t *testing.T) {
	if !strings.Contains(SchemaText, "closed_auction") || !strings.Contains(SchemaText, "parlist") {
		t.Errorf("schema text lost key types")
	}
}
