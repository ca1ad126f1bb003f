package xquery_test

import (
	"encoding/hex"
	"regexp"
	"testing"

	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestFingerprintIsThePrintEquivalence: over the XMark views and
// updates, two expressions fingerprint equally exactly when the
// canonical prints of their normalized ASTs are equal, so the digest,
// which never prints, is neither finer nor coarser than the print. Every
// pair of the matrix gets its own pair fingerprint.
func TestFingerprintIsThePrintEquivalence(t *testing.T) {
	views, updates := xmark.Views(), xmark.Updates()
	qfp := make([]string, len(views))
	qcanon := make([]string, len(views))
	for i, v := range views {
		qfp[i] = xquery.FingerprintQuery(v.AST)
		qcanon[i] = xquery.CanonicalQuery(xquery.Normalize(v.AST))
		if !hex32.MatchString(qfp[i]) {
			t.Fatalf("%s: fingerprint %q is not 32 lowercase hex characters", v.Name, qfp[i])
		}
	}
	for i := range views {
		for j := range views {
			if (qfp[i] == qfp[j]) != (qcanon[i] == qcanon[j]) {
				t.Errorf("%s, %s: fingerprints equal %v, canonical prints equal %v",
					views[i].Name, views[j].Name, qfp[i] == qfp[j], qcanon[i] == qcanon[j])
			}
		}
	}
	ufp := make([]string, len(updates))
	ucanon := make([]string, len(updates))
	for i, u := range updates {
		ufp[i] = xquery.FingerprintUpdate(u.AST)
		ucanon[i] = xquery.CanonicalUpdate(xquery.NormalizeUpdate(u.AST))
	}
	for i := range updates {
		for j := range updates {
			if (ufp[i] == ufp[j]) != (ucanon[i] == ucanon[j]) {
				t.Errorf("%s, %s: fingerprints equal %v, canonical prints equal %v",
					updates[i].Name, updates[j].Name, ufp[i] == ufp[j], ucanon[i] == ucanon[j])
			}
		}
	}
	seen := make(map[string]string, len(views)*len(updates))
	for _, v := range views {
		for _, u := range updates {
			name := v.Name + "×" + u.Name
			fp := xquery.FingerprintPair(v.AST, u.AST)
			if other, dup := seen[fp]; dup {
				t.Errorf("%s and %s share the pair fingerprint %s", other, name, fp)
			}
			seen[fp] = name
			if d := xquery.PairDigest(xquery.Normalize(v.AST), xquery.NormalizeUpdate(u.AST)); fp != hex.EncodeToString(d[:]) {
				t.Fatalf("%s: FingerprintPair %s is not PairDigest %x", name, fp, d)
			}
		}
	}
}

// TestFingerprintCases pins the shapes where an encoding could drift
// from the print: binders, shadowing, let against for, insert
// positions, axes and node tests, and sequence association. For each
// case the fingerprints agree exactly when the canonical prints of the
// normalized ASTs agree, and both agree with the expectation.
func TestFingerprintCases(t *testing.T) {
	queries := []struct {
		a, b string
		same bool
	}{
		// Binders named like canonical binders, renamed.
		{`for $v1 in //a return for $v0 in $v1/b return ($v0, $v1)`,
			`for $x in //a return for $y in $x/b return ($y, $x)`, true},
		{`for $v1 in //a return for $v0 in $v1/b return ($v0, $v1)`,
			`for $x in //a return for $y in $x/b return ($x, $y)`, false},
		// Shadowing: the inner binder hides the outer one in its body
		// only.
		{`let $x := //a return let $x := $x/b return $x`,
			`let $y := //a return let $z := $y/b return $z`, true},
		{`let $x := //a return let $x := $x/b return $x`,
			`let $y := //a return let $z := $y/b return $y`, false},
		{`for $x in //a return let $x := $x/b return $x`,
			`for $y in //a return let $z := $y/b return $z`, true},
		// Normalize rotates the renamed for-nest but never a shadowing
		// one, so these differ in the print and the fingerprint alike.
		{`for $x in //a return for $x in $x/b return $x`,
			`for $y in //a return for $z in $y/b return $z`, false},
		// A free variable named like the first canonical binder.
		{`for $x in $v0/a return $x`, `for $v0 in $v0/a return $v0`, true},
		{`for $x in $v0/a return $x`, `for $x in $v1/a return $x`, false},
		// let against for of the same shape.
		{`let $x := //a return $x/b`, `for $x in //a return $x/b`, false},
		// Axes and node tests, including text() against a tag named text.
		{`//a/text()`, `//a/text`, false},
		{`//a/node()`, `//a/*`, false},
		{`//a/*`, `//a/b`, false},
		{`//a/child::b`, `//a/descendant::b`, false},
		{`//a/self::b`, `//a/parent::b`, false},
		{`//a/ancestor::b`, `//a/ancestor-or-self::b`, false},
		{`//a/preceding-sibling::b`, `//a/following-sibling::b`, false},
		{`//a/descendant-or-self::b`, `//a/descendant::b`, false},
		{`$root/self::a`, `/a`, true},
		// Sequence association collapses; order and arity do not.
		{`((//a, //b), //c)`, `(//a, (//b, //c))`, true},
		{`(//a, //b, //c)`, `(//a, (//b, //c))`, true},
		{`(//a, //b, //c)`, `(//a, //c, //b)`, false},
		{`(//a, //b)`, `(//a, //b, ())`, false},
		// Strings are length-prefixed: splitting one moves no bytes.
		{`("ab", "c")`, `("a", "bc")`, false},
		{`<a>{"b"}</a>`, `<ab/>`, false},
	}
	for _, c := range queries {
		a, b := xquery.MustParseQuery(c.a), xquery.MustParseQuery(c.b)
		fpEqual := xquery.FingerprintQuery(a) == xquery.FingerprintQuery(b)
		pa, pb := xquery.CanonicalQuery(xquery.Normalize(a)), xquery.CanonicalQuery(xquery.Normalize(b))
		if fpEqual != (pa == pb) || fpEqual != c.same {
			t.Errorf("%q against %q: fingerprints equal %v, prints equal %v, want %v\n%s\n%s",
				c.a, c.b, fpEqual, pa == pb, c.same, pa, pb)
		}
	}

	updates := []struct {
		a, b string
		same bool
	}{
		{`((delete //a, delete //b), delete //c)`, `(delete //a, (delete //b, delete //c))`, true},
		{`for $x in //a return delete $x/b`, `for $y in //a return delete $y/b`, true},
		{`let $x := //a return delete $x/b`, `for $x in //a return delete $x/b`, false},
		{`rename //a as b`, `rename //a as c`, false},
		{`replace //a with <b/>`, `replace //a with <c/>`, false},
		{`delete //a`, `delete (//a, ())`, false},
	}
	positions := []string{`into`, `as first into`, `as last into`, `before`, `after`}
	for i, p := range positions {
		for _, q := range positions[i+1:] {
			updates = append(updates, struct {
				a, b string
				same bool
			}{`insert <n/> ` + p + ` //a`, `insert <n/> ` + q + ` //a`, false})
		}
	}
	for _, c := range updates {
		a, b := xquery.MustParseUpdate(c.a), xquery.MustParseUpdate(c.b)
		fpEqual := xquery.FingerprintUpdate(a) == xquery.FingerprintUpdate(b)
		pa, pb := xquery.CanonicalUpdate(xquery.NormalizeUpdate(a)), xquery.CanonicalUpdate(xquery.NormalizeUpdate(b))
		if fpEqual != (pa == pb) || fpEqual != c.same {
			t.Errorf("%q against %q: fingerprints equal %v, prints equal %v, want %v\n%s\n%s",
				c.a, c.b, fpEqual, pa == pb, c.same, pa, pb)
		}
	}

	// The three domains never meet, even on the empty expression.
	q, u := xquery.MustParseQuery(`()`), xquery.MustParseUpdate(`()`)
	if fq, fu, fp := xquery.FingerprintQuery(q), xquery.FingerprintUpdate(u), xquery.FingerprintPair(q, u); fq == fu || fq == fp || fu == fp {
		t.Errorf("domains collide: query %s, update %s, pair %s", fq, fu, fp)
	}
}

// TestFingerprintPairAllocs: the pair fingerprint allocates what
// normalizing the two sides does, plus the printed string. The encoding
// and the digest allocate nothing, on every XMark pair.
func TestFingerprintPairAllocs(t *testing.T) {
	for _, pair := range [][2]string{{"A3", "UB2"}, {"q15", "UN1"}} {
		v, ok := xmark.ViewByName(pair[0])
		if !ok {
			t.Fatalf("no view %s", pair[0])
		}
		u, ok := xmark.UpdateByName(pair[1])
		if !ok {
			t.Fatalf("no update %s", pair[1])
		}
		normalize := testing.AllocsPerRun(100, func() {
			xquery.Normalize(v.AST)
			xquery.NormalizeUpdate(u.AST)
		})
		fp := testing.AllocsPerRun(100, func() { xquery.FingerprintPair(v.AST, u.AST) })
		if fp > normalize+1 {
			t.Errorf("%s×%s: FingerprintPair allocates %v times, normalizing %v", pair[0], pair[1], fp, normalize)
		}
	}

	views, updates := xmark.Views(), xmark.Updates()
	nq := make([]xquery.Query, len(views))
	for i, v := range views {
		nq[i] = xquery.Normalize(v.AST)
	}
	nu := make([]xquery.Update, len(updates))
	for i, u := range updates {
		nu[i] = xquery.NormalizeUpdate(u.AST)
	}
	n := testing.AllocsPerRun(1, func() {
		for _, q := range nq {
			for _, u := range nu {
				xquery.PairDigest(q, u)
			}
		}
	})
	if n != 0 {
		t.Errorf("PairDigest over the XMark matrix allocates %v times, want 0", n)
	}
	n = testing.AllocsPerRun(1, func() {
		for _, u := range nu {
			xquery.UpdateDigest(u)
		}
	})
	if n != 0 {
		t.Errorf("UpdateDigest over the XMark updates allocates %v times, want 0", n)
	}
}
