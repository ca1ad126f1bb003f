package xquery_test

import (
	"testing"

	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// FuzzParseQuery feeds arbitrary bytes to the query parser. Garbage
// must come back as an error — never a panic or a hang — and anything
// that parses must survive the standard AST walks, since every
// analysis starts with them. The canonical print of the normalized AST
// must re-parse to an expression with the same fingerprint: the
// fingerprint is the print's equivalence.
func FuzzParseQuery(f *testing.F) {
	for _, v := range xmark.Views() {
		f.Add(v.Text)
	}
	f.Add("for $x in //a return if ($x/b) then <w>{$x/c}</w> else ()")
	f.Add("//c/ancestor::b")
	f.Add("((((((((//a))))))))")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := xquery.ParseQuery(input)
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("ParseQuery returned nil query with nil error")
		}
		_ = q.String()
		_ = xquery.QuasiClosedQuery(q)
		canon := xquery.CanonicalQuery(xquery.Normalize(q))
		q2, err := xquery.ParseQuery(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if a, b := xquery.FingerprintQuery(q), xquery.FingerprintQuery(q2); a != b {
			t.Fatalf("re-parsing the canonical form %q changed the fingerprint %s to %s", canon, a, b)
		}
	})
}

// FuzzParseUpdate is the update-side twin of FuzzParseQuery, with the
// same fingerprint check.
func FuzzParseUpdate(f *testing.F) {
	for _, u := range xmark.Updates() {
		f.Add(u.Text)
	}
	f.Add("for $x in //b return insert <c/> into $x")
	f.Add("for $x in //a/c return replace $x with <c/>")
	f.Add("delete //b//c")
	f.Add("()")
	f.Fuzz(func(t *testing.T, input string) {
		u, err := xquery.ParseUpdate(input)
		if err != nil {
			return
		}
		if u == nil {
			t.Fatal("ParseUpdate returned nil update with nil error")
		}
		_ = u.String()
		_ = xquery.QuasiClosedUpdate(u)
		canon := xquery.CanonicalUpdate(xquery.NormalizeUpdate(u))
		u2, err := xquery.ParseUpdate(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if a, b := xquery.FingerprintUpdate(u), xquery.FingerprintUpdate(u2); a != b {
			t.Fatalf("re-parsing the canonical form %q changed the fingerprint %s to %s", canon, a, b)
		}
	})
}
