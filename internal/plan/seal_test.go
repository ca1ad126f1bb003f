package plan

import (
	"context"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// sealed builds the plan for a pair with conflict reasons, so every
// served field has something to tamper with.
func sealed(t *testing.T) *CompiledExpr {
	t.Helper()
	c, err := dtd.Compile(dtd.MustParse("bib <- book*\nbook <- title, price?\ntitle <- #PCDATA\nprice <- #PCDATA\n"))
	if err != nil {
		t.Fatal(err)
	}
	ce, _, err := Prepare(nil, c, xquery.MustParseQuery("//title"), xquery.MustParseUpdate("delete //title"),
		guard.New(context.Background(), guard.Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ce.verdict.Reasons) == 0 {
		t.Fatal("fixture pair has no conflict reasons")
	}
	return ce
}

// TestVerifyRejectsTamperedFields writes to each served field of a
// private copy and checks the seal catches it.
func TestVerifyRejectsTamperedFields(t *testing.T) {
	ce := sealed(t)
	cases := []struct {
		name   string
		tamper func(cc *CompiledExpr)
	}{
		{"decision", func(cc *CompiledExpr) { cc.verdict.Independent = !cc.verdict.Independent }},
		// k, kq and K move together so the structural k checks pass and
		// only the checksum can catch it.
		{"K", func(cc *CompiledExpr) { cc.kq++; cc.k++; cc.verdict.K++ }},
		{"reason", func(cc *CompiledExpr) {
			cc.verdict.Reasons = append([]string(nil), cc.verdict.Reasons...)
			cc.verdict.Reasons[0] = "confl(x,y)"
		}},
		{"dropped reason", func(cc *CompiledExpr) { cc.verdict.Reasons = cc.verdict.Reasons[1:] }},
		{"schema fingerprint", func(cc *CompiledExpr) { cc.schemaFP += "x" }},
		{"query fingerprint", func(cc *CompiledExpr) { cc.queryFP += "x" }},
		{"update fingerprint", func(cc *CompiledExpr) { cc.updateFP += "x" }},
		{"pair fingerprint", func(cc *CompiledExpr) { cc.pairFP += "x" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc := *ce
			tc.tamper(&cc)
			if err := cc.Verify(); err == nil {
				t.Fatal("tampered copy passes Verify")
			}
		})
	}
	if err := ce.Verify(); err != nil {
		t.Fatalf("original damaged by tampering its copies: %v", err)
	}
}
