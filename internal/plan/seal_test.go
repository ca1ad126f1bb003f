package plan

import (
	"context"
	"testing"
	"unsafe"

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
	if len(ce.reasons) == 0 {
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
		{"decision", func(cc *CompiledExpr) { cc.Independent = !cc.Independent }},
		{"K", func(cc *CompiledExpr) { cc.k++ }},
		{"reason", func(cc *CompiledExpr) {
			cc.reasons = append([]string(nil), cc.reasons...)
			cc.reasons[0] = "confl(x,y)"
		}},
		{"dropped reason", func(cc *CompiledExpr) { cc.reasons = cc.reasons[1:] }},
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

// TestCompiledExprSize pins a resident plan's header at 48 bytes, one
// size class: the decision, k, the reasons slice and the checksum. A
// whole cdag.Verdict, whose chain fields a plan never fills, made it
// 80 bytes, about 35 KiB more over the 1,116 XMark plans.
func TestCompiledExprSize(t *testing.T) {
	if n := unsafe.Sizeof(CompiledExpr{}); n != 48 {
		t.Fatalf("CompiledExpr is %d bytes, want 48", n)
	}
}
