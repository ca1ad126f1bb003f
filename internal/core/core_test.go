package core

import (
	"context"
	"strings"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/xquery"
)

var bib = dtd.MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- #PCDATA
price <- #PCDATA
`)

func TestMethods(t *testing.T) {
	for _, c := range []struct {
		name string
		m    Method
	}{
		{"chains", MethodChains},
		{"chains-exact", MethodChainsExact},
		{"types", MethodTypes},
		{"paths", MethodPaths},
	} {
		if c.m.String() != c.name {
			t.Errorf("String(%v) = %q", c.m, c.m.String())
		}
		m, err := ParseMethod(c.name)
		if err != nil || m != c.m {
			t.Errorf("ParseMethod(%q) = %v, %v", c.name, m, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Errorf("ParseMethod(bogus) should fail")
	}
	if !strings.Contains(Method(99).String(), "99") {
		t.Errorf("unknown method string")
	}
}

func TestAnalyzeAllMethods(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("for $x in //book return insert <author>x</author> into $x")
	want := map[Method]bool{
		MethodChains:      true,
		MethodChainsExact: true,
		MethodTypes:       false,
		MethodPaths:       false,
	}
	for m, indep := range want {
		r, err := a.Analyze(q, u, m)
		if err != nil {
			t.Fatalf("Analyze(%v): %v", m, err)
		}
		if r.Independent != indep {
			t.Errorf("%v: independent = %v, want %v (witnesses %v)", m, r.Independent, indep, r.Witnesses)
		}
		if !r.Independent && len(r.Witnesses) == 0 {
			t.Errorf("%v: dependent verdict without witnesses", m)
		}
		if r.Method != m {
			t.Errorf("method echoed wrong")
		}
		if r.Elapsed <= 0 {
			t.Errorf("%v: no elapsed time", m)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("$free/title")
	u := xquery.MustParseUpdate("delete //price")
	if _, err := a.Analyze(q, u, MethodChains); err == nil {
		t.Errorf("free query variable accepted")
	}
	q2 := xquery.MustParseQuery("//title")
	u2 := xquery.MustParseUpdate("delete $other/price")
	if _, err := a.Analyze(q2, u2, MethodChains); err == nil {
		t.Errorf("free update variable accepted")
	}
	if _, err := a.Analyze(nil, u, MethodChains); err == nil {
		t.Errorf("nil query accepted")
	}
	if _, err := a.Analyze(q2, xquery.MustParseUpdate("()"), Method(42)); err == nil {
		t.Errorf("unknown method accepted")
	}
}

// Without Options.Plans nothing is cached: a second analysis of the
// same pair builds its plan again.
func TestNoPlansBuildsEveryPlanCold(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.PrepareQuery("", xquery.MustParseQuery("//author"))
	u := xquery.PrepareUpdate("", xquery.MustParseUpdate("delete //price"))
	for i := 0; i < 2; i++ {
		r, err := a.AnalyzePrepared(context.Background(), q, u, MethodChains, Options{})
		if err != nil || r.Plan != "cold" {
			t.Fatalf("analysis %d: %+v, %v, want a cold build", i+1, r, err)
		}
	}
}
