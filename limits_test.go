package xqindep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestEveryLimitBinds sets each field of Limits to 1, alone, under a
// method that reads it, and requires the analysis to overrun: a field
// that no analysis reads has no case here and fails the test. The
// schema is the test's own and no case lets a plan be cached, so no
// warm plan can skip the cold build that MaxNodes bounds.
func TestEveryLimitBinds(t *testing.T) {
	s := MustParseSchema("lib <- shelf*\nshelf <- (book | shelf)*\nbook <- title, note?\ntitle <- #PCDATA\nnote <- #PCDATA")
	q := MustParseQuery("//shelf//book/title")
	u := MustParseUpdate("for $b in //book return insert <note/> into $b")
	methods := map[string]Method{"MaxK": Chains, "MaxChains": ChainsExact, "MaxNodes": Chains}
	fields := reflect.TypeOf(Limits{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		t.Run(name, func(t *testing.T) {
			m, ok := methods[name]
			if !ok {
				t.Fatalf("Limits.%s has no method that reads it", name)
			}
			var lim Limits
			reflect.ValueOf(&lim).Elem().Field(i).SetInt(1)
			rep, err := s.AnalyzeContext(context.Background(), q, u, m, Options{Limits: lim, NoFallback: true})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%v with %s = 1: report %+v, error %v; want an error wrapping ErrBudgetExceeded", m, name, rep, err)
			}
		})
	}
}

// TestParsersEnforceFixedBounds: every public parser rejects nesting
// far past 512 levels and input over 8 MiB, before any Limits exist.
func TestParsersEnforceFixedBounds(t *testing.T) {
	const deep = 4096
	pad := strings.Repeat(" ", 8<<20)
	parsers := []struct {
		name         string
		parse        func(string) error
		nested, long string
	}{
		{"ParseQuery", func(s string) error { _, err := ParseQuery(s); return err },
			strings.Repeat("(", deep) + "//a" + strings.Repeat(")", deep), "//a" + pad},
		{"ParseUpdate", func(s string) error { _, err := ParseUpdate(s); return err },
			strings.Repeat("if (//a) then ", deep) + "delete //a", "delete //a" + pad},
		{"ParseSchema", func(s string) error { _, err := ParseSchema(s); return err },
			"doc <- " + strings.Repeat("(", deep) + "a" + strings.Repeat(")", deep) + "\na <- ()", "doc <- ()" + pad},
		{"ParseDocument", func(s string) error { _, err := ParseDocument(strings.NewReader(s)); return err },
			strings.Repeat("<a>", deep) + strings.Repeat("</a>", deep), "<doc>" + pad + "</doc>"},
	}
	for _, p := range parsers {
		t.Run(p.name, func(t *testing.T) {
			for what, in := range map[string]string{"nesting": p.nested, "input size": p.long} {
				if err := p.parse(in); err == nil || !strings.Contains(err.Error(), "limit") {
					t.Errorf("%s past the %s bound: error %v, want a limit error", p.name, what, err)
				}
			}
		})
	}
}
