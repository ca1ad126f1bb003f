package xquery

import (
	"strings"
	"testing"

	"xqindep/internal/guard"
)

// The parser's fixed bounds, for cases that tighten only the other one.
const defDepth, defInput = guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput

// nestedQuery builds n nested parenthesised expressions around $x.
func nestedQuery(n int) string {
	return strings.Repeat("(", n) + "$x" + strings.Repeat(")", n)
}

func TestParseQueryLimits(t *testing.T) {
	cases := []struct {
		name     string
		input    string
		maxDepth int
		maxInput int
		ok       bool
	}{
		{"depth under limit", nestedQuery(10), 64, defInput, true},
		{"depth at limit boundary", nestedQuery(30), 64, defInput, true},
		{"depth over limit", nestedQuery(200), 64, defInput, false},
		{"default depth accepts normal queries", "for $b in /bib/book return $b/title", defDepth, defInput, true},
		{"default depth rejects pathological nesting", nestedQuery(100000), defDepth, defInput, false},
		{"steps under limit", "/" + strings.Repeat("a/", 10) + "a", 64, defInput, true},
		{"steps over limit", "/" + strings.Repeat("a/", 200) + "a", 64, defInput, false},
		{"input under size limit", "//a", defDepth, 64, true},
		{"input over size limit", "//" + strings.Repeat("a", 100), defDepth, 64, false},
		{"nested predicates over limit", "//a" + strings.Repeat("[b", 200) + strings.Repeat("]", 200), 64, defInput, false},
		{"nested elements over limit", strings.Repeat("<a>", 200) + strings.Repeat("</a>", 200), 64, defInput, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseQuery(c.input, c.maxDepth, c.maxInput)
			if c.ok && err != nil {
				t.Errorf("parseQuery(%d bytes) = %v, want success", len(c.input), err)
			}
			if !c.ok && err == nil {
				t.Errorf("parseQuery(%d bytes) succeeded, want limit error", len(c.input))
			}
		})
	}
}

func TestParseUpdateLimits(t *testing.T) {
	deepUpdate := func(n int) string {
		return strings.Repeat("if ($x) then ", n) + "delete //a"
	}
	cases := []struct {
		name     string
		input    string
		maxDepth int
		maxInput int
		ok       bool
	}{
		{"normal update", "delete //a", 64, defInput, true},
		{"nesting under limit", deepUpdate(10), 64, defInput, true},
		{"nesting over limit", deepUpdate(200), 64, defInput, false},
		{"input over size limit", "delete //" + strings.Repeat("a", 100), defDepth, 64, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseUpdate(c.input, c.maxDepth, c.maxInput)
			if c.ok && err != nil {
				t.Errorf("parseUpdate = %v, want success", err)
			}
			if !c.ok && err == nil {
				t.Errorf("parseUpdate succeeded, want limit error")
			}
		})
	}
}
