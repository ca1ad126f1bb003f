package xmltree

import (
	"strings"
	"testing"

	"xqindep/internal/guard"
)

func nestedDoc(n int) string {
	return strings.Repeat("<a>", n) + strings.Repeat("</a>", n)
}

func wideDoc(n int) string {
	var b strings.Builder
	b.WriteString("<doc>")
	for i := 0; i < n; i++ {
		b.WriteString("<a/>")
	}
	b.WriteString("</doc>")
	return b.String()
}

func TestParseLimits(t *testing.T) {
	const defDepth, defInput, defNodes = guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput, guard.DefaultMaxNodes
	cases := []struct {
		name                         string
		doc                          string
		maxDepth, maxInput, maxNodes int
		ok                           bool
	}{
		{"normal document", "<doc><a>x</a></doc>", 16, defInput, 64, true},
		{"depth at boundary", nestedDoc(16), 16, defInput, defNodes, true},
		{"depth one past boundary", nestedDoc(17), 16, defInput, defNodes, false},
		{"default depth rejects pathological nesting", nestedDoc(100000), defDepth, defInput, defNodes, false},
		{"node count at boundary", wideDoc(63), defDepth, defInput, 64, true},
		{"node count past boundary", wideDoc(64), defDepth, defInput, 64, false},
		{"input under size limit", "<doc/>", defDepth, 64, defNodes, true},
		{"input over size limit", "<doc>" + strings.Repeat("x", 100) + "</doc>", defDepth, 64, defNodes, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(strings.NewReader(c.doc), c.maxDepth, c.maxInput, c.maxNodes)
			if c.ok && err != nil {
				t.Errorf("parse = %v, want success", err)
			}
			if !c.ok && err == nil {
				t.Errorf("parse succeeded, want limit error")
			}
		})
	}
}
