package dtd

import (
	"strings"
	"testing"

	"xqindep/internal/guard"
)

func TestParseLimits(t *testing.T) {
	nestedModel := func(n int) string {
		return "doc <- " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + "\na <- ()\n"
	}
	const defDepth, defInput = guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput
	cases := []struct {
		name               string
		input              string
		maxDepth, maxInput int
		ok                 bool
	}{
		{"normal schema", "doc <- (a | b)*\na <- ()\nb <- ()", 64, defInput, true},
		{"nesting under limit", nestedModel(10), 64, defInput, true},
		{"nesting over limit", nestedModel(200), 64, defInput, false},
		{"default depth rejects pathological nesting", nestedModel(100000), defDepth, defInput, false},
		{"input under size limit", "doc <- ()", defDepth, 64, true},
		{"input over size limit", "doc <- ()" + strings.Repeat(" ", 100), defDepth, 64, false},
		{"classic notation nesting over limit",
			"<!ELEMENT doc " + strings.Repeat("(", 200) + "a" + strings.Repeat(")", 200) + "><!ELEMENT a EMPTY>",
			64, defInput, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(c.input, c.maxDepth, c.maxInput)
			if c.ok && err != nil {
				t.Errorf("parse = %v, want success", err)
			}
			if !c.ok && err == nil {
				t.Errorf("parse succeeded, want limit error")
			}
		})
	}
}

func TestRegexValidate(t *testing.T) {
	cases := []struct {
		name string
		r    *Regex
		ok   bool
	}{
		{"epsilon", Epsilon(), true},
		{"symbol", Sym("a"), true},
		{"well-formed composite", Star(Alt(Sym("a"), Seq(Sym("b"), Sym("c")))), true},
		{"nil regex", nil, false},
		{"unknown op", &Regex{Op: Op(99)}, false},
		{"empty symbol", &Regex{Op: OpSym}, false},
		{"unary sequence", &Regex{Op: OpSeq, Kids: []*Regex{Sym("a")}}, false},
		{"childless star", &Regex{Op: OpStar}, false},
		{"invalid nested child", Star(&Regex{Op: Op(99)}), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.r.Validate()
			if c.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !c.ok && err == nil {
				t.Errorf("Validate = nil, want error")
			}
		})
	}
}

// TestNewRejectsInvalidRegex: DTD construction validates content
// models instead of panicking later in NFA compilation.
func TestNewRejectsInvalidRegex(t *testing.T) {
	_, err := New("doc", map[string]*Regex{"doc": {Op: Op(99)}})
	if err == nil {
		t.Fatal("New accepted an invalid content model")
	}
}
