package chain

import (
	"reflect"
	"testing"
)

func TestParseChainRejectsEmptySymbols(t *testing.T) {
	cases := []struct {
		in   string
		want Chain // nil means error expected when wantErr
		err  bool
	}{
		{in: "", want: nil},
		{in: "doc", want: Chain{"doc"}},
		{in: "doc.a.c", want: Chain{"doc", "a", "c"}},
		{in: ".", err: true},
		{in: "a..b", err: true},
		{in: ".a", err: true},
		{in: "a.", err: true},
		{in: "..", err: true},
		{in: "a...b", err: true},
	}
	for _, c := range cases {
		got, err := ParseChain(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseChain(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseChain(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseChain(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseUpdateChainRejectsEmptySymbols(t *testing.T) {
	good, err := ParseUpdateChain("bib.book:author.first")
	if err != nil || good.Target.String() != "bib.book" || good.Change.String() != "author.first" {
		t.Fatalf("ParseUpdateChain = %v, %v", good, err)
	}
	for _, in := range []string{"a..b:c", "a:b..c", ".a:b", "a.:b", "a:.b", "a:b."} {
		if u, err := ParseUpdateChain(in); err == nil {
			t.Errorf("ParseUpdateChain(%q) = %v, want error", in, u)
		}
	}
}

func TestMustParsePanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseChain on malformed input did not panic")
		}
	}()
	MustParseChain("a..b")
}
