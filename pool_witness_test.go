package xqindep

import (
	"context"
	"slices"
	"testing"
)

// TestReportWitnessesDoNotAliasPlan writes to a served report's
// witnesses and checks the resident plan it came from is unharmed: the
// next request for the pair is still a verified warm hit with the
// original witnesses.
func TestReportWitnessesDoNotAliasPlan(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	schema := MustParseSchema(bibSchema)
	q, u := MustParseQuery("//title"), MustParseUpdate("delete //title")

	first, err := p.Analyze(context.Background(), schema, q, u, Chains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Witnesses) == 0 {
		t.Fatalf("dependent pair served no witnesses: %+v", first)
	}
	want := slices.Clone(first.Witnesses)
	for i := range first.Witnesses {
		first.Witnesses[i] = "tampered"
	}

	again, err := p.Analyze(context.Background(), schema, q, u, Chains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Plan != "warm" {
		t.Fatalf("re-analysis served %q, want a warm hit", again.Plan)
	}
	if !slices.Equal(again.Witnesses, want) {
		t.Fatalf("witnesses %v after caller write, want %v", again.Witnesses, want)
	}
	if st := p.PlanStats(); st.VerifyFailures != 0 {
		t.Fatalf("caller write reached the resident plan: %d verify failures", st.VerifyFailures)
	}
}
