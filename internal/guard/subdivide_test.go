package guard

import "testing"

// The sentinel audit layer carves its sub-budget out of the serving
// budget with Subdivide; these tests pin the edge cases it relies on.

func TestSubdivideZeroAndOneWorker(t *testing.T) {
	l := Limits{MaxChains: 1000, MaxNodes: 2000}
	for _, n := range []int{-3, 0, 1} {
		got := l.Subdivide(n)
		if got.MaxChains != 1000 || got.MaxNodes != 2000 {
			t.Fatalf("Subdivide(%d) divided cumulative bounds: %+v", n, got)
		}
		// Zero fields must still be defaulted on the n<=1 path.
		if got.MaxK != DefaultMaxK {
			t.Fatalf("Subdivide(%d) skipped defaulting: %+v", n, got)
		}
	}
}

func TestSubdivideDividesCumulativeOnly(t *testing.T) {
	l := Limits{MaxK: 8, MaxChains: 1000, MaxNodes: 2000}
	got := l.Subdivide(4)
	if got.MaxChains != 250 || got.MaxNodes != 500 {
		t.Fatalf("cumulative bounds not divided by 4: %+v", got)
	}
	if got.MaxK != 8 {
		t.Fatalf("the structural bound must carry over unchanged: %+v", got)
	}
}

func TestSubdivideExhaustedParentKeepsMinimalShare(t *testing.T) {
	// A parent budget already ground down to (or below) one unit per
	// resource must still hand every worker a usable share of 1, never
	// 0 (a zero field would read as "use the default" downstream).
	l := Limits{MaxChains: 1, MaxNodes: 3}
	got := l.Subdivide(8)
	if got.MaxChains != 1 || got.MaxNodes != 1 {
		t.Fatalf("exhausted parent must floor shares at 1: %+v", got)
	}
}

func TestSubdivideNoLimitStaysNoLimit(t *testing.T) {
	l := Limits{MaxChains: NoLimit, MaxNodes: NoLimit}
	got := l.Subdivide(16)
	if got.MaxChains != NoLimit || got.MaxNodes != NoLimit {
		t.Fatalf("NoLimit must survive subdivision: %+v", got)
	}
}

func TestSubdivideOfSubdivide(t *testing.T) {
	// The audit layer subdivides an already-subdivided worker budget;
	// two rounds must compose multiplicatively for the cumulative
	// bounds.
	l := Limits{MaxChains: 1200, MaxNodes: 2400}
	got := l.Subdivide(3).Subdivide(4)
	if got.MaxChains != 100 || got.MaxNodes != 200 {
		t.Fatalf("nested subdivision: %+v", got)
	}
}
