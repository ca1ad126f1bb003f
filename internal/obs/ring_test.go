package obs

import (
	"reflect"
	"testing"
)

// The ring keeps exactly the N slowest traces, slowest first, and ties
// rank by arrival so a flood of identical requests cannot churn it.
func TestSlowRingOrderAndEviction(t *testing.T) {
	r := NewSlowRing(3)
	for _, us := range []int64{100, 300, 200, 50, 250, 300} {
		r.Add(RingEntry{TotalUS: us, Outcome: "ok"})
	}
	got := r.Snapshot()
	want := []int64{300, 300, 250}
	if len(got) != len(want) {
		t.Fatalf("ring holds %d, want %d", len(got), len(want))
	}
	for i, us := range want {
		if got[i].TotalUS != us {
			t.Errorf("ring[%d] = %dµs, want %dµs (full: %+v)", i, got[i].TotalUS, us, got)
		}
	}
	st := r.Status()
	if st.Capacity != 3 || st.Held != 3 || st.Added != 6 || st.Evicted != 3 {
		t.Errorf("status = %+v, want capacity 3 held 3 added 6 evicted 3", st)
	}
}

// Equal totals keep arrival order: the earlier entry ranks higher and
// a later equal entry at capacity is discarded, not swapped in.
func TestSlowRingStableTies(t *testing.T) {
	r := NewSlowRing(2)
	r.Add(RingEntry{TotalUS: 100, Query: "first"})
	r.Add(RingEntry{TotalUS: 100, Query: "second"})
	r.Add(RingEntry{TotalUS: 100, Query: "third"}) // not slower: discarded
	got := r.Snapshot()
	if len(got) != 2 || got[0].Query != "first" || got[1].Query != "second" {
		t.Errorf("tie order churned: %+v", got)
	}
}

// Admits agrees with Add: it admits anything while the ring has room,
// then only an entry slower than the fastest kept, and the bar never
// falls, so an entry it rejects stays rejected.
func TestSlowRingAdmits(t *testing.T) {
	r := NewSlowRing(2)
	for _, us := range []int64{100, 200} {
		if !r.Admits(us) {
			t.Fatalf("a ring with room rejected %dµs", us)
		}
		r.Add(RingEntry{TotalUS: us})
	}
	for _, us := range []int64{50, 100, 101, 300} {
		held := r.Snapshot()
		added := r.Admits(us)
		r.Add(RingEntry{TotalUS: us})
		if kept := !reflect.DeepEqual(held, r.Snapshot()); kept != added {
			t.Errorf("Admits(%d) = %v, but Add kept it: %v", us, added, kept)
		}
	}
	if r.Admits(101) {
		t.Error("the bar fell: 101µs admitted after 300µs")
	}
	var none *SlowRing
	if none.Admits(1 << 40) {
		t.Error("a nil ring admitted an entry")
	}
}

func TestSlowRingNilAndMin(t *testing.T) {
	var r *SlowRing
	r.Add(RingEntry{TotalUS: 1}) // must not panic
	if r.Snapshot() != nil || r.Status() != (RingStatus{}) {
		t.Error("nil ring must report zero values")
	}
	one := NewSlowRing(0) // clamped to 1
	one.Add(RingEntry{TotalUS: 1})
	one.Add(RingEntry{TotalUS: 2})
	if got := one.Snapshot(); len(got) != 1 || got[0].TotalUS != 2 {
		t.Errorf("min-capacity ring = %+v, want the single slowest", got)
	}
}
