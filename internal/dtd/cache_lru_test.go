package dtd

import (
	"fmt"
	"reflect"
	"testing"
)

// smallSchema builds a distinct tiny DTD; i varies the root label so
// each schema has its own fingerprint.
func smallSchema(t *testing.T, i int) *DTD {
	t.Helper()
	d, err := Parse(fmt.Sprintf("r%d <- a, b\na <- #PCDATA\nb <- #PCDATA", i))
	if err != nil {
		t.Fatalf("parse schema %d: %v", i, err)
	}
	return d
}

func residentFingerprints(cc *compileCache) []string {
	var out []string
	cc.Range(func(fp string, _ *Compiled) bool {
		out = append(out, fp)
		return true
	})
	return out
}

// TestLRUEvictionOrder pins the compile tier's eviction order: the
// least-recently-hit resident is evicted first, and a hit refreshes
// recency.
func TestLRUEvictionOrder(t *testing.T) {
	cc := newCompileCache(3)
	d := make([]*DTD, 4)
	for i := range d {
		d[i] = smallSchema(t, i)
	}
	for i := 0; i < 3; i++ {
		if _, err := compileIn(cc, d[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Recency now 2 > 1 > 0. Hit 0 to refresh it: 0 > 2 > 1.
	if _, err := compileIn(cc, d[0]); err != nil {
		t.Fatal(err)
	}
	// Insert a fourth schema: d[1] (least recently hit) must go.
	if _, err := compileIn(cc, d[3]); err != nil {
		t.Fatal(err)
	}
	want := []string{d[3].Fingerprint(), d[0].Fingerprint(), d[2].Fingerprint()}
	if got := residentFingerprints(cc); !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU order after eviction = %v, want %v", got, want)
	}
	if st := cc.Stats(); st.Evictions != 1 || st.Resident != 3 {
		t.Fatalf("stats after one eviction: %+v", st)
	}
}

func TestCachePurge(t *testing.T) {
	d := smallSchema(t, 100)
	c1, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	before := CompileCacheStats()
	if !PurgeCompiled(d.Fingerprint()) {
		t.Fatal("purge of resident fingerprint reported false")
	}
	if PurgeCompiled(d.Fingerprint()) {
		t.Fatal("purge of absent fingerprint reported true")
	}
	c2, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("purge did not force a recompile")
	}
	st := CompileCacheStats()
	if st.Purges != before.Purges+1 || st.Misses != before.Misses+1 {
		t.Fatalf("stats after purge+recompile: %+v -> %+v", before.Stats, st.Stats)
	}
}

// TestVerifyOnHitRepairsCorruption corrupts the resident artifact in
// place and checks the next lookup detects it, recompiles, and serves a
// valid artifact.
func TestVerifyOnHitRepairsCorruption(t *testing.T) {
	cc := newCompileCache(4)
	d := smallSchema(t, 0)
	c1, err := compileIn(cc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the resident's label map the way a stray shared write
	// would.
	c1.byLabel[d.LabelOf(c1.syms[0])].Remove(0)
	c2, err := compileIn(cc, d)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("corrupted resident served from cache")
	}
	if err := c2.Verify(); err != nil {
		t.Fatalf("recompiled artifact fails Verify: %v", err)
	}
	if st := cc.Stats(); st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1: %+v", st.VerifyFailures, st)
	}
}
