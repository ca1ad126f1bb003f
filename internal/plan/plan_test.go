package plan_test

import (
	"context"
	"errors"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xquery"
)

var bib = dtd.MustParse(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- #PCDATA
price <- #PCDATA
`)

func compiled(t *testing.T) *dtd.Compiled {
	t.Helper()
	c, err := dtd.Compile(bib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// prepare wraps plan.Prepare with the guard boundary a production
// caller (core.analyzeOnce) installs, so budget aborts surface as
// errors instead of panics.
func prepare(cache *plan.Cache, c *dtd.Compiled, qs, us string, lim guard.Limits) (ce *plan.CompiledExpr, warm bool, err error) {
	defer guard.Recover(&err)
	b := guard.New(context.Background(), lim)
	var perr error
	ce, warm, perr = plan.Prepare(cache, c, xquery.MustParseQuery(qs), xquery.MustParseUpdate(us), b)
	if err == nil {
		err = perr
	}
	return ce, warm, err
}

func TestPrepareColdThenWarm(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)

	ce1, warm, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatalf("cold Prepare: %v", err)
	}
	if warm {
		t.Fatal("first Prepare reported warm")
	}
	if err := ce1.Verify(); err != nil {
		t.Fatalf("fresh plan fails Verify: %v", err)
	}
	if !ce1.Verdict().Independent {
		t.Fatal("//title vs delete //price should be independent")
	}

	// A sugared, whitespace-mangled variant of the same logical pair
	// must hit the same plan.
	ce2, warm, err := prepare(cache, c, "  /descendant-or-self::node()/child::title ", "delete   //price", guard.Limits{})
	if err != nil {
		t.Fatalf("warm Prepare: %v", err)
	}
	if !warm {
		t.Fatal("sugared variant missed the cache")
	}
	if ce2 != ce1 {
		t.Fatal("warm hit returned a different instance than the resident")
	}

	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 resident", st)
	}
	if len(st.Schemas) != 1 || st.Schemas[0].Fingerprint != bib.Fingerprint() || st.Schemas[0].Plans != 1 {
		t.Fatalf("schema stats = %+v", st.Schemas)
	}
}

func TestFingerprintsDistinguishPairs(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	a, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, warm, err := prepare(cache, c, "//title", "delete //author", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("distinct update hit the cache")
	}
	if a.PairFingerprint() == b.PairFingerprint() {
		t.Fatal("distinct pairs share a pair fingerprint")
	}
	if a.QueryFingerprint() != b.QueryFingerprint() {
		t.Fatal("same query got different query fingerprints")
	}
	if a.SchemaFingerprint() != bib.Fingerprint() {
		t.Fatalf("schema fingerprint %q, want %q", a.SchemaFingerprint(), bib.Fingerprint())
	}
}

func TestCorruptCloneFailsVerifyResidentIntact(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	ce, _, err := prepare(cache, c, "//title", "delete //title", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cc := ce.CorruptClone()
	if err := cc.Verify(); err == nil {
		t.Fatal("corrupted clone passes Verify")
	}
	if cc.Verdict().Independent == ce.Verdict().Independent {
		t.Fatal("corrupted clone did not flip the verdict")
	}
	if err := ce.Verify(); err != nil {
		t.Fatalf("original damaged by CorruptClone: %v", err)
	}
	for _, r := range cache.Residents() {
		if err := r.Verify(); err != nil {
			t.Fatalf("resident damaged by CorruptClone: %v", err)
		}
	}
}

func TestWarmHitRechecksMaxK(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	// Cold build under permissive limits: k = kq + ku = 2 + 2 (one
	// recursive axis and one tag occurrence per side).
	ce, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ce.K() != 4 {
		t.Fatalf("k = %d, want 4", ce.K())
	}
	// The same pair under a stingier request must degrade even though
	// the plan is resident: admission is per-request.
	_, _, err = prepare(cache, c, "//title", "delete //price", guard.Limits{MaxK: 3})
	if err == nil {
		t.Fatal("warm hit ignored the request's MaxK")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestColdBuildRespectsMaxK(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	_, _, err := prepare(cache, c, "//title", "delete //price", guard.Limits{MaxK: 1})
	if err == nil {
		t.Fatal("cold build ignored MaxK")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	if st := cache.Stats(); st.Resident != 0 {
		t.Fatalf("rejected build left a resident: %+v", st)
	}
}

func TestPurgeSchema(t *testing.T) {
	other := dtd.MustParse(`
r <- a*
a <- #PCDATA
`)
	cb, err := dtd.Compile(bib)
	if err != nil {
		t.Fatal(err)
	}
	co, err := dtd.Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(16)
	if _, _, err := prepare(cache, cb, "//title", "delete //price", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prepare(cache, cb, "//author", "delete //price", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prepare(cache, co, "//a", "delete //a", guard.Limits{}); err != nil {
		t.Fatal(err)
	}
	if n := cache.PurgeSchema(bib.Fingerprint()); n != 2 {
		t.Fatalf("PurgeSchema dropped %d plans, want 2", n)
	}
	res := cache.Residents()
	if len(res) != 1 || res[0].SchemaFingerprint() != other.Fingerprint() {
		t.Fatalf("wrong survivors after PurgeSchema: %d residents", len(res))
	}
	// Purged pair rebuilds cold.
	_, warm, err := prepare(cache, cb, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("purged plan served warm")
	}
	if st := cache.Stats(); st.Purges != 2 {
		t.Fatalf("stats.Purges = %d, want 2", st.Purges)
	}
}

func TestLRUEviction(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(2)
	pairs := [][2]string{
		{"//title", "delete //price"},
		{"//author", "delete //price"},
		{"//price", "delete //author"},
	}
	for _, p := range pairs {
		if _, _, err := prepare(cache, c, p[0], p[1], guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 resident, 1 eviction", st)
	}
	// The least-recently-hit plan (the first) was the victim.
	_, warm, err := prepare(cache, c, pairs[0][0], pairs[0][1], guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("evicted plan served warm")
	}
}

func TestNilCacheBuildsCold(t *testing.T) {
	c := compiled(t)
	ce, warm, err := prepare(nil, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("nil cache reported warm")
	}
	if err := ce.Verify(); err != nil {
		t.Fatalf("uncached plan fails Verify: %v", err)
	}
	ce2, warm, err := prepare(nil, c, "//title", "delete //price", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if warm || ce2 == ce {
		t.Fatal("nil cache cached anyway")
	}
}

func TestVerifyAndWarmHitAllocateNothing(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	ce, _, err := prepare(cache, c, "//title", "delete //title", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ce.Verify() }); n != 0 {
		t.Fatalf("Verify allocates %v times per call, want 0", n)
	}
	schemaFP, pairFP := ce.SchemaFingerprint(), ce.PairFingerprint()
	cold := func() *plan.CompiledExpr {
		t.Fatal("warm Get ran the cold build")
		return nil
	}
	if n := testing.AllocsPerRun(100, func() { cache.Get(schemaFP, pairFP, cold) }); n != 0 {
		t.Fatalf("warm Get allocates %v times per hit, want 0", n)
	}
}

func TestResidentsCarryNoChainSets(t *testing.T) {
	c := compiled(t)
	cache := plan.NewCache(16)
	pairs := [][2]string{
		{"//title", "delete //price"},
		{"//title", "delete //title"},
		{"//author", "for $x in //book return insert <author>x</author> into $x"},
	}
	for _, p := range pairs {
		if _, _, err := prepare(cache, c, p[0], p[1], guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	res := cache.Residents()
	if len(res) != len(pairs) {
		t.Fatalf("%d residents, want %d", len(res), len(pairs))
	}
	for _, ce := range res {
		v := ce.Verdict()
		if v.Query.Ret != nil || v.Query.Used != nil || v.Query.Elem != nil || v.Update != nil {
			t.Fatalf("resident %s keeps chain sets", ce.PairFingerprint())
		}
		if v.K != ce.K() || v.Independent != (len(v.Reasons) == 0) {
			t.Fatalf("resident %s decision inconsistent: %+v", ce.PairFingerprint(), v)
		}
	}
}
