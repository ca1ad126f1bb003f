package xqindep

import (
	"context"
	"fmt"
	"testing"

	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xmark"
)

// TestPreparedMatrixMatchesCold is the plan cache's equivalence proof:
// over the full 36×31 XMark matrix, a verdict served from a warm
// prepared plan must be byte-identical — Independent, Method, K and
// every witness string — to the verdict the cold build produced.
// Elapsed and the Plan provenance tag are the only fields allowed to
// differ. Run under -race (scripts/ci.sh does) this also exercises the
// cache's locking on the exact production access pattern.
func TestPreparedMatrixMatchesCold(t *testing.T) {
	a := core.NewAnalyzer(xmark.Schema())
	views, updates := xmark.Views(), xmark.Updates()
	if testing.Short() {
		views, updates = views[:8], updates[:8]
	}
	cache := plan.NewCache(plan.DefaultCacheSize)
	opts := core.Options{Plans: cache}
	ctx := context.Background()

	// fingerprint flattens the comparable part of a result; Elapsed and
	// Plan are deliberately excluded.
	fingerprint := func(r core.Result) string {
		return fmt.Sprintf("indep=%v method=%s k=%d degraded=%v witnesses=%q",
			r.Independent, r.Method, r.K, r.Degraded, r.Witnesses)
	}

	cold := make(map[string]string, len(views)*len(updates))
	for _, v := range views {
		for _, u := range updates {
			res, err := a.AnalyzeContext(ctx, v.AST, u.AST, core.MethodChains, opts)
			if err != nil {
				t.Fatalf("cold %s×%s: %v", v.Name, u.Name, err)
			}
			if res.Plan != "cold" {
				t.Fatalf("cold %s×%s served %q", v.Name, u.Name, res.Plan)
			}
			cold[v.Name+"×"+u.Name] = fingerprint(res)
		}
	}
	if st := cache.Stats(); st.Resident != int64(len(views)*len(updates)) {
		t.Fatalf("cold pass cached %d plans, want %d", st.Resident, len(views)*len(updates))
	}

	for _, v := range views {
		for _, u := range updates {
			res, err := a.AnalyzeContext(ctx, v.AST, u.AST, core.MethodChains, opts)
			if err != nil {
				t.Fatalf("warm %s×%s: %v", v.Name, u.Name, err)
			}
			if res.Plan != "warm" {
				t.Fatalf("warm %s×%s served %q", v.Name, u.Name, res.Plan)
			}
			key := v.Name + "×" + u.Name
			if got := fingerprint(res); got != cold[key] {
				t.Errorf("%s: warm verdict diverged from cold\ncold: %s\nwarm: %s", key, cold[key], got)
			}
		}
	}
}

// TestPairFingerprintIsThePlanCacheKey pins what xqindep -show-plan
// prints as the key the plan cache uses: after one cold build, the
// cache answers (Schema.Fingerprint, PairFingerprint) from the resident
// without running a builder, even for a differently sugared spelling of
// the same pair.
func TestPairFingerprintIsThePlanCacheKey(t *testing.T) {
	s := MustParseSchema(bibSchema)
	c, err := dtd.Compile(s.DTD())
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(4)
	q, u := MustParseQuery("//title"), MustParseUpdate("delete //price")
	built, warm, err := plan.Prepare(cache, c, q.ast, u.ast, guard.New(context.Background(), guard.Limits{}))
	if err != nil || warm {
		t.Fatalf("first Prepare: warm=%v err=%v, want a cold build", warm, err)
	}
	sugared := MustParseQuery("/descendant-or-self::node()/child::title")
	got, warm := cache.Get(s.Fingerprint(), PairFingerprint(sugared, u), func() *plan.CompiledExpr {
		t.Fatal("Get under PairFingerprint ran the builder: it is not the cache key")
		return nil
	})
	if !warm || got != built {
		t.Fatalf("Get under PairFingerprint: warm=%v, same plan=%v", warm, got == built)
	}
}
