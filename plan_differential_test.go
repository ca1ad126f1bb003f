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

// TestCollidingPairsBuildTheirOwnPlans: a plan key that two pairs share
// serves the first pair's verdict to the second. Each row below is two
// queries whose former 64-bit FNV-64a fingerprints collided, and so did
// their pair keys with UN1; the string literals were found by a
// distinguished-point birthday search over 16-hex-digit literal
// content, about 10^10 FNV-64a evaluations each. With one cache serving
// both, as a Pool's does, the independent pair went first and the
// dependent one was then served warm and Independent. Each must build
// its own plan and get its own verdict.
func TestCollidingPairsBuildTheirOwnPlans(t *testing.T) {
	s, err := ParseSchema(xmark.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	un1, ok := xmark.UpdateByName("UN1")
	if !ok {
		t.Fatal("no update UN1")
	}
	u := MustParseUpdate(un1.Text)
	collisions := []struct{ independent, dependent string }{
		{`(//person/name, "26c8c6e4ceed86e3")`, `(//closed_auction//bold, "0d9285e29982f9c0")`},
		{`(//person/name, "807a89534ad18017")`, `(//closed_auction//bold, "452ee8b9297572d0")`},
	}
	queryFPs := make(map[string]string)
	pairFPs := make(map[string]string)
	distinct := func(seen map[string]string, fp, name string) {
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share the fingerprint %s", other, name, fp)
		}
		seen[fp] = name
	}
	ctx := context.Background()
	for _, c := range collisions {
		p := NewPool(PoolOptions{Workers: 1})
		for _, want := range []struct {
			query       string
			independent bool
		}{{c.independent, true}, {c.dependent, false}} {
			q := MustParseQuery(want.query)
			distinct(queryFPs, q.Fingerprint(), want.query)
			distinct(pairFPs, PairFingerprint(q, u), want.query+" × UN1")
			rep, err := p.Analyze(ctx, s, q, u, Chains, Options{})
			if err != nil {
				t.Fatalf("%s × UN1: %v", want.query, err)
			}
			if rep.Plan != "cold" || rep.Independent != want.independent {
				t.Errorf("%s × UN1: plan %q, independent %v; want a cold build, independent %v",
					want.query, rep.Plan, rep.Independent, want.independent)
			}
		}
		p.Close()
	}
}
