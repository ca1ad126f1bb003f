package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"xqindep"
	"xqindep/internal/dtd"
	"xqindep/internal/plan"
	"xqindep/internal/server"
)

// compiledNow resolves the resident compiled artifact for the schema
// text through the process-wide compile tier.
func compiledNow(t *testing.T, d *dtd.DTD) *dtd.Compiled {
	t.Helper()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPurgeReachesEveryHolder is the containment promise of quarantine:
// after a schema's fingerprint is purged from the compile and plan
// tiers, the next cold build from any holder of the schema — the HTTP
// handler's schema tier, a library Schema served by a Pool — recompiles
// it instead of reusing the purged artifact, and infers the update
// again instead of adopting a side from the plan cache's update tier.
func TestPurgeReachesEveryHolder(t *testing.T) {
	t.Run("http", func(t *testing.T) {
		const schema = "shelf <- box*\nbox <- label, weight?\nlabel <- #PCDATA\nweight <- #PCDATA"
		d := dtd.MustParse(schema)
		plans := plan.NewCache(16)
		s := server.New(server.Config{Workers: 1, Plans: plans})
		defer s.Close()
		h := server.NewHandler(s)
		analyze := func() server.AnalyzeResponse {
			t.Helper()
			body, _ := json.Marshal(server.AnalyzeRequest{Schema: schema, Query: "//label", Update: "delete //weight"})
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest("POST", "/analyze", bytes.NewReader(body)))
			var resp server.AnalyzeResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 {
				t.Fatalf("POST /analyze = %d: %s", rw.Code, rw.Body.String())
			}
			return resp
		}

		if resp := analyze(); resp.Plan != "cold" || !resp.Independent {
			t.Fatalf("first request: %+v", resp)
		}
		if st := plans.Stats().Update; st.Resident != 1 || st.Misses != 1 {
			t.Fatalf("update tier after the first request: %+v", st)
		}
		purged := compiledNow(t, d)
		dtd.PurgeCompiled(d.Fingerprint())
		plans.PurgeSchema(d.Fingerprint())
		if st := plans.Stats().Update; st.Resident != 0 || st.Purges != 1 {
			t.Fatalf("update tier after the purge: %+v, want nothing of the schema resident", st)
		}

		before := dtd.CompileCacheStats().Misses
		if resp := analyze(); resp.Plan != "cold" || !resp.Independent {
			t.Fatalf("request after purge: %+v", resp)
		}
		if got := dtd.CompileCacheStats().Misses - before; got != 1 {
			t.Fatalf("request after purge compiled %d times, want 1", got)
		}
		if st := plans.Stats().Update; st.Misses != 2 || st.Hits != 0 {
			t.Fatalf("update tier after the rebuild: %+v, want the update inferred again as a second miss", st)
		}
		if compiledNow(t, d) == purged {
			t.Fatal("the purged artifact is still resident")
		}
	})

	t.Run("pool", func(t *testing.T) {
		s := xqindep.MustParseSchema("crate <- tin*\ntin <- tag, mass?\ntag <- #PCDATA\nmass <- #PCDATA")
		p := xqindep.NewPool(xqindep.PoolOptions{Workers: 1})
		defer p.Close()
		analyze := func(q, u string) xqindep.Report {
			t.Helper()
			r, err := p.Analyze(context.Background(), s, xqindep.MustParseQuery(q), xqindep.MustParseUpdate(u), xqindep.Chains, xqindep.Options{})
			if err != nil || r.Plan != "cold" {
				t.Fatalf("%s | %s: %+v, %v", q, u, r, err)
			}
			return r
		}

		analyze("//tag", "delete //mass")
		purged := compiledNow(t, s.DTD())
		dtd.PurgeCompiled(s.Fingerprint())

		// The pool's plans are private, so a pair it has not seen stands
		// in for a purged one: its cold build must recompile.
		before := dtd.CompileCacheStats().Misses
		analyze("//mass", "delete //tag")
		if got := dtd.CompileCacheStats().Misses - before; got != 1 {
			t.Fatalf("cold build after purge compiled %d times, want 1", got)
		}
		if compiledNow(t, s.DTD()) == purged {
			t.Fatal("the purged artifact is still resident")
		}
	})
}
