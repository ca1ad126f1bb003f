package sentinel

import (
	"testing"

	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// TestCorruptArtifactChangesVerdictsAndAuditContainsThem runs the XMark
// matrix on the damaged copies dtd.Compiled.WithCorruption hands the
// corrupt-artifact chaos fault, seed by seed from 1 to 8 until one
// changes a verdict, which shows the damage lands on a table the dense
// engine reads. It then serves one verdict the damage made unsound to
// an auditor at sample rate 1, which must refute it from the source
// DTD and quarantine the schema.
func TestCorruptArtifactChangesVerdictsAndAuditContainsThem(t *testing.T) {
	d := xmark.Schema()
	c, err := dtd.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	views, updates := xmark.Views(), xmark.Updates()
	clean := make([]bool, len(views)*len(updates))
	for i, v := range views {
		for j, u := range updates {
			clean[i*len(updates)+j] = cdag.IndependenceCompiled(c, v.AST, u.AST).Independent
		}
	}

	type served struct {
		view    xmark.View
		update  xmark.Upd
		verdict cdag.Verdict
	}
	var (
		changed int
		unsound []served
	)
	for seed := int64(1); seed <= 8 && changed == 0; seed++ {
		bad := c.WithCorruption(seed)
		for i, v := range views {
			for j, u := range updates {
				got := cdag.IndependenceCompiled(bad, v.AST, u.AST)
				if got.Independent == clean[i*len(updates)+j] {
					continue
				}
				changed++
				if got.Independent {
					unsound = append(unsound, served{v, u, got})
				}
			}
		}
		if changed > 0 {
			t.Logf("seed %d: %d of %d verdicts changed, %d to an unsound Independent", seed, changed, len(clean), len(unsound))
		}
	}
	if changed == 0 {
		t.Fatal("no corruption seed changed a verdict: the damage misses every table the engine reads")
	}
	if len(unsound) == 0 {
		t.Fatal("no corrupted verdict is an unsound Independent")
	}

	reg := quarantine.NewRegistry(1)
	a := New(Config{SampleRate: 1, Quarantine: reg, Plans: plan.NewCache(1)})
	defer a.Close()
	s := unsound[0]
	a.Observe(Observation{
		D: d, Query: xquery.PrepareQuery(s.view.Name, s.view.AST), Update: xquery.PrepareUpdate(s.update.Name, s.update.AST),
		Result: core.Result{Method: core.MethodChains, Independent: s.verdict.Independent, K: s.verdict.K},
	})
	a.Flush()
	if st := a.Stats(); st.Audited != 1 || st.Disagreements != 1 {
		t.Fatalf("%s × %s: audit stats %+v, want one disagreement", s.view.Name, s.update.Name, st)
	}
	if got := reg.State(d.Fingerprint()); got != "quarantined" {
		t.Fatalf("%s × %s: schema %s after the disagreement, want quarantined", s.view.Name, s.update.Name, got)
	}
}

// TestIncidentEvidenceFromShadow serves the dependent XMark pair
// q1 × UB7 as Independent: the incident must carry chain evidence from
// the shadow that refuted it. The explicit-set engine exhausts the
// default audit budget on this pair, so evidence derived there would
// be empty.
func TestIncidentEvidenceFromShadow(t *testing.T) {
	v, _ := xmark.ViewByName("q1")
	u, _ := xmark.UpdateByName("UB7")
	reg := quarantine.NewRegistry(1)
	a := New(Config{SampleRate: 1, Quarantine: reg, Plans: plan.NewCache(1)})
	defer a.Close()
	a.Observe(Observation{
		D: xmark.Schema(), Query: xquery.PrepareQuery(v.Name, v.AST), Update: xquery.PrepareUpdate(u.Name, u.AST),
		Result: core.Result{Method: core.MethodChains, Independent: true},
	})
	a.Flush()
	incs := a.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents: %d, want 1 (stats %+v)", len(incs), a.Stats())
	}
	in := incs[0]
	if in.ShadowErr != "" || in.ShadowIndependent {
		t.Fatalf("shadow did not refute the verdict: %+v", in)
	}
	if len(in.QueryChains) == 0 || len(in.UpdateChains) == 0 {
		t.Fatalf("incident carries no chain evidence: %+v", in)
	}
	if len(in.QueryChains) > 2*evidenceCap || len(in.UpdateChains) > evidenceCap {
		t.Fatalf("evidence over the cap: %d query, %d update chains", len(in.QueryChains), len(in.UpdateChains))
	}
}
