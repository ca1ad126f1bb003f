package xqindep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"xqindep/internal/faultinject"
)

// TestPoolAuditLifecycle drives the public audit wiring end to end: an
// injected verdict flip is served, sampled, refuted, and quarantined,
// after which the pool downgrades the schema's verdicts and reports
// the incident.
func TestPoolAuditLifecycle(t *testing.T) {
	var spool bytes.Buffer
	p := NewPool(PoolOptions{
		Workers:    2,
		AuditRate:  1,
		AuditSeed:  7,
		AuditSpool: &spool,
	})
	defer p.Close()

	schema := MustParseSchema(bibSchema)
	q := MustParseQuery("//title")
	u := MustParseUpdate("delete //title") // dependent pair

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	rep, err := p.Analyze(faultinject.With(context.Background(), sched), schema, q, u, Chains, Options{})
	if err != nil || !rep.Independent {
		t.Fatalf("flip not served: %+v, %v", rep, err)
	}
	p.Flush()

	ast, qst := p.AuditStats()
	if ast.Disagreements != 1 || qst.Quarantined != 1 {
		t.Fatalf("audit stats: %+v / %+v", ast, qst)
	}
	if got := p.QuarantineState(schema); got != "quarantined" {
		t.Fatalf("quarantine state %s", got)
	}
	// The quarantine purged the plan the flipped request built from the
	// cache NewPool wires into both its server and its auditor.
	ps := p.PlanStats()
	if ps.Purges != 1 {
		t.Fatalf("plan cache after the quarantine: %+v, want one plan purged", ps)
	}
	for _, sc := range ps.Schemas {
		if sc.Fingerprint == schema.Fingerprint() {
			t.Fatalf("plan cache after the quarantine: %d plans of the schema resident", sc.Plans)
		}
	}
	in := p.Incidents()
	if len(in) != 1 || in[0].QueryText != "//title" {
		t.Fatalf("incidents: %+v", in)
	}
	// The spool holds the same incident as one JSON line.
	var spooled Incident
	if err := json.Unmarshal([]byte(strings.TrimSpace(spool.String())), &spooled); err != nil {
		t.Fatalf("spool line: %v (%q)", err, spool.String())
	}
	if spooled.Fingerprint != schema.Fingerprint() {
		t.Fatalf("spooled incident: %+v", spooled)
	}

	rep, err = p.Analyze(context.Background(), schema, q, u, Chains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Independent || !errors.Is(rep.Err, ErrQuarantined) || !errors.Is(rep.Err, ErrBudgetExceeded) {
		t.Fatalf("post-quarantine report: %+v", rep)
	}
}

// TestPoolAuditDisabledByDefault pins that AuditRate 0 wires no
// auditor: no audit goroutines, empty stats, clean state.
func TestPoolAuditDisabledByDefault(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	schema := MustParseSchema(bibSchema)
	if _, err := p.Analyze(context.Background(), schema, MustParseQuery("//title"), MustParseUpdate("delete //price"), Chains, Options{}); err != nil {
		t.Fatal(err)
	}
	ast, qst := p.AuditStats()
	if ast.Observed != 0 || qst.Quarantined != 0 {
		t.Fatalf("audit stats without auditing: %+v / %+v", ast, qst)
	}
	if got := p.QuarantineState(schema); got != "clean" {
		t.Fatalf("state %s", got)
	}
	if in := p.Incidents(); in != nil {
		t.Fatalf("incidents without auditing: %+v", in)
	}
}
