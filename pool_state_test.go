package xqindep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqindep/internal/faultinject"
)

// TestPoolStateSurvivesRestart is the public-surface restart proof: a
// fingerprint quarantined by the audit lane in one pool life is still
// refused by a second life pointed at the same state directory, before
// any new audit evidence exists — even with auditing disabled in the
// second life.
func TestPoolStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	schema := MustParseSchema(bibSchema)
	q := MustParseQuery("//title")

	// Life 1: an injected verdict flip on a dependent pair is audited,
	// refuted, and quarantined; the incident reaches both the durable
	// spool under the state directory and the caller's AuditSpool copy.
	var copySpool bytes.Buffer
	p := NewPool(PoolOptions{Workers: 1, AuditRate: 1, StateDir: dir, AuditSpool: &copySpool})
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	rep, err := p.Analyze(faultinject.With(context.Background(), sched), schema, q, MustParseUpdate("delete //title"), Chains, Options{})
	if err != nil || !rep.Independent {
		t.Fatalf("flip not served: %+v, %v", rep, err)
	}
	p.Flush()
	if got := p.QuarantineState(schema); got != "quarantined" {
		t.Fatalf("life 1 quarantine state %s", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "incidents.jsonl"))
	if err != nil || !strings.Contains(string(b), `"audit-disagreement"`) {
		t.Fatalf("durable incident spool: %v %q", err, b)
	}
	if !strings.Contains(copySpool.String(), `"audit-disagreement"`) {
		t.Fatalf("audit spool copy missing the incident: %q", copySpool.String())
	}

	// Life 2: auditing OFF — the restored decision alone downgrades a
	// genuinely independent pair to the conservative verdict.
	p2 := NewPool(PoolOptions{Workers: 1, StateDir: dir})
	defer p2.Close()
	st, serr := p2.StateStatus()
	if serr != nil || st.RestoredFingerprints != 1 {
		t.Fatalf("restored state: %+v, %v", st, serr)
	}
	if got := p2.QuarantineState(schema); got != "quarantined" {
		t.Fatalf("life 2 quarantine state %s", got)
	}
	rep, err = p2.Analyze(context.Background(), schema, q, MustParseUpdate("delete //price"), Chains, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Independent || !errors.Is(rep.Err, ErrQuarantined) {
		t.Fatalf("restart served the quarantined schema un-downgraded: %+v", rep)
	}
}

// TestPoolStateStatusWithoutStateDir pins the zero-value contract.
func TestPoolStateStatusWithoutStateDir(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	st, err := p.StateStatus()
	if err != nil || st.Dir != "" {
		t.Fatalf("StateStatus without StateDir: %+v, %v", st, err)
	}
}

// TestPoolStateOpenFailureSurfaces pins that an unusable state
// directory does not fail NewPool but is reported by StateStatus, so
// the daemon can refuse to serve without the durability it was asked
// for.
func TestPoolStateOpenFailureSurfaces(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolOptions{Workers: 1, StateDir: file})
	defer p.Close()
	if _, err := p.StateStatus(); err == nil {
		t.Fatal("StateStatus did not surface the open failure")
	}
	// The pool still serves (without durability).
	if _, err := p.Analyze(context.Background(), MustParseSchema(bibSchema),
		MustParseQuery("//title"), MustParseUpdate("delete //price"), Chains, Options{}); err != nil {
		t.Fatal(err)
	}
}
