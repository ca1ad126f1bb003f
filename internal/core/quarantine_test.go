package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/faultinject"
	"xqindep/internal/guard"
	"xqindep/internal/quarantine"
	"xqindep/internal/xquery"
)

func TestQuarantineDowngradesToConservative(t *testing.T) {
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")

	// The pair is independent on a clean fingerprint.
	r, err := a.Analyze(q, u, MethodChains)
	if err != nil || !r.Independent {
		t.Fatalf("clean analysis: %+v, %v", r, err)
	}

	reg := quarantine.NewRegistry(1)
	reg.Quarantine(bib.Fingerprint())
	r, err = a.AnalyzeContext(context.Background(), q, u, MethodChains, Options{Quarantine: reg})
	if err != nil {
		t.Fatalf("quarantined analysis errored: %v", err)
	}
	if r.Independent {
		t.Fatal("quarantined fingerprint produced an Independent verdict")
	}
	if r.Method != MethodConservative || !r.Degraded {
		t.Fatalf("want degraded conservative verdict, got %+v", r)
	}
	if !errors.Is(r.Err, quarantine.ErrQuarantined) || !errors.Is(r.Err, guard.ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want ErrQuarantined wrapping ErrBudgetExceeded", r.Err)
	}
	if len(r.FallbackChain) != 2 || r.FallbackChain[0] != MethodChains || r.FallbackChain[1] != MethodConservative {
		t.Fatalf("FallbackChain = %v", r.FallbackChain)
	}

	// NoFallback must not disable containment.
	r, err = a.AnalyzeContext(context.Background(), q, u, MethodChains, Options{Quarantine: reg, NoFallback: true})
	if err != nil || r.Independent || r.Method != MethodConservative {
		t.Fatalf("NoFallback bypassed quarantine: %+v, %v", r, err)
	}
}

func TestFlipVerdictInjectionFlips(t *testing.T) {
	faultinject.Enable()
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price") // independent when clean

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	ctx := faultinject.With(context.Background(), sched)
	r, err := a.AnalyzeContext(ctx, q, u, MethodChains, Options{})
	if err != nil {
		t.Fatalf("flip-verdict run errored: %v", err)
	}
	if r.Independent {
		t.Fatal("flip at core.verdict did not flip the Independent verdict")
	}

	// The flip is symmetric: a dependent pair flips to the unsound
	// Independent=true the sentinel must contain.
	u2 := xquery.MustParseUpdate("delete //title")
	sched = faultinject.NewSchedule(faultinject.Fault{Point: "core.verdict", Kind: faultinject.KindFlipVerdict})
	r, err = a.AnalyzeContext(faultinject.With(context.Background(), sched), q, u2, MethodChains, Options{})
	if err != nil {
		t.Fatalf("flip-verdict run errored: %v", err)
	}
	if !r.Independent {
		t.Fatal("flip at core.verdict did not produce the unsound Independent verdict")
	}
}

func TestCorruptArtifactIsPrivateToTheRequest(t *testing.T) {
	faultinject.Enable()
	a := NewAnalyzer(bib)
	q := xquery.MustParseQuery("//title")
	u := xquery.MustParseUpdate("delete //price")

	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.artifact", Kind: faultinject.KindCorruptArtifact})
	ctx := faultinject.With(context.Background(), sched)
	// The corrupted run must complete without a panic escaping; its
	// verdict may be wrong in either direction.
	if _, err := a.AnalyzeContext(ctx, q, u, MethodChains, Options{}); err != nil {
		var ierr *guard.InternalError
		if errors.As(err, &ierr) {
			t.Fatalf("corrupt artifact escaped as internal error: %v", err)
		}
	}
	// The shared resident artifact must be untouched.
	c, err := dtd.Compile(a.D)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("corruption leaked into the shared artifact: %v", err)
	}
	r, err := a.Analyze(q, u, MethodChains)
	if err != nil || !r.Independent {
		t.Fatalf("clean analysis after corrupted request: %+v, %v", r, err)
	}
}

func TestRandomAuditScheduleAlwaysArmsUnsoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		s := faultinject.RandomAuditSchedule(rng, 1+rng.Intn(4))
		desc := s.String()
		if !strings.Contains(desc, "corrupt-artifact") && !strings.Contains(desc, "flip-verdict") {
			t.Fatalf("schedule %d arms no unsoundness fault: %s", i, desc)
		}
	}
}
