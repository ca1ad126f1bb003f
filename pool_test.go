package xqindep

import (
	"context"
	"errors"
	"testing"
	"time"

	"xqindep/internal/faultinject"
)

// TestNegativePlanCacheSizeKeepsOnePlan: a negative PlanCacheSize keeps
// a single plan, which still serves a repeated pair warm.
func TestNegativePlanCacheSizeKeepsOnePlan(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, PlanCacheSize: -1})
	defer p.Close()
	schema := MustParseSchema(bibSchema)
	q, u := MustParseQuery("//title"), MustParseUpdate("delete //price")
	for i, want := range []string{"cold", "warm"} {
		r, err := p.Analyze(context.Background(), schema, q, u, Chains, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Plan != want {
			t.Fatalf("request %d served %q, want %q", i+1, r.Plan, want)
		}
	}
	// A second pair replaces the one resident plan.
	if _, err := p.Analyze(context.Background(), schema, MustParseQuery("//author"), u, Chains, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := p.PlanStats(); st.Hits != 1 || st.Resident != 1 {
		t.Fatalf("plan cache: %+v, want 1 hit and 1 resident plan", st.Stats)
	}
}

// TestServeDrainsUnderPoolDrainTimeout: Serve drains under the pool's
// DrainTimeout. With an analysis wedged in the pool, Serve returns soon
// after its context is cancelled, having hard-cancelled the analysis.
func TestServeDrainsUnderPoolDrainTimeout(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, RequestTimeout: time.Hour, DrainTimeout: 100 * time.Millisecond})
	schema := MustParseSchema(bibSchema)
	q, u := MustParseQuery("//title"), MustParseUpdate("delete //price")

	stalled := make(chan struct{})
	sched := faultinject.NewSchedule(faultinject.Fault{Point: "core.analyze", Kind: faultinject.KindStall})
	sched.OnFire = func(faultinject.Fault) { close(stalled) }
	wedged := make(chan error, 1)
	go func() {
		_, err := p.Analyze(faultinject.With(context.Background(), sched), schema, q, u, Chains, Options{})
		wedged <- err
	}()
	<-stalled

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "127.0.0.1:0", p) }()
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve = %v, want the drain deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of its context being cancelled")
	}
	if err := <-wedged; !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged analysis: %v, want it cancelled by the drain", err)
	}
	if p.Accepting() {
		t.Fatal("the pool still admits after Serve returned")
	}
}
