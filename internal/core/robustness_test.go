package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/guard"
	"xqindep/internal/plan"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// stress is an adversarial schema for the budget machinery: three
// mutually recursive element types under iterated alternation, so the
// k-chain universe explodes combinatorially with k while the schema
// itself stays tiny.
var stress = dtd.MustParse(`
r <- (x | y | z)*
x <- (x | y | z)*
y <- (x | y | z)*
z <- #PCDATA
`)

// heavy is a query/update pair whose multiplicity k is large enough
// that the exact chain engine cannot finish on stress within any
// reasonable budget.
var (
	heavyQ = xquery.MustParseQuery("//x//y//x//y//z")
	heavyU = xquery.MustParseUpdate("delete //y//x//y//x//z")
)

// unlimited disables every bound so that only the context governs.
var unlimited = guard.Limits{MaxK: guard.NoLimit, MaxChains: guard.NoLimit, MaxNodes: guard.NoLimit}

// TestLadderDegradesOnChainBudget forces the exact engine over its
// chain-set budget and checks the fallback bookkeeping.
func TestLadderDegradesOnChainBudget(t *testing.T) {
	a := NewAnalyzer(stress)
	q := xquery.MustParseQuery("//y//z")
	u := xquery.MustParseUpdate("delete //x//z")
	res, err := a.AnalyzeContext(context.Background(), q, u, MethodChainsExact,
		Options{Limits: guard.Limits{MaxChains: 64}})
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("expected degradation with MaxChains=64, got method %s without it", res.Method)
	}
	if res.Method == MethodChainsExact {
		t.Errorf("degraded result still reports the overrun method %s", res.Method)
	}
	if len(res.FallbackChain) < 2 || res.FallbackChain[0] != MethodChainsExact {
		t.Errorf("FallbackChain = %v, want chains-exact first and at least one fallback", res.FallbackChain)
	}
	if res.FallbackChain[len(res.FallbackChain)-1] != res.Method {
		t.Errorf("FallbackChain = %v does not end with the answering method %s", res.FallbackChain, res.Method)
	}
	if !errors.Is(res.Err, guard.ErrBudgetExceeded) {
		t.Errorf("Result.Err = %v, want wrapped guard.ErrBudgetExceeded", res.Err)
	}
}

// TestLadderDegradesThroughCDAG squeezes both the chain-set and the
// CDAG node budgets so the ladder has to walk past two rungs.
func TestLadderDegradesThroughCDAG(t *testing.T) {
	a := NewAnalyzer(stress)
	q := xquery.MustParseQuery("//y//z")
	u := xquery.MustParseUpdate("delete //x//z")
	// A private empty plan cache forces the CDAG rung cold: a warm
	// plan from another test would answer without re-running inference
	// and never trip MaxNodes.
	res, err := a.AnalyzeContext(context.Background(), q, u, MethodChainsExact,
		Options{Limits: guard.Limits{MaxChains: 16, MaxNodes: 16}, Plans: plan.NewCache(8)})
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected degradation with MaxChains=16, MaxNodes=16")
	}
	if res.Method == MethodChainsExact || res.Method == MethodChains {
		t.Errorf("method %s should have exceeded its budget", res.Method)
	}
	want := []Method{MethodChainsExact, MethodChains}
	for i, m := range want {
		if i >= len(res.FallbackChain) || res.FallbackChain[i] != m {
			t.Fatalf("FallbackChain = %v, want prefix %v", res.FallbackChain, want)
		}
	}
}

// TestLadderDegradesOnMaxK checks that a pair whose multiplicity
// exceeds MaxK is not clamped (which would be unsound) but degraded to
// the k-free baselines.
func TestLadderDegradesOnMaxK(t *testing.T) {
	a := NewAnalyzer(stress)
	res, err := a.AnalyzeContext(context.Background(), heavyQ, heavyU, MethodChains,
		Options{Limits: guard.Limits{MaxK: 2}})
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected degradation: KPair of the heavy pair exceeds MaxK=2")
	}
	if res.Method == MethodChains || res.Method == MethodChainsExact {
		t.Errorf("chain method %s ran despite k over MaxK", res.Method)
	}
}

// TestNoFallbackReturnsBudgetError checks that Options.NoFallback
// turns a budget overrun into an error instead of a weaker verdict.
func TestNoFallbackReturnsBudgetError(t *testing.T) {
	a := NewAnalyzer(stress)
	q := xquery.MustParseQuery("//y//z")
	u := xquery.MustParseUpdate("delete //x//z")
	res, err := a.AnalyzeContext(context.Background(), q, u, MethodChainsExact,
		Options{Limits: guard.Limits{MaxChains: 64}, NoFallback: true})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want wrapped guard.ErrBudgetExceeded", err)
	}
	assertNoVerdict(t, res)
}

// assertNoVerdict checks that a Result returned alongside an error is
// the zero value — no partial verdict leaked out.
func assertNoVerdict(t *testing.T, res Result) {
	t.Helper()
	if res.Independent || res.Degraded || res.Witnesses != nil || res.FallbackChain != nil || res.Err != nil || res.Elapsed != 0 {
		t.Errorf("partial result %+v returned alongside the error", res)
	}
}

// TestDegradedVerdictsAgreeWithOracle is the ladder soundness test:
// any "independent" verdict produced under a starvation budget — i.e.
// by whatever weaker rung answered — must agree with the dynamic
// oracle on a sample of valid documents. This is the property that
// makes degradation sound: no rung may flip a truly dependent pair to
// "independent".
func TestDegradedVerdictsAgreeWithOracle(t *testing.T) {
	queries := []string{"//z", "//y", "/r/x", "//x//y", "//y//z"}
	updates := []string{
		"delete //x", "delete //z", "delete //x//z",
		"for $v in //y return insert <z/> into $v",
		"()",
	}
	rng := rand.New(rand.NewSource(3))
	var trees []xmltree.Tree
	for i := 0; i < 10; i++ {
		tr, err := stress.GenerateTree(rng, 0.55, 6)
		if err != nil {
			t.Fatalf("GenerateTree: %v", err)
		}
		trees = append(trees, tr)
	}

	a := NewAnalyzer(stress)
	tiny := Options{Limits: guard.Limits{MaxChains: 32, MaxNodes: 128}}
	degradedRuns := 0
	for _, qs := range queries {
		q := xquery.MustParseQuery(qs)
		for _, us := range updates {
			u := xquery.MustParseUpdate(us)
			res, err := a.AnalyzeContext(context.Background(), q, u, MethodChainsExact, tiny)
			if err != nil {
				t.Fatalf("%s vs %s: %v", qs, us, err)
			}
			if res.Degraded {
				degradedRuns++
			}
			if !res.Independent {
				continue // "could not prove" is always safe
			}
			if i := eval.DependentOnAny(trees, q, u); i >= 0 {
				t.Errorf("UNSOUND: %s verdict (degraded=%v) says independent but document %d witnesses dependence\n  q = %s\n  u = %s",
					res.Method, res.Degraded, i, qs, us)
			}
		}
	}
	if degradedRuns == 0 {
		t.Fatal("starvation budget never engaged the ladder; the test exercised nothing")
	}
}

// TestDeadlineBoundsAnalysis checks the headline robustness property:
// on an adversarial pair the exact engine would chew on for hours,
// AnalyzeContext with a context deadline returns a degraded (still
// sound) verdict within about twice the deadline, and leaks no
// goroutines doing it.
func TestDeadlineBoundsAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a := NewAnalyzer(stress)
	before := runtime.NumGoroutine()
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	res, err := a.AnalyzeContext(ctx, heavyQ, heavyU, MethodChainsExact, Options{Limits: unlimited})
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("AnalyzeContext: %v (a deadline should degrade, not fail)", err)
	}
	if elapsed < deadline {
		t.Fatalf("finished in %v < %v deadline: the workload is not adversarial enough to test the deadline", elapsed, deadline)
	}
	if elapsed > 2*deadline {
		t.Errorf("took %v, want within 2x the %v deadline", elapsed, deadline)
	}
	if !res.Degraded {
		t.Error("deadline overrun did not mark the result degraded")
	}
	var le *guard.LimitError
	if !errors.As(res.Err, &le) || le.Resource != "deadline" {
		t.Errorf("Result.Err = %v, want a deadline LimitError", res.Err)
	}

	// No watchdogs, no helpers: the budget is checked cooperatively,
	// so the goroutine count must return to its pre-call level.
	deadlineAt := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadlineAt) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCancelledContextReturnsNoVerdict checks that explicit
// cancellation propagates as context.Canceled — not as a budget error,
// and not as a degraded partial verdict.
func TestCancelledContextReturnsNoVerdict(t *testing.T) {
	a := NewAnalyzer(stress)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.AnalyzeContext(ctx, heavyQ, heavyU, MethodChainsExact, Options{Limits: unlimited})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, guard.ErrBudgetExceeded) {
		t.Error("cancellation was misclassified as a budget overrun")
	}
	assertNoVerdict(t, res)
}

// bogusQuery is a foreign AST node: it satisfies xquery.Query via an
// embedded nil interface, so every type switch over query nodes hits
// its panicking default case.
type bogusQuery struct{ xquery.Query }

func (bogusQuery) String() string { return "bogus" }

// TestInjectedPanicBecomesInternalError checks the panic boundary: an
// internal bug (here simulated by a foreign AST node) must surface as
// a typed *guard.InternalError with a stack, never as a raw panic.
func TestInjectedPanicBecomesInternalError(t *testing.T) {
	a := NewAnalyzer(stress)
	u := xquery.MustParseUpdate("delete //x")
	res, err := a.AnalyzeContext(context.Background(), bogusQuery{}, u, MethodChains, Options{})
	if err == nil {
		t.Fatal("expected an error from the injected panic")
	}
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *guard.InternalError", err, err)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError carries no stack trace")
	}
	assertNoVerdict(t, res)
}

// TestPhaseDeadlineDegradesShortAnalysis: a deadline that has passed
// before a short cold chains analysis ticks at all aborts it at its
// first engine phase point, and the ladder degrades to the type
// baseline, which still answers. Tick alone would read the deadline
// only after a stride of ticks, and the analysis would return a full
// chains verdict.
func TestPhaseDeadlineDegradesShortAnalysis(t *testing.T) {
	a := NewAnalyzer(stress)
	q := xquery.MustParseQuery("//z")
	u := xquery.MustParseUpdate("delete //x//z")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := a.AnalyzeContext(ctx, q, u, MethodChains, Options{Plans: plan.NewCache(8)})
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded || res.Method != MethodTypes {
		t.Fatalf("method %s degraded %v, want the types rung after a missed deadline", res.Method, res.Degraded)
	}
	if want := []Method{MethodChains, MethodTypes}; !reflect.DeepEqual(res.FallbackChain, want) {
		t.Errorf("FallbackChain = %v, want %v", res.FallbackChain, want)
	}
	var le *guard.LimitError
	if !errors.As(res.Err, &le) || le.Resource != "deadline" {
		t.Errorf("Result.Err = %v, want a deadline LimitError", res.Err)
	}
}

// TestConservativeBottomRung checks the bottom of the ladder: with an
// already-expired deadline and an adversarial pair, the ladder must
// still answer — degraded, and never claiming independence.
func TestConservativeBottomRung(t *testing.T) {
	a := NewAnalyzer(stress)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := a.AnalyzeContext(ctx, heavyQ, heavyU, MethodChainsExact, Options{Limits: unlimited})
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if res.Independent {
		t.Error("conservative rung claimed independence")
	}
	if !res.Degraded {
		t.Error("expired deadline did not mark the result degraded")
	}
}
