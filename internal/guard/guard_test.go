package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	b.Tick()
	b.AddNodes(1 << 30)
	b.AddChains(1 << 30)
	if err := b.Check(); err != nil {
		t.Fatalf("nil budget Check: %v", err)
	}
	if err := b.CheckK(1 << 30); err != nil {
		t.Fatalf("nil budget CheckK: %v", err)
	}
	if b.Context() == nil {
		t.Fatal("nil budget Context is nil")
	}
}

func TestNodeLimitAborts(t *testing.T) {
	b := New(context.Background(), Limits{MaxNodes: 10})
	err := Do(func() {
		for i := 0; i < 100; i++ {
			b.AddNodes(1)
		}
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != "nodes" || le.Limit != 10 {
		t.Fatalf("want nodes LimitError{10}, got %#v", err)
	}
}

func TestChainLimitAborts(t *testing.T) {
	b := New(context.Background(), Limits{MaxChains: 5})
	err := Do(func() { b.AddChains(6) })
	var le *LimitError
	if !errors.As(err, &le) || le.Resource != "chains" {
		t.Fatalf("want chains LimitError, got %v", err)
	}
}

func TestDeadlineBecomesBudgetError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	b := New(ctx, Limits{})
	err := Do(func() {
		for {
			b.Tick()
		}
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("deadline should be a budget error, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline must not look like cancellation: %v", err)
	}
}

func TestCancellationIsNotBudgetError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(ctx, Limits{})
	err := Do(func() {
		for {
			b.Tick()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cancellation must not be a budget error: %v", err)
	}
}

func TestCheckKBoundary(t *testing.T) {
	b := New(context.Background(), Limits{MaxK: 4})
	if err := b.CheckK(4); err != nil {
		t.Fatalf("k at limit should pass: %v", err)
	}
	if err := b.CheckK(5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("k above limit should fail, got %v", err)
	}
}

func TestRecoverTranslatesPanicToInternalError(t *testing.T) {
	err := Do(func() { panic("engine invariant violated") })
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %T %v", err, err)
	}
	if ie.Value != "engine invariant violated" {
		t.Fatalf("value not preserved: %v", ie.Value)
	}
	if !strings.Contains(string(ie.Stack), "guard") {
		t.Fatalf("stack missing: %q", ie.Stack)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("internal errors must not read as budget errors")
	}
}

func TestRecoverNoopWithoutPanic(t *testing.T) {
	if err := Do(func() {}); err != nil {
		t.Fatalf("no panic, no error: %v", err)
	}
}

func TestOrDefaultsFillsZeroFieldsOnly(t *testing.T) {
	l := Limits{MaxNodes: 7}.OrDefaults()
	if l.MaxNodes != 7 {
		t.Fatalf("explicit field overwritten: %d", l.MaxNodes)
	}
	if l.MaxK != DefaultMaxK || l.MaxChains != DefaultMaxChains {
		t.Fatalf("defaults not applied: %+v", l)
	}
	if NoLimit <= 0 {
		t.Fatal("NoLimit must be positive")
	}
}
