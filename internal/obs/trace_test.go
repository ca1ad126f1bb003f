package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"xqindep/internal/guard"
)

// tick returns a deterministic clock advancing step per read — every
// trace timestamp in these tests is exact, never approximate.
func tick(step time.Duration) func() time.Time {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// The span tree and the mark-extension semantics: an instant mark
// lasts until the next record under the same parent begins, bounded by
// the parent's end — so a flat sequence of phase marks reads as a
// phase breakdown.
func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(tick(10 * time.Microsecond)) // t0 = tick 0
	a := tr.Start("a")                          // tick 1: start 10µs
	tr.Mark("m1", 7, 3)                         // tick 2: at 20µs
	tr.Mark("m2", 0, 0)                         // tick 3: at 30µs
	a.End()                                     // tick 4: end 40µs
	spans := tr.Finish()                        // tick 5: total 50µs

	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3: %+v", len(spans), spans)
	}
	if s := spans[0]; s.Name != "a" || s.Depth != 0 || s.StartUS != 10 || s.DurUS != 30 || s.Mark {
		t.Errorf("span a = %+v, want start 10 dur 30 depth 0", s)
	}
	// m1 extends to m2's start, m2 to the parent's end.
	if s := spans[1]; s.Name != "m1" || s.Depth != 1 || s.StartUS != 20 || s.DurUS != 10 || !s.Mark || s.Nodes != 7 || s.Chains != 3 {
		t.Errorf("mark m1 = %+v, want start 20 dur 10 nodes 7 chains 3", s)
	}
	if s := spans[2]; s.Name != "m2" || s.StartUS != 30 || s.DurUS != 10 {
		t.Errorf("mark m2 = %+v, want start 30 dur 10 (extends to parent end)", s)
	}
}

// Finish is idempotent, seals open spans at the finish instant, and
// drops late records (a background worker finishing after the caller
// gave up must not mutate a served trace).
func TestTraceFinishSealsAndDropsLate(t *testing.T) {
	tr := NewTrace(tick(10 * time.Microsecond))
	tr.Start("open") // tick 1; never ended
	spans := tr.Finish()
	if len(spans) != 1 || spans[0].DurUS != 10 {
		t.Fatalf("open span not sealed at finish: %+v", spans)
	}
	tr.Mark("late", 0, 0)
	tr.Start("later").End()
	again := tr.Finish()
	if len(again) != 1 {
		t.Errorf("late records leaked into a sealed trace: %+v", again)
	}
}

// End closes forgotten children, so a panic unwinding past
// instrumentation cannot wedge the open-span stack.
func TestEndClosesForgottenChildren(t *testing.T) {
	tr := NewTrace(tick(10 * time.Microsecond))
	outer := tr.Start("outer") // tick 1
	tr.Start("inner")          // tick 2; never explicitly ended
	outer.End()                // tick 3: closes both
	spans := tr.Finish()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[1].Name != "inner" || spans[1].DurUS != 10 {
		t.Errorf("forgotten child not closed with its parent: %+v", spans[1])
	}
}

// A nil trace is the disabled path: every method must no-op, and a
// context without a trace must yield nil.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	sp.Annotate("y")
	sp.End()
	tr.Mark("m", 0, 0)
	if tr.Finish() != nil {
		t.Error("nil trace methods must return zero values")
	}
	tr.Release()
	if FromContext(context.Background()) != nil {
		t.Error("FromContext on a bare context must be nil")
	}
	if FromContext(nil) != nil {
		t.Error("FromContext(nil) must be nil")
	}
	if got := NewContext(context.Background(), nil); got != context.Background() {
		t.Error("NewContext with a nil trace must not wrap the context")
	}
}

// The recorder is bounded: past maxSpans records are discarded — a
// pathological ladder cannot balloon one trace.
func TestTraceBounded(t *testing.T) {
	tr := NewTrace(tick(time.Microsecond))
	for i := 0; i < maxSpans+10; i++ {
		tr.Mark("m", 0, 0)
	}
	if got := len(tr.Finish()); got != maxSpans {
		t.Errorf("spans = %d, want bound %d", got, maxSpans)
	}
}

// A released trace comes back from NewTrace empty: no record or open
// span of its last use, not finished, and timed from a t0 of its own.
// sync.Pool may drop what it is handed (a quarter of it under -race),
// so the test releases traces until one comes back.
func TestReleasedTraceComesBackEmpty(t *testing.T) {
	clock := tick(10 * time.Microsecond)
	for try := 0; try < 100; try++ {
		old := NewTrace(clock)
		old.Start("old").Annotate("stale")
		old.Start("open")
		old.Mark("old.mark", 1, 1)
		old.Finish()
		old.Release()
		tr := NewTrace(clock)
		if tr != old {
			continue
		}
		if len(tr.recs) != 0 || len(tr.stack) != 0 || tr.finished {
			t.Fatalf("a reused trace holds %d records and %d open spans, finished %v", len(tr.recs), len(tr.stack), tr.finished)
		}
		tr.Start("new").End()
		spans := tr.Finish()
		if len(spans) != 1 || spans[0].Name != "new" || spans[0].Detail != "" || spans[0].StartUS != 10 || spans[0].DurUS != 10 {
			t.Fatalf("a reused trace records %+v, want only span new, 10µs after its own t0", spans)
		}
		return
	}
	t.Fatal("no released trace came back from NewTrace in 100 tries")
}

// A trace whose record buffer grew past maxPooledRecs is not pooled, so
// one long request cannot pin a large buffer.
func TestLargeTraceIsNotPooled(t *testing.T) {
	clock := tick(time.Microsecond)
	big := NewTrace(clock)
	for i := 0; i <= maxPooledRecs; i++ {
		big.Mark("m", 0, 0)
	}
	big.Finish()
	big.Release()
	for i := 0; i < 10; i++ {
		if tr := NewTrace(clock); tr == big || cap(tr.recs) > maxPooledRecs {
			t.Fatalf("NewTrace returns a trace of %d records' capacity, more than %d", cap(tr.recs), maxPooledRecs)
		}
	}
}

// A trace attached with NewContext is its context's guard.Tracer:
// fault points fired under that context become marks, and points fired
// under a context without a trace allocate nothing.
func TestGuardHookMarks(t *testing.T) {
	tr := NewTrace(tick(10 * time.Microsecond))
	ctx := NewContext(context.Background(), tr)
	if err := guard.FirePoint(ctx, "test.point"); err != nil {
		t.Fatalf("FirePoint: %v", err)
	}
	spans := tr.Finish()
	if len(spans) != 1 || spans[0].Name != "test.point" || !spans[0].Mark {
		t.Fatalf("fault point did not become a mark: %+v", spans)
	}

	bare := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		if err := guard.FirePoint(bare, "test.point"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("armed hook allocates %v per untraced FirePoint, want 0", n)
	}
}

func TestWriteTree(t *testing.T) {
	tr := NewTrace(tick(10 * time.Microsecond))
	a := tr.Start("serve")
	tr.Mark("parse.schema", 5, 2)
	a.Annotate("cold")
	a.End()
	var b strings.Builder
	WriteTree(&b, tr.Finish())
	out := b.String()
	for _, want := range []string{"serve", "· parse.schema", "nodes=5 chains=2", "[cold]"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}
