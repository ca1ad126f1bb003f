// Package faultinject provides named, seeded, deterministic fault
// points for chaos testing the analysis engine and its serving layer.
//
// The engines mark their phase boundaries — parsing, chain inference,
// CDAG construction, conflict checking — with guard.Point /
// guard.FirePoint calls naming the boundary, and each point consults
// only the guard.Injector its context carries. In production no
// context carries one. A chaos harness injects faults by building a
// Schedule (which faults fire at which points, on which hit) and
// attaching it to the request context, with no process-wide setup:
//
//	sched := faultinject.NewSchedule(
//		faultinject.Fault{Point: "cdag.build", Kind: faultinject.KindBudget, After: 2},
//	)
//	ctx := faultinject.With(ctx, sched)
//	// every analysis under ctx hits the schedule; others are untouched
//
// Schedules are deterministic: a fault fires on exactly the After-th
// hit of its point within the schedule's context, so a fixed seed
// driving schedule construction reproduces a run bit-for-bit.
// Randomness belongs to the harness (see RandomSchedule), never to
// this package.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"xqindep/internal/guard"
)

// Kind selects what an armed fault injects.
type Kind int

const (
	// KindBudget injects a budget-exhaustion error
	// (errors.Is(err, guard.ErrBudgetExceeded)): the degradation
	// ladder must absorb it.
	KindBudget Kind = iota
	// KindError injects a plain (non-budget) error: the analysis must
	// fail cleanly, never produce a wrong verdict.
	KindError
	// KindPanic injects a panic with a PanicValue payload: the
	// engine's Recover boundary must convert it to *guard.InternalError
	// and the serving layer must isolate it to the one request.
	KindPanic
	// KindStall blocks the point until the context dies, then returns
	// the context error — a deterministic way to wedge an analysis for
	// overload, timeout and drain tests. Never drawn by
	// RandomSchedule.
	KindStall
	// KindCorruptArtifact fires only at the artifact-handoff points.
	// At "core.artifact" core swaps in a deterministically corrupted
	// copy of the compiled schema for the remainder of the request
	// (bypassing the plan cache so the damage is never amortised); at
	// "core.plan/artifact" the plan layer serves a corrupted clone of
	// the prepared plan while the cache resident stays intact. Both
	// simulate resident-artifact damage; the sentinel audit layer must
	// catch any unsound verdict that results. Never drawn by
	// RandomSchedule: fixed-seed schedules from earlier chaos suites
	// must keep reproducing bit-for-bit, so corruption schedules are
	// built explicitly (see RandomAuditSchedule, RandomPlanSchedule).
	KindCorruptArtifact
	// KindFlipVerdict fires only at "core.verdict": core flips the rung
	// verdict it is about to return, simulating an unsound engine edge
	// case the type system cannot rule out. Never drawn by
	// RandomSchedule (same compatibility argument as
	// KindCorruptArtifact).
	KindFlipVerdict
)

func (k Kind) String() string {
	switch k {
	case KindBudget:
		return "budget"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindCorruptArtifact:
		return "corrupt-artifact"
	case KindFlipVerdict:
		return "flip-verdict"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Points lists the canonical fault-point names, one per analyzer
// phase boundary. Harnesses draw from this list; the engines fire
// them via guard.Point/guard.FirePoint. Seeded schedules index it, so
// a name is only ever replaced in its slot: cdag.infer_update holds
// the slot of parse.document, which nothing fired.
var Points = []string{
	"parse.schema",      // schema text → DTD (server layer)
	"parse.query",       // query text → AST (server layer)
	"parse.update",      // update text → AST (server layer)
	"cdag.infer_update", // CDAG update inference start
	"core.analyze",      // entry of one ladder rung
	"infer.chains",      // explicit-set chain inference start
	"infer.conflict",    // explicit-set conflict check start
	"cdag.build",        // CDAG build entry: engine construction
	"cdag.conflict",     // CDAG conflict check start
	"types.check",       // type-set baseline start
	"paths.check",       // path-overlap baseline start
	"core.artifact",     // compiled artifact selected for a request
	"core.verdict",      // rung verdict about to be returned
}

// PlanPoints lists the fault points of the prepared-analysis pipeline
// (internal/plan), one per stage. They live in their own list —
// Points is frozen: RandomSchedule indexes it, so appending would
// silently change which faults a fixed seed draws and break the
// reproducibility of every recorded chaos run. Plan-aware harnesses
// arm them via RandomPlanSchedule or explicit Faults.
var PlanPoints = []string{
	"core.plan/fingerprint", // the pair key the caller digested (cache key)
	"core.plan/lookup",      // plan-cache consultation
	"core.plan/kfactors",    // Table 3 k-factors + admission (cold stage)
	"core.plan/infer",       // CDAG chain inference (cold stage)
	"core.plan/artifact",    // prepared plan handed to the caller
}

// ErrInjected is the sentinel wrapped by every KindError injection.
var ErrInjected = errors.New("injected fault")

// PanicValue is the payload of every KindPanic injection, so harness
// assertions can tell injected panics from genuine engine bugs.
type PanicValue struct{ Point string }

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Point)
}

// Fault arms one injection: at the After-th hit (1-based; 0 means
// first) of the named point, inject Kind. Each fault fires at most
// once.
type Fault struct {
	Point string
	Kind  Kind
	After int
}

// Schedule is a deterministic set of armed faults shared by every
// analysis under one context. It is safe for concurrent use.
type Schedule struct {
	// OnFire, when non-nil, is invoked each time an armed fault fires,
	// before the injection takes effect — in particular before a
	// KindStall blocks. Harnesses use it as a synchronization point
	// ("the worker is now wedged") instead of polling wall-clock
	// deadlines. Set it before attaching the schedule to a context;
	// it must not block.
	OnFire func(f Fault)

	mu     sync.Mutex
	faults []Fault
	done   []bool
	hits   map[string]int
	fired  []string
}

// NewSchedule arms the given faults.
func NewSchedule(faults ...Fault) *Schedule {
	return &Schedule{
		faults: faults,
		done:   make([]bool, len(faults)),
		hits:   make(map[string]int),
	}
}

// RandomSchedule draws n faults with random points, kinds and hit
// counts from rng — the harness's seeded source — keeping the result
// fully deterministic for a fixed seed.
func RandomSchedule(rng *rand.Rand, n int) *Schedule {
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{
			Point: Points[rng.Intn(len(Points))],
			Kind:  Kind(rng.Intn(3)),
			After: 1 + rng.Intn(3),
		}
	}
	return NewSchedule(faults...)
}

// RandomAuditSchedule draws n faults for the sentinel containment
// suite: each is either an unsoundness fault — corrupt-artifact at
// "core.artifact" or flip-verdict at "core.verdict" — or one of the
// classic kinds at a random point, all from rng so a fixed seed
// reproduces the schedule. At least one unsoundness fault is always
// armed (a containment run with nothing to contain proves nothing).
func RandomAuditSchedule(rng *rand.Rand, n int) *Schedule {
	if n < 1 {
		n = 1
	}
	faults := make([]Fault, n)
	for i := range faults {
		if i == 0 || rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				faults[i] = Fault{Point: "core.artifact", Kind: KindCorruptArtifact, After: 1 + rng.Intn(3)}
			} else {
				faults[i] = Fault{Point: "core.verdict", Kind: KindFlipVerdict, After: 1 + rng.Intn(3)}
			}
			continue
		}
		faults[i] = Fault{
			Point: Points[rng.Intn(len(Points))],
			Kind:  Kind(rng.Intn(3)),
			After: 1 + rng.Intn(3),
		}
	}
	return NewSchedule(faults...)
}

// RandomPlanSchedule draws n faults for the prepared-plan chaos
// suite: each is either a plan-stage fault — one of PlanPoints with a
// classic kind, or corrupt-artifact at "core.plan/artifact" — or a
// classic kind at a random legacy point, all from rng so a fixed seed
// reproduces the schedule. At least one plan-stage fault is always
// armed (a plan chaos run that never touches the pipeline proves
// nothing). Like RandomAuditSchedule it lives apart from
// RandomSchedule so legacy fixed-seed suites keep reproducing
// bit-for-bit.
func RandomPlanSchedule(rng *rand.Rand, n int) *Schedule {
	if n < 1 {
		n = 1
	}
	faults := make([]Fault, n)
	for i := range faults {
		if i == 0 || rng.Intn(2) == 0 {
			if rng.Intn(4) == 0 {
				faults[i] = Fault{Point: "core.plan/artifact", Kind: KindCorruptArtifact, After: 1 + rng.Intn(3)}
			} else {
				faults[i] = Fault{
					Point: PlanPoints[rng.Intn(len(PlanPoints))],
					Kind:  Kind(rng.Intn(3)),
					After: 1 + rng.Intn(3),
				}
			}
			continue
		}
		faults[i] = Fault{
			Point: Points[rng.Intn(len(Points))],
			Kind:  Kind(rng.Intn(3)),
			After: 1 + rng.Intn(3),
		}
	}
	return NewSchedule(faults...)
}

// Fired returns a description of every fault that has fired, in
// firing order.
func (s *Schedule) Fired() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.fired...)
}

// String summarises the armed faults, sorted for stable output.
func (s *Schedule) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	descs := make([]string, len(s.faults))
	for i, f := range s.faults {
		descs[i] = fmt.Sprintf("%s/%s@%d", f.Point, f.Kind, f.After)
	}
	sort.Strings(descs)
	return fmt.Sprintf("schedule%v", descs)
}

// Inject records a hit of point and injects the first matching armed
// fault, if any: it makes a Schedule the guard.Injector of the
// contexts With attaches it to.
func (s *Schedule) Inject(ctx context.Context, point string) error {
	s.mu.Lock()
	s.hits[point]++
	hit := s.hits[point]
	idx := -1
	for i, f := range s.faults {
		if s.done[i] || f.Point != point {
			continue
		}
		after := f.After
		if after <= 0 {
			after = 1
		}
		if hit == after {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.mu.Unlock()
		return nil
	}
	f := s.faults[idx]
	s.done[idx] = true
	s.fired = append(s.fired, fmt.Sprintf("%s/%s@%d", f.Point, f.Kind, hit))
	s.mu.Unlock()

	if s.OnFire != nil {
		s.OnFire(f)
	}
	switch f.Kind {
	case KindBudget:
		return &guard.LimitError{Resource: "fault:" + point}
	case KindError:
		return fmt.Errorf("faultinject: at %s: %w", point, ErrInjected)
	case KindStall:
		<-ctx.Done()
		return ctx.Err()
	case KindCorruptArtifact:
		return guard.ErrArtifactCorrupt
	case KindFlipVerdict:
		return guard.ErrVerdictFlip
	default:
		//xqvet:ignore panicdiscipline KindPanic deliberately injects a raw panic so harnesses can prove the guard boundary converts it
		panic(PanicValue{Point: point})
	}
}

// With attaches the schedule to ctx as its guard.Injector; every
// fault point fired under the returned context consults it. A nil
// schedule attaches nothing.
func With(ctx context.Context, s *Schedule) context.Context {
	if s == nil {
		return ctx
	}
	return guard.WithInjector(ctx, s)
}

// FromContext returns the schedule attached to ctx, if any.
func FromContext(ctx context.Context) *Schedule {
	s, _ := guard.InjectorOf(ctx).(*Schedule)
	return s
}
