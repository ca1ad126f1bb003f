package cdag

import (
	"slices"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/xquery"
)

// UpdateSide is an update side detached from the engine that inferred
// it, so that another engine over the same compiled schema can adopt
// it instead of inferring the update again. It holds what the three
// conflict checks read of an UpdateSet — the full-chain slab with its
// depth count and endpoints, and the change region — and what decides
// whether an engine may adopt it: the depth bound it was inferred
// under, its row width, and the extra tags it interned, in ID order.
// It holds no engine, budget or context.
//
// Its slabs and markings are shared read-only by every engine that
// adopts it: nothing writes them after InferUpdate returns.
type UpdateSide struct {
	full     []uint64
	nd       int
	ends     Marks
	change   Marks
	maxDepth int
	w        int
	extras   []string
}

// InferUpdate infers the update side of u on e and detaches it. e must
// be fresh — nothing inferred and no tag interned — so the update's
// constructed tags take the first extra symbol IDs, and an adopter
// that interns them first gives them the same IDs. The sets e built
// become the side's shared slabs; e may adopt the side itself.
func (e *Engine) InferUpdate(u xquery.Update) *UpdateSide {
	uc := e.Update(e.RootEnv(), u)
	var (
		full []uint64
		nd   int
		ends Marks
	)
	if uc.Full != nil {
		full, nd, ends = uc.Full.g, uc.Full.nd, uc.Full.ends
	}
	return &UpdateSide{
		full:     full,
		nd:       nd,
		ends:     ends,
		change:   uc.ChangeRegion,
		maxDepth: e.MaxDepth,
		w:        e.w,
		extras:   slices.Clip(e.extraNames),
	}
}

// Fits reports whether e may adopt s: s was inferred under a depth
// bound at least e's and has e's row width. By Theorem 5.1 an update
// side inferred deeper than the pair needs decides the same conflicts
// (TestUpdateSideStableAboveKPair checks it on every XMark pair).
func (s *UpdateSide) Fits(e *Engine) bool { return s.maxDepth >= e.MaxDepth && s.w == e.w }

// Deeper reports whether s was inferred under a deeper bound than t:
// the update tier replaces t by s only then.
func (s *UpdateSide) Deeper(t *UpdateSide) bool { return s.maxDepth > t.maxDepth }

// WithUpdate hands the engine an update side for CheckIndependence to
// adopt instead of inferring the update; s must fit e (Fits). A nil s
// leaves the engine to infer the update itself.
func (e *Engine) WithUpdate(s *UpdateSide) *Engine {
	e.side = s
	return e
}

// adopt gives e its view of s: s's extra tags interned first, at the
// IDs they had where s was inferred, and a new Set header over the
// shared full-chain slab. Nothing is copied or charged, and the
// conflict checks still cut their sweeps from e.
func (e *Engine) adopt(s *UpdateSide) *UpdateSet {
	if !s.Fits(e) {
		panic(&guard.InternalError{Value: "cdag: adopting an update side of a shallower bound or another row width"})
	}
	for i, name := range s.extras {
		if e.internSym(name) != dtd.SymID(e.base+i) {
			panic(&guard.InternalError{Value: "cdag: adopting an update side after interning other tags"})
		}
	}
	uc := &UpdateSet{ChangeRegion: s.change}
	if s.full != nil {
		uc.Full = &Set{eng: e, g: s.full, nd: s.nd, ends: s.ends}
	}
	return uc
}
