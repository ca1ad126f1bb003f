// Package plan implements the prepared-analysis pipeline: the staged
// decomposition of one chain-method analysis into reusable, immutable
// artifacts. A CompiledExpr is what the CDAG rung of core serves for a
// (schema, query-update pair) — the decision, its conflict reasons and
// the k it was reached at — keyed by (schema fingerprint, pair digest)
// so repeated requests over the same logical pair (whitespace variants,
// renamed binders, sugared axes) resolve to one cached plan. The pair
// digest is a 128-bit SHA-256 digest of the normalized query and update
// (xquery.PairDigest). It is cryptographic because a cached verdict is
// served to every pair with its key, and a string literal in a query is
// free content to search for a collision over. The key is the plan's
// identity, so the plan does not repeat it; the chain DAGs the decision
// was derived from are discarded when the build returns.
//
// The stages mirror the analysis pipeline of the paper: fingerprint
// (normalize the Section 2 sugar away, once per request, and digest the
// pair), k-factors (Table 3, Section 5), chain inference (Sections
// 3–6). Each stage is budget-checked through guard and fault-injectable
// under a core.plan/* point, so the degradation ladder and the sentinel
// audit layer compose with the cache unchanged: a cached verdict is
// re-admitted against every request's own k limit, re-verified against
// its content checksum on every hit, and purged wholesale when the
// schema it was inferred under is quarantined.
package plan

import (
	"errors"
	"fmt"

	"xqindep/internal/cdag"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/xquery"
)

// CompiledExpr is the immutable prepared-analysis artifact for one
// (schema, query-update pair): the decision the CDAG engine reached
// under the compiled schema, with the conflict reasons and the k it was
// reached at. The chain DAGs of the derivation are not kept: serving
// reads only the decision, so that is all a resident holds. Construct
// it only through Prepare (or the cache's builder); after construction
// nothing may write to it. The checksum seals every stored field and
// Verify re-derives it on every cache hit, so any post-construction
// mutation is caught before the plan is served again.
type CompiledExpr struct {
	// verdict is decision-only: Independent, Reasons and K, no chain
	// sets.
	verdict  cdag.Verdict
	checksum uint64
}

// K returns the joint multiplicity k = max(1, k_q + k_u) of Table 3
// the chain universe was bounded by.
func (ce *CompiledExpr) K() int { return ce.verdict.K }

// Verdict returns the sealed decision: Independent, Reasons and K. Its
// chain sets are nil. The Reasons slice is part of the sealed artifact:
// read it, never write through it.
func (ce *CompiledExpr) Verdict() cdag.Verdict { return ce.verdict }

// Checksum returns the content checksum sealed at construction.
func (ce *CompiledExpr) Checksum() uint64 { return ce.checksum }

// FNV-64a parameters; the seal hashes inline so Verify allocates
// nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, len(s))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// computeChecksum hashes exactly the stored fields: the decision, K and
// each reason string.
func (ce *CompiledExpr) computeChecksum() uint64 {
	h := uint64(fnvOffset64)
	decision := 0
	if ce.verdict.Independent {
		decision = 1
	}
	h = fnvInt(h, decision)
	h = fnvInt(h, ce.verdict.K)
	h = fnvInt(h, len(ce.verdict.Reasons))
	for _, r := range ce.verdict.Reasons {
		h = fnvString(h, r)
	}
	return h
}

// Verify checks the plan's k and re-derives its content checksum, in
// time linear in the reasons and without allocating. The cache runs it
// on every hit: a mismatch means something wrote to the artifact after
// construction, and the resident is dropped and rebuilt rather than
// served.
func (ce *CompiledExpr) Verify() error {
	if ce == nil {
		return errors.New("plan: nil CompiledExpr")
	}
	if ce.verdict.K < 1 {
		return fmt.Errorf("plan: k=%d below 1", ce.verdict.K)
	}
	if got := ce.computeChecksum(); got != ce.checksum {
		return fmt.Errorf("plan: checksum mismatch: computed %016x, sealed %016x", got, ce.checksum)
	}
	return nil
}

// CorruptClone returns a copy of the plan with its decision flipped
// and the checksum left stale, so Verify fails on the clone. The
// original (a cache resident shared across requests) is untouched:
// chaos injection must corrupt a private copy, never the artifact
// other requests will be served. Test and chaos support only.
func (ce *CompiledExpr) CorruptClone() *CompiledExpr {
	cc := *ce
	//xqvet:ignore verdictflow deliberate chaos corruption of a private copy; the sentinel audit layer catches the unsound verdicts it causes
	cc.verdict.Independent = !ce.verdict.Independent
	return &cc
}

// Prepare resolves the prepared plan for the pair under the compiled
// schema, running the staged pipeline:
//
//	core.plan/fingerprint  normalize each side once and digest the
//	                       pair (the cache key)
//	core.plan/lookup       consult cache (verify-on-hit); on miss the
//	                       builder runs the two cold stages on the
//	                       normalized sides:
//	core.plan/kfactors       k per Table 3, admission check
//	core.plan/infer          CDAG chain inference, decision sealed
//	core.plan/artifact     hand the plan to the caller (chaos
//	                       corrupt-artifact injection point)
//
// Every stage charges b; stage overruns abort via guard and surface at
// the caller's guard.Recover boundary exactly as the monolithic path
// did, so the degradation ladder applies unchanged. The returned bool
// reports warm provenance: true when the plan came from cache without
// running the cold stages. A cached plan's k is re-checked against
// b's own limits — admission is per-request even when inference is
// amortised. cache may be nil to force an uncached cold build (used
// by core when a chaos fault corrupts the schema artifact itself:
// plans inferred under a corrupted schema must never enter the cache).
func Prepare(cache *Cache, c *dtd.Compiled, q xquery.Query, u xquery.Update, b *guard.Budget) (*CompiledExpr, bool, error) {
	return prepare(cache, c.Fingerprint(), func() *dtd.Compiled { return c }, q, u, b)
}

// PrepareSchema is Prepare for a schema whose compiled form is
// resolved through dtd.Compile only when the plan must be built. A
// warm hit never reads the compiled schema, and after a purge of the
// schema's fingerprint the next cold build recompiles it, whoever holds
// d. A schema that cannot be compiled aborts the build with an error
// wrapping guard.ErrBudgetExceeded, so the ladder degrades to the
// analyses that need no dense alphabet.
func PrepareSchema(cache *Cache, d *dtd.DTD, q xquery.Query, u xquery.Update, b *guard.Budget) (*CompiledExpr, bool, error) {
	return prepare(cache, d.Fingerprint(), func() *dtd.Compiled {
		c, err := dtd.Compile(d)
		if err != nil {
			guard.Abort(fmt.Errorf("plan: schema compilation failed: %w", err))
		}
		return c
	}, q, u, b)
}

// prepare is the pipeline shared by Prepare and PrepareSchema; resolve
// yields the compiled schema and runs only inside a cold build. A
// request normalizes each side once, here: the pair digest and a cold
// build both read the normalized sides.
func prepare(cache *Cache, schemaFP string, resolve func() *dtd.Compiled, q xquery.Query, u xquery.Update, b *guard.Budget) (*CompiledExpr, bool, error) {
	b.Point("core.plan/fingerprint")
	nq, nu := xquery.Normalize(q), xquery.NormalizeUpdate(u)
	key := planKey{schemaFP, xquery.PairDigest(nq, nu)}

	b.Point("core.plan/lookup")
	ce, warm := cache.get(key, func() *CompiledExpr {
		return build(resolve, nq, nu, b)
	})

	// Admission is per-request: a plan cached under one request's
	// limits may exceed this request's MaxK, and a warm hit must
	// degrade exactly as a cold build would have.
	if err := b.CheckK(ce.K()); err != nil {
		return nil, warm, err
	}

	if ferr := guard.FirePoint(b.Context(), "core.plan/artifact"); ferr != nil {
		if !errors.Is(ferr, guard.ErrArtifactCorrupt) {
			return nil, warm, ferr
		}
		// Chaos corrupt-artifact injection: serve a privately corrupted
		// clone. The cache resident stays intact — corruption must not
		// leak across requests — and the clone fails Verify, which is
		// exactly what the containment layers are tested against.
		ce = ce.CorruptClone()
	}
	return ce, warm, nil
}

// build runs the cold stages on the normalized pair. It charges b
// throughout and aborts via guard on overrun; the cache never sees a
// partially built plan.
func build(resolve func() *dtd.Compiled, nq xquery.Query, nu xquery.Update, b *guard.Budget) *CompiledExpr {
	b.Point("core.plan/kfactors")
	if err := b.CheckK(infer.KPair(nq, nu)); err != nil {
		guard.Abort(err)
	}

	b.Point("core.plan/infer")
	// cdag.build marks the build entry and times engine construction;
	// CheckIndependence marks query inference, update inference and the
	// conflict checks. Chaos schedules arming any of them reach it on
	// every cold build.
	b.Point("cdag.build")
	e := cdag.EngineForCompiled(resolve(), nq, nu).WithBudget(b)
	v := e.CheckIndependence(nq, nu)

	// Keep the decision, drop the derivation: the chain sets (and the
	// engine and request budget they reference) die with the build.
	ce := &CompiledExpr{
		verdict: cdag.Verdict{Independent: v.Independent, Reasons: v.Reasons, K: v.K},
	}
	ce.checksum = ce.computeChecksum()
	return ce
}
