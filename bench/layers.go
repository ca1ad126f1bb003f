package main

import (
	"context"

	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/plan"
	"xqindep/internal/xquery"
)

// Every layer entry point the traced replay times is pinned in this
// file, one function per timed call, named after the span it records.
// When an API change breaks one, the fix lands here and nowhere else.

// dtd layer.

func dtdParse(text string) (*dtd.DTD, error) { return dtd.Parse(text) }

// dtdCompile times what a compile-cache miss costs; the cache itself
// would turn every call after the first into a hit.
func dtdCompile(d *dtd.DTD) (*dtd.Compiled, error) {
	return dtd.NewCompiled(d) //xqvet:ignore compilecache measures the uncached compile a cache miss pays
}

// dtdLookup resolves the schema through the process-wide compile
// cache: a hit plus its verify-on-hit.
func dtdLookup(d *dtd.DTD) (*dtd.Compiled, error) { return dtd.Compile(d) }

// xquery layer.

func xqueryParse(query, update string) (xquery.Query, xquery.Update, error) {
	q, err := xquery.ParseQuery(query)
	if err != nil {
		return nil, nil, err
	}
	u, err := xquery.ParseUpdate(update)
	return q, u, err
}

// fingerprinted is what plan.Prepare derives before its cache lookup.
type fingerprinted struct {
	q            xquery.Query
	u            xquery.Update
	qfp, ufp, fp string
}

func xqueryFingerprint(q xquery.Query, u xquery.Update) fingerprinted {
	nq, nu := xquery.Normalize(q), xquery.NormalizeUpdate(u)
	return fingerprinted{
		q: nq, u: nu,
		qfp: xquery.FingerprintQuery(nq),
		ufp: xquery.FingerprintUpdate(nu),
		fp:  xquery.FingerprintPair(nq, nu),
	}
}

// infer layer: the Table 3 multiplicity factors.

func inferKFactors(q xquery.Query, u xquery.Update) (kq, ku, k int) {
	return infer.KQuery(q), infer.KUpdate(u), infer.KPair(q, u)
}

// cdag layer: the stages of one cold plan build, called on the
// normalized pair exactly as plan.Prepare's builder calls them.

func cdagEngine(c *dtd.Compiled, q xquery.Query, u xquery.Update) *cdag.Engine {
	return cdag.EngineForCompiled(c, q, u)
}

func cdagInferQuery(e *cdag.Engine, q xquery.Query) cdag.QueryChains {
	return e.Query(e.RootEnv(), q)
}

func cdagInferUpdate(e *cdag.Engine, u xquery.Update) *cdag.UpdateSet {
	return e.Update(e.RootEnv(), u)
}

// cdagConflict runs the three Section 6.1 conflict checks and returns
// the verdict they imply.
func cdagConflict(qc cdag.QueryChains, uc *cdag.UpdateSet) bool {
	r := cdag.ConflictRetUpdate(qc.Ret, uc)
	ur := cdag.ConflictUpdateRet(uc, qc.Ret)
	uv := cdag.ConflictUpdateUsed(uc, qc.Used)
	return !r && !ur && !uv
}

// cdagEnds counts the DAG endpoints of the return, used and update
// chain sets: the size of what the conflict checks walk.
func cdagEnds(qc cdag.QueryChains, uc *cdag.UpdateSet) int {
	return qc.Ret.EndCount() + qc.Used.EndCount() + uc.Full.EndCount()
}

// plan layer.

// planPrepare installs the Recover boundary core normally provides:
// Prepare aborts by panic on a budget overrun.
func planPrepare(ctx context.Context, cache *plan.Cache, c *dtd.Compiled, q xquery.Query, u xquery.Update) (ce *plan.CompiledExpr, warm bool, err error) {
	defer guard.Recover(&err)
	return plan.Prepare(cache, c, q, u, guard.New(ctx, guard.Limits{}))
}

// core layer: the whole chain analysis as the pool's workers run it.

func coreAnalyze(ctx context.Context, a *core.Analyzer, q xquery.Query, u xquery.Update, cache *plan.Cache) (core.Result, error) {
	return a.AnalyzeContext(ctx, q, u, core.MethodChains, core.Options{Plans: cache})
}
