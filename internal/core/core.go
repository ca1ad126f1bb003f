// Package core orchestrates the paper's primary contribution: given a
// schema and a query-update pair, it derives the multiplicity k = kq +
// ku (Table 3), runs chain inference over the finite k-chain universe
// (Sections 3–5) using either the polynomial CDAG engine (Section 6.1)
// or the explicit-set reference engine, and decides independence
// (Definition 4.1). The two baseline analyses of the evaluation
// section — flat type sets [6] and schema-less path overlap [15]/[5] —
// are exposed through the same interface for comparison.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/obs"
	"xqindep/internal/pathanalysis"
	"xqindep/internal/plan"
	"xqindep/internal/quarantine"
	"xqindep/internal/typeanalysis"
	"xqindep/internal/xquery"
)

// Method selects an analysis technique.
type Method int

const (
	// MethodChains is the paper's contribution run on the CDAG engine
	// (polynomial; the default).
	MethodChains Method = iota
	// MethodChainsExact is the same calculus over explicit chain sets
	// (exact w.r.t. Tables 1–2, exponential in the worst case).
	MethodChainsExact
	// MethodTypes is the Benedikt-Cheney type-set baseline [6].
	MethodTypes
	// MethodPaths is the schema-less path-overlap baseline [15]/[5].
	MethodPaths
	// MethodConservative is the bottom of the degradation ladder: it
	// performs no analysis and always answers "not independent". Since
	// every method is sound (a true verdict is a guarantee, a false
	// verdict is merely "could not prove"), answering false is always
	// safe — it can only cost precision, never correctness.
	MethodConservative
)

var methodNames = map[Method]string{
	MethodChains:       "chains",
	MethodChainsExact:  "chains-exact",
	MethodTypes:        "types",
	MethodPaths:        "paths",
	MethodConservative: "conservative",
}

// rungSpanNames precomputes the per-rung trace span names so opening
// a span never concatenates strings on the hot path (a nil trace must
// stay allocation-free).
var rungSpanNames = map[Method]string{
	MethodChains:       "rung:chains",
	MethodChainsExact:  "rung:chains-exact",
	MethodTypes:        "rung:types",
	MethodPaths:        "rung:paths",
	MethodConservative: "rung:conservative",
}

// fallbackLadder orders the methods tried when m exceeds its budget,
// strongest first. Every rung is sound, so swapping a stronger rung
// for a weaker one can only turn "independent" into "unknown" — never
// the reverse — and the ladder always terminates: MethodConservative
// consumes no budget at all.
func fallbackLadder(m Method) []Method {
	switch m {
	case MethodChainsExact:
		return []Method{MethodChainsExact, MethodChains, MethodTypes, MethodPaths, MethodConservative}
	case MethodChains:
		return []Method{MethodChains, MethodTypes, MethodPaths, MethodConservative}
	case MethodTypes:
		return []Method{MethodTypes, MethodPaths, MethodConservative}
	case MethodPaths:
		return []Method{MethodPaths, MethodConservative}
	default:
		return []Method{m}
	}
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a method name.
func ParseMethod(s string) (Method, error) {
	for m, name := range methodNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (want chains, chains-exact, types or paths)", s)
}

// Result reports one independence decision.
type Result struct {
	Independent bool
	Method      Method
	// K is the multiplicity kq+ku of the finite analysis (chain
	// methods only).
	K int
	// Witnesses lists human-readable conflict evidence when dependent.
	Witnesses []string
	// Elapsed is the analysis wall-clock time.
	Elapsed time.Duration
	// Degraded reports that the requested method exceeded its budget
	// and Method is a weaker (but still sound) rung of the fallback
	// ladder. A degraded Independent=true verdict is still a proof.
	Degraded bool
	// FallbackChain lists every method attempted, strongest first,
	// ending with the one that produced the verdict. Empty unless
	// Degraded.
	FallbackChain []Method
	// Err is the budget error that forced the first degradation
	// (wraps guard.ErrBudgetExceeded). Nil unless Degraded.
	Err error
	// Plan reports prepared-plan provenance for the CDAG chain rung:
	// "warm" when the verdict came from a cached CompiledExpr, "cold"
	// when this request ran the inference stages. Empty for every
	// other method.
	Plan string
}

// Options configures AnalyzeContext.
type Options struct {
	// Limits bounds the analysis; zero fields take guard defaults.
	Limits guard.Limits
	// NoFallback disables the degradation ladder: a budget overrun is
	// returned as an error instead of a weaker verdict. It does NOT
	// disable the quarantine downgrade below — containment of a
	// suspected-unsound schema must not be optional.
	NoFallback bool
	// Quarantine is the containment registry consulted before every
	// analysis: while the schema's fingerprint is quarantined (a runtime
	// audit caught a wrong Independent verdict on it), the verdict is
	// downgraded to the conservative ladder rung without running the
	// suspect engines. Nil downgrades nothing: only an auditor records
	// the disagreements that quarantine a schema, and every auditor
	// owns a registry.
	Quarantine *quarantine.Registry
	// Plans is the prepared-plan cache consulted by the CDAG chain
	// rung: the staged pipeline (fingerprint → lookup → k-factors →
	// inference) resolves repeated logical pairs to one cached
	// artifact. Nil caches nothing: every chains analysis builds cold.
	Plans *plan.Cache
}

// Analyzer decides query-update independence for documents valid
// w.r.t. one schema. It holds only the source schema: the compiled
// form is resolved through the shared fingerprint-keyed cache on each
// plan build, so a purge of that cache reaches every analyzer.
type Analyzer struct {
	D *dtd.DTD
}

// NewAnalyzer builds an analyzer for the schema.
func NewAnalyzer(d *dtd.DTD) *Analyzer { return &Analyzer{D: d} }

// errNilExpression rejects a missing query or update.
var errNilExpression = errors.New("core: nil expression")

// check verifies the pair is quasi-closed (only the root variable
// free), the form the whole calculus is stated for. Each side recorded
// whether it is when it was prepared.
func check(q *xquery.PreparedQuery, u *xquery.PreparedUpdate) error {
	if q == nil || u == nil || q.AST == nil || u.AST == nil {
		return errNilExpression
	}
	if !q.QuasiClosed() {
		return fmt.Errorf("core: query has free variables besides %s", xquery.RootVar)
	}
	if !u.QuasiClosed() {
		return fmt.Errorf("core: update has free variables besides %s", xquery.RootVar)
	}
	return nil
}

// quarantined is the verdict served for method m on a schema whose
// fingerprint is quarantined, without running the suspect engines: the
// conservative rung, reported through the same Degraded/Err contract
// as a budget fallback so callers and dashboards need no new case.
// It marks core.quarantine in tr.
func quarantined(tr *obs.Trace, m Method, start time.Time) Result {
	tr.Mark("core.quarantine", 0, 0)
	return Result{
		Method:        MethodConservative,
		Independent:   false,
		Witnesses:     []string{"schema fingerprint quarantined after audit disagreement; conservatively assuming dependence"},
		Degraded:      true,
		FallbackChain: []Method{m, MethodConservative},
		Err:           quarantine.ErrQuarantined,
		Elapsed:       time.Since(start),
	}
}

// residentMarks are the points the chains rung marks on a warm hit, in
// the order it marks them; Resident marks them too.
var residentMarks = [...]string{"core.analyze", "core.artifact", "core.plan/fingerprint", "core.plan/lookup", "core.plan/artifact", "core.verdict"}

// Resident answers a chains request without a budget or the ladder
// when the schema is quarantined, with the conservative verdict, or
// when the pair's plan is resident in opts.Plans within
// opts.Limits.MaxK, with the verdict and trace the chains rung gives
// from that resident. Otherwise it declines, returning false, and the
// ladder answers. The lookup counts only a hit, so a request counts one
// plan-tier hit or miss either way. Resident fires no fault point, so
// it declines a request whose context carries a guard.Injector: that
// request runs the ladder, where the fault points are.
func (a *Analyzer) Resident(ctx context.Context, q *xquery.PreparedQuery, u *xquery.PreparedUpdate, opts Options) (Result, bool) {
	if check(q, u) != nil || guard.InjectorOf(ctx) != nil {
		return Result{}, false
	}
	start := time.Now()
	tr := obs.FromContext(ctx)
	fp := a.D.Fingerprint()
	if reg := opts.Quarantine; reg != nil && reg.Downgrade(fp) {
		return quarantined(tr, MethodChains, start), true
	}
	ce, ok := opts.Plans.Resident(fp, q, u, opts.Limits)
	if !ok {
		return Result{}, false
	}
	sp := tr.Start(rungSpanNames[MethodChains])
	for _, p := range residentMarks {
		tr.Mark(p, 0, 0)
	}
	sp.Annotate("warm")
	sp.End()
	v := ce.Verdict()
	return Result{
		Independent: v.Independent,
		Method:      MethodChains,
		K:           v.K,
		Witnesses:   v.Reasons,
		Elapsed:     time.Since(start),
		Plan:        "warm",
	}, true
}

// Analyze decides independence of the pair with the given method,
// under default limits and with the degradation ladder enabled.
func (a *Analyzer) Analyze(q xquery.Query, u xquery.Update, m Method) (Result, error) {
	return a.AnalyzeContext(context.Background(), q, u, m, Options{}) //xqvet:ignore ctxflow context-free convenience wrapper; cancellation-aware callers use AnalyzeContext
}

// AnalyzeContext decides independence of the pair with the given
// method under ctx and opts.Limits: it prepares the two sides
// (xquery.PrepareQuery, PrepareUpdate) and runs AnalyzePrepared on
// them. A caller that analyzes one expression many times prepares it
// once and calls AnalyzePrepared.
func (a *Analyzer) AnalyzeContext(ctx context.Context, q xquery.Query, u xquery.Update, m Method, opts Options) (Result, error) {
	if q == nil || u == nil {
		return Result{}, errNilExpression
	}
	var (
		qs *xquery.PreparedQuery
		us *xquery.PreparedUpdate
	)
	// Normalizing walks the AST and panics on foreign node types;
	// convert that to an InternalError.
	if err := guard.Do(func() { qs, us = xquery.PrepareQuery("", q), xquery.PrepareUpdate("", u) }); err != nil {
		return Result{}, err
	}
	return a.AnalyzePrepared(ctx, qs, us, m, opts)
}

// AnalyzePrepared decides independence of the prepared pair with the
// given method under ctx and opts.Limits. The chains rung reads the
// sides' normalized ASTs and digests, the other rungs their parsed
// ASTs; the sides are only read, so one may serve concurrent calls.
//
// When the method exceeds its budget (deadline, chain/node count, or
// multiplicity k beyond Limits.MaxK) and fallback is enabled, the
// analysis degrades along fallbackLadder(m): each weaker rung runs
// under a fresh budget on the same ctx, so it gets its own chain and
// node counts but the deadline already partly spent, and the final
// conservative rung costs nothing, so the call returns promptly after
// a deadline instead of failing. The degraded result records what
// happened in Degraded, FallbackChain and Err.
//
// An explicitly cancelled ctx returns context.Canceled with no
// verdict: cancellation means the caller no longer wants an answer,
// while a deadline means it wants the best answer available now.
//
// Any panic escaping the analysis internals is converted into a
// *guard.InternalError carrying the panic value and stack.
func (a *Analyzer) AnalyzePrepared(ctx context.Context, q *xquery.PreparedQuery, u *xquery.PreparedUpdate, m Method, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := methodNames[m]; !ok {
		return Result{}, fmt.Errorf("core: unknown method %v", m)
	}
	if err := check(q, u); err != nil {
		return Result{}, err
	}
	start := time.Now()
	tr := obs.FromContext(ctx)
	if reg := opts.Quarantine; reg != nil && m != MethodConservative && reg.Downgrade(a.D.Fingerprint()) {
		return quarantined(tr, m, start), nil
	}
	ladder := fallbackLadder(m)
	if opts.NoFallback {
		ladder = ladder[:1]
	}
	var attempted []Method
	var firstBudgetErr error
	for i, rung := range ladder {
		attempted = append(attempted, rung)
		sp := tr.Start(rungSpanNames[rung])
		res, err := a.analyzeOnce(ctx, rung, q, u, opts.Limits, opts.Plans)
		if err == nil {
			if res.Plan != "" {
				sp.Annotate(res.Plan)
			}
			sp.End()
			res.Elapsed = time.Since(start)
			if i > 0 {
				res.Degraded = true
				res.FallbackChain = attempted
				res.Err = firstBudgetErr
			}
			return res, nil
		}
		if errors.Is(err, guard.ErrBudgetExceeded) {
			sp.Annotate("budget exceeded")
		}
		sp.End()
		if !errors.Is(err, guard.ErrBudgetExceeded) || i == len(ladder)-1 {
			// Internal errors, cancellation, malformed input — or a
			// budget overrun with nowhere left to fall.
			return Result{}, err
		}
		if firstBudgetErr == nil {
			firstBudgetErr = err
		}
	}
	// Unreachable: MethodConservative never errors.
	return Result{}, firstBudgetErr
}

// analyzeOnce runs a single ladder rung under a fresh budget, with
// the panic-to-error boundary installed.
func (a *Analyzer) analyzeOnce(ctx context.Context, m Method, q *xquery.PreparedQuery, u *xquery.PreparedUpdate, lim guard.Limits, plans *plan.Cache) (res Result, err error) {
	defer guard.Recover(&err)
	b := guard.New(ctx, lim)
	b.Point("core.analyze")
	res.Method = m
	switch m {
	case MethodChains:
		var (
			ce   *plan.CompiledExpr
			warm bool
			perr error
		)
		if ferr := guard.FirePoint(b.Context(), "core.artifact"); ferr != nil {
			if !errors.Is(ferr, guard.ErrArtifactCorrupt) {
				return Result{}, ferr
			}
			// Chaos corrupt-artifact injection: analyze on a privately
			// corrupted copy (the shared cache resident stays intact —
			// corruption must not leak across requests). The copy's
			// damage is deterministic per schema. The plan cache is
			// bypassed entirely: a plan inferred under a corrupted
			// schema must never become a resident other requests hit.
			c, cerr := dtd.Compile(a.D)
			if cerr != nil {
				return Result{}, fmt.Errorf("core: schema compilation failed: %w", cerr)
			}
			ce, warm, perr = plan.Prepare(nil, c.WithCorruption(int64(c.Checksum())|1), q.AST, u.AST, b)
		} else {
			ce, warm, perr = plan.PrepareSchema(plans, a.D, q, u, b)
		}
		if perr != nil {
			return Result{}, perr
		}
		v := ce.Verdict()
		res.Independent = v.Independent
		res.K = v.K
		res.Witnesses = v.Reasons
		if warm {
			res.Plan = "warm"
		} else {
			res.Plan = "cold"
		}
	case MethodChainsExact:
		k := infer.KPair(q.AST, u.AST)
		if err := b.CheckK(k); err != nil {
			return Result{}, err
		}
		v := infer.IndependenceBudget(a.D, q.AST, u.AST, b)
		res.Independent = v.Independent
		res.K = v.K
		for _, c := range v.Conflicts {
			res.Witnesses = append(res.Witnesses, c.String())
		}
	case MethodTypes:
		v := typeanalysis.IndependenceBudget(a.D, q.AST, u.AST, b)
		res.Independent = v.Independent
		if !v.Independent {
			res.Witnesses = append(res.Witnesses, fmt.Sprintf("type overlap %v", v.Overlap))
		}
	case MethodPaths:
		v, perr := pathanalysis.IndependenceBudget(q.AST, u.AST, b)
		if perr != nil {
			return Result{}, perr
		}
		res.Independent = v.Independent
		if !v.Independent {
			res.Witnesses = append(res.Witnesses, fmt.Sprintf("path overlap %s vs %s", v.Witness[0], v.Witness[1]))
		}
	case MethodConservative:
		// No work, no budget use: always reachable, always sound.
		res.Independent = false
		res.Witnesses = []string{"analysis budget exceeded; conservatively assuming dependence"}
	default:
		return Result{}, fmt.Errorf("core: unknown method %v", m)
	}
	if ferr := guard.FirePoint(b.Context(), "core.verdict"); ferr != nil {
		if !errors.Is(ferr, guard.ErrVerdictFlip) {
			return Result{}, ferr
		}
		// Chaos flip-verdict injection: corrupt the rung verdict about
		// to be returned, simulating an unsound engine edge case. The
		// sentinel audit layer is responsible for catching the
		// Independent=true flips this produces.
		//xqvet:ignore verdictflow chaos flip-verdict injection is unsound by design; the sentinel audit catches it
		res.Independent = !res.Independent
	}
	return res, nil
}
