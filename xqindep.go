// Package xqindep statically detects XML query-update independence in
// the presence of a schema, implementing the type-based chain analysis
// of Bidoit-Tollu, Colazzo and Ulliana, "Type-Based Detection of XML
// Query-Update Independence" (VLDB 2012).
//
// A query q and an update u are independent when executing u can never
// change the result of q on any document valid for the schema. The
// analyzer infers, from the DTD, the *chains* (root-to-node label
// sequences) a query returns and uses and the chains an update
// changes, and reports independence when no chain pair is in prefix
// conflict. Recursive schemas are handled by the paper's finite
// k-chain analysis; the default engine is the polynomial CDAG
// implementation.
//
// Typical use:
//
//	schema, _ := xqindep.ParseSchema("bib <- book*\nbook <- title\ntitle <- #PCDATA")
//	q, _ := xqindep.ParseQuery("//title")
//	u, _ := xqindep.ParseUpdate("for $x in //book return insert <author/> into $x")
//	ok, _ := schema.Independent(q, u)   // true: the update cannot affect //title
//
// Besides the static analysis the package evaluates queries and
// updates on documents (the paper's dynamic semantics), which is what
// view-maintenance applications need anyway: skip re-materialisation
// when Independent, re-run the query otherwise.
//
// For serving many concurrent analyses, NewPool wraps the analyzer in
// counted admission control, per-schema circuit breakers, a
// prepared-plan cache, an optional runtime verdict audit, and an HTTP
// front end (Pool.Handler, Serve) whose operations surface
// — /statz, /metricz, /tracez, /incidentz — is documented in the
// README's "Operating xqindepd" section.
package xqindep

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"xqindep/internal/cdag"
	"xqindep/internal/core"
	"xqindep/internal/dtd"
	"xqindep/internal/eval"
	"xqindep/internal/guard"
	"xqindep/internal/infer"
	"xqindep/internal/plan"
	"xqindep/internal/preserve"
	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// Schema is a parsed DTD or Extended DTD.
type Schema struct {
	d *dtd.DTD
	a *core.Analyzer
}

// ParseSchema parses a schema in compact notation ("a <- (b | c)*",
// one declaration per line, optional "start name" directive, EDTD
// labels in brackets) or classic <!ELEMENT ...> notation.
func ParseSchema(text string) (*Schema, error) {
	d, err := dtd.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Schema{d: d, a: core.NewAnalyzer(d)}, nil
}

// MustParseSchema is ParseSchema, panicking on error.
func MustParseSchema(text string) *Schema {
	s, err := ParseSchema(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the number of declared element types (|d|).
func (s *Schema) Size() int { return s.d.Size() }

// Start returns the start symbol.
func (s *Schema) Start() string { return s.d.Start }

// IsRecursive reports whether the schema is vertically recursive (the
// chain universe Cd is infinite and the finite k-analysis kicks in).
func (s *Schema) IsRecursive() bool { return s.d.IsRecursive() }

// String renders the schema in compact notation.
func (s *Schema) String() string { return s.d.String() }

// Fingerprint returns a stable content hash of the schema; two
// schemas with the same declarations share it regardless of input
// notation. The serving layer (Pool) keys its per-schema circuit
// breakers on it.
func (s *Schema) Fingerprint() string { return s.d.Fingerprint() }

// DTD exposes the underlying schema to the internal packages; it is
// the escape hatch for advanced integrations and tests.
func (s *Schema) DTD() *dtd.DTD { return s.d }

// CompiledSchema is the dense compiled artifact the Chains method's
// CDAG engine runs on: symbols interned to small integers, with the
// successor, sibling-order and label tables that engine reads held as
// bitsets, and the count of recursive types. It is immutable and safe
// for concurrent use; equal-fingerprint schemas share one instance
// through the process-wide compilation cache.
type CompiledSchema struct {
	c *dtd.Compiled
}

// Compile returns the compiled form of the schema, resolved through
// the fingerprint-keyed compilation cache: repeated calls — from any
// goroutine, for any Schema with the same declarations — return the
// shared artifact. Schemas beyond the compiled alphabet limit return
// an error wrapping ErrBudgetExceeded.
func (s *Schema) Compile() (*CompiledSchema, error) {
	c, err := dtd.Compile(s.d)
	if err != nil {
		return nil, err
	}
	return &CompiledSchema{c: c}, nil
}

// NumSymbols returns |Σ| including the synthetic string type.
func (cs *CompiledSchema) NumSymbols() int { return cs.c.NumSyms() }

// Fingerprint returns the content hash the cache keys on; it equals
// the source Schema's Fingerprint.
func (cs *CompiledSchema) Fingerprint() string { return cs.c.Fingerprint() }

// RecursiveTypes returns the number of types on a ⇒d cycle.
func (cs *CompiledSchema) RecursiveTypes() int { return cs.c.RecursiveCount() }

// CompileCacheStats reports the process-wide compilation cache
// counters; the analysis server exposes the same numbers on /statz.
func CompileCacheStats() dtd.CacheStats { return dtd.CompileCacheStats() }

// SharedPlanStats reports the process-wide prepared-plan cache used by
// AnalyzeContext when no explicit cache is configured. Pools maintain
// their own caches; see Pool.PlanStats.
func SharedPlanStats() plan.CacheStats { return plan.Shared().Stats() }

// Query is a parsed query of the supported XQuery fragment.
type Query struct {
	ast xquery.Query
	src string
}

// ParseQuery parses a query; XPath sugar (absolute paths, //,
// predicates, abbreviated steps) is desugared into the core fragment.
func ParseQuery(text string) (*Query, error) {
	q, err := xquery.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return &Query{ast: q, src: text}, nil
}

// MustParseQuery is ParseQuery, panicking on error.
func MustParseQuery(text string) *Query {
	q, err := ParseQuery(text)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the original query text.
func (q *Query) String() string { return q.src }

// Core returns the desugared core-fragment form.
func (q *Query) Core() string { return q.ast.String() }

// Fingerprint returns a stable content hash of the desugared query, 32
// hex characters: sugared variants, whitespace differences, renamed
// binders and reassociated sequences of the same logical query share
// it. It identifies the query alone and is not part of the
// prepared-plan cache key, which is (Schema.Fingerprint,
// PairFingerprint).
func (q *Query) Fingerprint() string { return xquery.FingerprintQuery(q.ast) }

// Update is a parsed update of the supported XQuery Update Facility
// fragment.
type Update struct {
	ast xquery.Update
	src string
}

// ParseUpdate parses an update expression.
func ParseUpdate(text string) (*Update, error) {
	u, err := xquery.ParseUpdate(text)
	if err != nil {
		return nil, err
	}
	return &Update{ast: u, src: text}, nil
}

// MustParseUpdate is ParseUpdate, panicking on error.
func MustParseUpdate(text string) *Update {
	u, err := ParseUpdate(text)
	if err != nil {
		panic(err)
	}
	return u
}

// String returns the original update text.
func (u *Update) String() string { return u.src }

// Core returns the desugared core-fragment form.
func (u *Update) Core() string { return u.ast.String() }

// Fingerprint returns a stable content hash of the desugared update,
// with the same equivalences as Query.Fingerprint. Like it, it is not
// part of the prepared-plan cache key.
func (u *Update) Fingerprint() string { return xquery.FingerprintUpdate(u.ast) }

// PairFingerprint returns the content hash of the (query, update)
// pair, 32 hex characters: the second component of the prepared-plan
// cache key (the first is the schema fingerprint). It is a 128-bit
// SHA-256 digest of the normalized pair, not a combination of the two
// sides' fingerprints.
func PairFingerprint(q *Query, u *Update) string {
	return xquery.FingerprintPair(q.ast, u.ast)
}

// Method selects the analysis technique.
type Method = core.Method

// Analysis methods: Chains is the paper's contribution on the
// polynomial CDAG engine (the default); ChainsExact runs the same
// calculus on explicit chain sets; Types and Paths are the two
// baselines of the paper's evaluation. Conservative is the bottom of
// the degradation ladder: no analysis, always "not independent".
const (
	Chains       = core.MethodChains
	ChainsExact  = core.MethodChainsExact
	Types        = core.MethodTypes
	Paths        = core.MethodPaths
	Conservative = core.MethodConservative
)

// Limits bounds the resources an analysis may consume. The zero value
// of any field selects a generous default; use guard.NoLimit semantics
// by setting very large values. Parsing is bounded before any Limits
// apply: ParseSchema, ParseQuery, ParseUpdate and ParseDocument reject
// input over 8 MiB or nested deeper than 512 levels.
type Limits = guard.Limits

// Options configures AnalyzeContext.
type Options struct {
	// Limits bounds chain/node counts and multiplicity k; zero fields
	// take defaults.
	Limits Limits
	// NoFallback disables the degradation ladder: budget overruns are
	// returned as errors instead of weaker verdicts.
	NoFallback bool
}

// ErrBudgetExceeded is the sentinel wrapped by every budget-overrun
// error; test with errors.Is.
var ErrBudgetExceeded = guard.ErrBudgetExceeded

// InternalError is the typed wrapper for panics recovered at the
// analysis boundary; it carries the panic value and stack trace.
type InternalError = guard.InternalError

// Report is the outcome of one analysis.
type Report struct {
	// Independent is the verdict; false means "dependence could not be
	// excluded" (the analysis is sound but necessarily incomplete).
	Independent bool
	// Method that produced the verdict.
	Method Method
	// K is the multiplicity kq+ku of the finite analysis (chain
	// methods).
	K int
	// Witnesses holds conflict evidence when dependent.
	Witnesses []string
	// Elapsed is the analysis time.
	Elapsed time.Duration
	// Degraded reports that the requested method exceeded its budget
	// and Method is a weaker — but still sound — technique from the
	// fallback ladder. A degraded Independent=true is still a proof;
	// a degraded Independent=false may just mean "ran out of budget".
	Degraded bool
	// FallbackChain lists every method attempted, strongest first,
	// ending with the one that produced the verdict (set when
	// Degraded).
	FallbackChain []Method
	// Err is the budget error that forced the first degradation (set
	// when Degraded; wraps ErrBudgetExceeded).
	Err error
	// Plan reports prepared-plan provenance for chain verdicts: "warm"
	// when the verdict was served from a cached compiled plan, "cold"
	// when this request built (and cached) the plan. Empty for methods
	// that do not go through the plan pipeline.
	Plan string
}

// Independent runs the default chain analysis and reports the verdict.
func (s *Schema) Independent(q *Query, u *Update) (bool, error) {
	return s.a.Independent(q.ast, u.ast)
}

// Analyze runs the selected analysis under default limits and returns
// the full report.
func (s *Schema) Analyze(q *Query, u *Update, m Method) (Report, error) {
	return s.AnalyzeContext(context.Background(), q, u, m, Options{}) //xqvet:ignore ctxflow context-free convenience wrapper; cancellation-aware callers use AnalyzeContext
}

// AnalyzeContext runs the selected analysis under ctx and opts.
//
// The analysis observes ctx cooperatively: a deadline makes it
// degrade along the sound fallback ladder (chains-exact → chains →
// types → paths → conservative "not independent"), recorded in the
// report's Degraded/FallbackChain/Err fields, while an explicit
// cancellation returns context.Canceled with no verdict. Budget
// overruns (opts.Limits) degrade the same way unless opts.NoFallback
// is set. Internal panics surface as *InternalError rather than
// crashing the caller.
func (s *Schema) AnalyzeContext(ctx context.Context, q *Query, u *Update, m Method, opts Options) (Report, error) {
	r, err := s.a.AnalyzeContext(ctx, q.ast, u.ast, m, core.Options{
		Limits:     opts.Limits,
		NoFallback: opts.NoFallback,
	})
	if err != nil {
		return Report{}, err
	}
	return reportFromResult(r), nil
}

// Commute decides update-update commutativity: whether applying u1
// and u2 in either order is guaranteed to produce the same document on
// every valid input. This extends the chain framework to the
// commutativity problem of Ghelli, Rose and Siméon; like Independent,
// a true verdict is a guarantee and false may be a false alarm. It
// runs the explicit-set chain engine, exponential on recursive
// schemas, under the default Limits: an overrun returns false — the
// sound "possibly order-dependent" — with an error wrapping
// ErrBudgetExceeded.
func (s *Schema) Commute(u1, u2 *Update) (ok bool, err error) {
	if !xquery.QuasiClosedUpdate(u1.ast) || !xquery.QuasiClosedUpdate(u2.ast) {
		return false, fmt.Errorf("xqindep: updates must be quasi-closed")
	}
	defer guard.Recover(&err)
	return infer.CommutativityBudget(s.d, u1.ast, u2.ast, contextFreeBudget()).Commute, nil
}

// contextFreeBudget is the budget of the calls that take no context
// (Commute, ExplainChains): the default Limits, no deadline.
func contextFreeBudget() *guard.Budget {
	return guard.New(context.Background(), Limits{}) //xqvet:ignore ctxflow context-free convenience API; the default limits bound it in place of a caller's deadline
}

// PreservesSchema statically checks that the update keeps every valid
// document valid — the precondition under which the independence
// analysis covers insert, rename and replace updates (deletions are
// covered unconditionally). A true verdict is a guarantee; when false,
// the returned reasons describe the potential violations (which may be
// false alarms).
func (s *Schema) PreservesSchema(u *Update) (bool, []string) {
	v := preserve.Check(s.d, u.ast)
	return v.Preserves, v.Reasons
}

// ChainEvidence lists the chains behind a verdict of the default
// Chains method, as inferred by its dense CDAG engine. Every chain is
// a k-chain: no symbol but the string type occurs more than K times.
// Each list is sorted and holds at most 64 chains; Truncated reports
// that at least one was cut there, since a chain DAG can spell
// exponentially many chains.
type ChainEvidence struct {
	Return  []string // chains of returned input nodes
	Used    []string // chains of inspected input nodes
	Element []string // chains of constructed elements
	Update  []string // full update chains c.c' (target c, change c')
	K       int      // multiplicity kq+ku of the finite analysis
	// Truncated reports that a list stops at the 64-chain cap.
	Truncated bool
}

// explainCap bounds each list of a ChainEvidence.
const explainCap = 64

// ExplainChains returns the chains behind the pair's default verdict.
// It runs the dense CDAG engine the way a cold Chains build does — k =
// kq+ku, the pair's constructed tags, normalized expressions — under
// the default Limits, and lists the k-chains of the inferred sets (see
// ChainEvidence). Update chains are listed whole, c.c', because a DAG
// node shared by several update chains does not fix where c ends. An
// overrun returns an error wrapping ErrBudgetExceeded.
func (s *Schema) ExplainChains(q *Query, u *Update) (ev ChainEvidence, err error) {
	if !xquery.QuasiClosedQuery(q.ast) || !xquery.QuasiClosedUpdate(u.ast) {
		return ev, fmt.Errorf("xqindep: query and update must be quasi-closed")
	}
	b := contextFreeBudget()
	if err = b.CheckK(infer.KPair(q.ast, u.ast)); err != nil {
		return ev, err
	}
	defer guard.Recover(&err)
	v := cdag.IndependenceBudget(s.d, q.ast, u.ast, b)
	list := func(set *cdag.Set) []string {
		cs := set.Strings(explainCap + 1)
		if len(cs) > explainCap {
			ev.Truncated = true
			cs = cs[:explainCap]
		}
		return cs
	}
	ev.K = v.K
	ev.Return, ev.Used, ev.Element, ev.Update = list(v.Query.Ret), list(v.Query.Used), list(v.Query.Elem), list(v.Update.Full)
	return ev, nil
}

// Document is a mutable XML document.
type Document struct {
	tree xmltree.Tree
}

// ParseDocument reads an XML document (elements and text only;
// attributes and comments are discarded, matching the paper's data
// model).
func ParseDocument(r io.Reader) (*Document, error) {
	t, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(text string) (*Document, error) {
	t, err := xmltree.ParseString(text)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// MustParseDocument is ParseDocumentString, panicking on error.
func MustParseDocument(text string) *Document {
	d, err := ParseDocumentString(text)
	if err != nil {
		panic(err)
	}
	return d
}

// String serialises the document.
func (doc *Document) String() string { return doc.tree.Store.String(doc.tree.Root) }

// Copy returns an independent deep copy.
func (doc *Document) Copy() *Document {
	s := xmltree.NewStore()
	root := s.Copy(doc.tree.Store, doc.tree.Root)
	return &Document{tree: xmltree.NewTree(s, root)}
}

// Size returns the number of nodes in the document.
func (doc *Document) Size() int { return len(doc.tree.Store.Domain(doc.tree.Root)) }

// Validate checks the document against the schema.
func (s *Schema) Validate(doc *Document) error { return s.d.Validate(doc.tree) }

// Generate builds a pseudo-random document valid for the schema.
// pRepeat in [0,1) controls repetition of starred content; maxDepth
// bounds the tree height.
func (s *Schema) Generate(seed int64, pRepeat float64, maxDepth int) (*Document, error) {
	t, err := s.d.GenerateTree(rand.New(rand.NewSource(seed)), pRepeat, maxDepth)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// Run evaluates the query on the document and returns the serialised
// result fragments in order. The document is not modified.
func (doc *Document) Run(q *Query) ([]string, error) {
	s, locs, err := eval.QueryTree(doc.tree, q.ast)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = s.String(l)
	}
	return out, nil
}

// Apply executes the update on the document in place (UPL
// construction, sanity checks, application — the W3C three phases).
func (doc *Document) Apply(u *Update) error {
	return eval.Update(doc.tree.Store, eval.RootEnv(doc.tree.Root), u.ast)
}

// IndependentOn checks Definition 2.4 dynamically on one document:
// it evaluates q, applies u to a copy, re-evaluates, and compares the
// results up to value equivalence. It is the runtime ground truth the
// static analysis approximates.
func IndependentOn(doc *Document, q *Query, u *Update) (bool, error) {
	return eval.IndependentOn(doc.tree, q.ast, u.ast)
}

// Version identifies the library release.
const Version = "1.0.0"
