// Package vetcheck is the project's static-analysis gate: it loads
// every package of the module with go/parser + go/types (stdlib only,
// no x/tools) and machine-checks the hand-maintained invariants that
// keep the engine's independence verdicts sound and its serving layer
// deterministic. See DESIGN.md §5 for the invariant each check guards.
//
// The nine checks:
//
//	panicdiscipline — panics in engine packages carry
//	    *guard.InternalError (or sit in Must* constructors), every go
//	    statement in internal/server installs a deferred recover, and
//	    the recover builtin itself is reserved to internal/guard.
//	budgetpoints — every (mutually) recursive function in the
//	    chain/CDAG/inference packages consults the guard.Budget.
//	verdictflow — a flow-sensitive proof obligation: every value that
//	    reaches an Independent field of a verdict type must be
//	    dominated, on all CFG paths, by evidence from the proof kernel
//	    (see DESIGN.md §12). Replaces the old name-based verdictsites
//	    allowlist.
//	lockdiscipline — held-locks dataflow over the service packages:
//	    no double acquisition, no blocking operation under a lock, a
//	    cycle-free module-wide acquisition order, no lock leaked past
//	    return.
//	frozenartifact — compiled schemas, interned chains, and the bitset
//	    rows they expose are immutable once constructed; mutations are
//	    confined to their home packages.
//	ctxflow — context.Context is the first parameter;
//	    context.Background()/TODO() only at annotated detach points.
//	clockinject — internal/server and internal/faultinject never read
//	    ambient time or global randomness.
//	compilecache — dtd.NewCompiled is only called inside internal/dtd;
//	    everyone else obtains compiled schemas through the cache.
//	fsdiscipline — the durable-state packages touch the filesystem
//	    only through the injectable FS seam; ambient os file functions
//	    are confined to the allowlisted adapter files.
//
// A finding is suppressed by a pragma on the same or preceding line:
//
//	//xqvet:ignore <check> <reason>
//
// The reason is mandatory; a reasonless, unknown-check or stale pragma
// is itself a finding (check name "pragma"), so the annotation debt
// stays visible.
package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// Config scopes the checks. All package sets are keyed by
// module-relative import path ("" is the module root), and function /
// type allowlists by "relpath.Name" ("Name" alone for the root
// package), so one configuration serves both the real module and
// testdata fixtures.
type Config struct {
	// EnginePackages: panic(x) requires x to be *guard.InternalError
	// unless the enclosing top-level function is a Must* constructor.
	EnginePackages map[string]bool
	// GoRecoverPackages: every go statement must start a function whose
	// body installs a deferred recover (guard.Recover, guard.OnPanic,
	// or a direct recover()).
	GoRecoverPackages map[string]bool
	// BudgetPackages: self- or mutually-recursive functions must call a
	// (*guard.Budget) method, directly or via a callee.
	BudgetPackages map[string]bool
	// VerdictTypes are the structs whose Independent field carries the
	// paper's soundness guarantee.
	VerdictTypes map[string]bool
	// ProofFuncs are the proof kernel: the only functions allowed to
	// originate Independent=true out of thin air. Everywhere else,
	// verdictflow demands the value be traceable to kernel evidence.
	ProofFuncs map[string]bool
	// LockPackages: lockdiscipline runs its held-locks dataflow here.
	LockPackages map[string]bool
	// FrozenTypes are the artifact types immutable after construction.
	FrozenTypes map[string]bool
	// FrozenHomePackages may mutate frozen artifacts (constructors and
	// the bitset rows they build live here).
	FrozenHomePackages map[string]bool
	// ClockPackages: ambient time and global math/rand are banned.
	ClockPackages map[string]bool
	// FSPackages: ambient os file functions are banned outside
	// FSAllowFiles — every filesystem touch goes through the injectable
	// FS seam so crash chaos can fault it deterministically.
	FSPackages map[string]bool
	// FSAllowFiles are the file basenames (the os adapters) where
	// ambient os file functions remain legal.
	FSAllowFiles map[string]bool
}

// DefaultConfig is the gate configuration for this repository (and,
// by module-relative construction, for the golden-test fixtures).
func DefaultConfig() Config {
	return Config{
		EnginePackages: set(
			"internal/bitset", "internal/cdag", "internal/chain",
			"internal/core", "internal/dtd", "internal/eval",
			"internal/faultinject", "internal/infer", "internal/lru",
			"internal/pathanalysis",
			"internal/plan", "internal/preserve", "internal/quarantine",
			"internal/refcdag",
			"internal/sentinel", "internal/server", "internal/statefile",
			"internal/typeanalysis", "internal/xmark",
			"internal/xmltree", "internal/xquery",
		),
		GoRecoverPackages: set("internal/server", "internal/sentinel"),
		BudgetPackages: set(
			"internal/chain", "internal/cdag", "internal/infer",
			"internal/typeanalysis", "internal/pathanalysis",
			"internal/refcdag",
		),
		VerdictTypes: set(
			"internal/cdag.Verdict", "internal/refcdag.Verdict",
			"internal/infer.Verdict",
			"internal/typeanalysis.Verdict", "internal/pathanalysis.Verdict",
			"internal/plan.CompiledExpr",
			"internal/core.Result", "internal/server.AnalyzeResponse",
			"Report",
		),
		// The proof kernel proper. The plumbing that used to need
		// allowlisting (core.analyzeOnce, server.Analyze,
		// reportFromResult) is now verified by the verdictflow
		// dataflow instead: every Independent they forward is read
		// from an already-checked verdict value.
		ProofFuncs: set(
			"internal/cdag.CheckIndependence",
			"internal/refcdag.CheckIndependence",
			"internal/infer.CheckIndependence",
			"internal/typeanalysis.CheckIndependence",
			"internal/pathanalysis.IndependenceBudget",
		),
		LockPackages: set(
			"internal/server", "internal/quarantine",
			"internal/sentinel", "internal/statefile", "internal/dtd",
			"internal/plan", "internal/lru",
		),
		FrozenTypes: set(
			"internal/dtd.Compiled", "internal/plan.CompiledExpr",
			"internal/cdag.UpdateSide",
			"internal/xquery.PreparedQuery", "internal/xquery.PreparedUpdate",
		),
		FrozenHomePackages: set(
			"internal/dtd", "internal/bitset", "internal/plan",
			"internal/xquery",
		),
		ClockPackages: set(
			"internal/server", "internal/faultinject",
			"internal/quarantine", "internal/sentinel",
			"internal/statefile", "internal/obs",
		),
		FSPackages:   set("internal/statefile"),
		FSAllowFiles: set("osfs.go"),
	}
}

func set(keys ...string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// CheckNames lists the checks in canonical order.
var CheckNames = []string{
	"panicdiscipline", "budgetpoints", "verdictflow", "lockdiscipline",
	"frozenartifact", "ctxflow", "clockinject", "compilecache",
	"fsdiscipline",
}

type checkFunc func(*pass)

var checkFuncs = map[string]checkFunc{
	"panicdiscipline": checkPanicDiscipline,
	"budgetpoints":    checkBudgetPoints,
	"verdictflow":     checkVerdictFlow,
	"lockdiscipline":  checkLockDiscipline,
	"frozenartifact":  checkFrozenArtifact,
	"ctxflow":         checkCtxFlow,
	"clockinject":     checkClockInject,
	"compilecache":    checkCompileCache,
	"fsdiscipline":    checkFSDiscipline,
}

// pass carries shared state across checks for one module.
type pass struct {
	mod      *Module
	cfg      Config
	findings []Finding
	// declOf maps a function object to its declaration, module-wide.
	declOf map[types.Object]*ast.FuncDecl
	// graph is the intra-module call graph (see callgraph.go), built
	// lazily via ensureGraph.
	graph *callGraph
	// vfSummaries memoizes verdictflow's per-function evidence
	// summaries: for each result position, whether every return ships
	// proof-kernel evidence there.
	vfSummaries map[*types.Func][]bool
	// ldSummaries memoizes lockdiscipline's may-acquire / may-block
	// facts per module function.
	ldSummaries map[types.Object]*ldSummary
	// ldConds memoizes lockdiscipline's sync.Cond bindings: each Cond
	// token to the token of the lock its L names ("" when unresolved).
	ldConds map[string]string
}

func (p *pass) report(check string, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:   p.mod.Fset.Position(pos),
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Run loads the module at dir and applies the named checks (all six
// when checks is empty), returning pragma-filtered findings sorted by
// position. Pragma defects (missing reason, unknown check, stale
// ignore) are appended as check "pragma" and cannot themselves be
// suppressed.
func Run(dir string, checks []string, cfg Config) ([]Finding, error) {
	mod, err := Load(dir)
	if err != nil {
		return nil, err
	}
	return RunModule(mod, checks, cfg)
}

// RunModule applies the checks to an already-loaded module.
func RunModule(mod *Module, checks []string, cfg Config) ([]Finding, error) {
	if len(checks) == 0 {
		checks = CheckNames
	}
	enabled := map[string]bool{}
	for _, c := range checks {
		if _, ok := checkFuncs[c]; !ok {
			return nil, fmt.Errorf("vetcheck: unknown check %q (have %s)",
				c, strings.Join(CheckNames, ", "))
		}
		enabled[c] = true
	}

	p := newPass(mod, cfg)
	for _, name := range CheckNames { // canonical order, stable output
		if enabled[name] {
			checkFuncs[name](p)
		}
	}

	pragmas := collectPragmas(mod)
	findings := applyPragmas(p.findings, pragmas, enabled, mod)
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by (file, line, column, check, message)
// — a total order, so runs over the same tree print identically and CI
// diffs stay stable regardless of package-load or map-iteration order.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// newPass indexes the module's declarations for a fresh run.
func newPass(mod *Module, cfg Config) *pass {
	p := &pass{
		mod:         mod,
		cfg:         cfg,
		declOf:      map[types.Object]*ast.FuncDecl{},
		vfSummaries: map[*types.Func][]bool{},
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						p.declOf[obj] = fd
					}
				}
			}
		}
	}
	return p
}

// pragma is one parsed //xqvet:ignore comment.
type pragma struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

const pragmaPrefix = "//xqvet:ignore"

func collectPragmas(mod *Module) []*pragma {
	var out []*pragma
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, pragmaPrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					pr := &pragma{pos: mod.Fset.Position(c.Pos())}
					if len(fields) > 0 {
						pr.check = fields[0]
					}
					if len(fields) > 1 {
						pr.reason = strings.Join(fields[1:], " ")
					}
					out = append(out, pr)
				}
			}
		}
	}
	return out
}

// applyPragmas suppresses findings covered by a well-formed pragma on
// the same or the immediately preceding line, then reports pragma
// defects. A pragma with no reason or an unknown check suppresses
// nothing — the annotation itself is broken and both findings surface.
// Staleness is only judged for pragmas naming an enabled check, so a
// partial -checks run never misreports ignores for the checks it
// skipped.
func applyPragmas(found []Finding, pragmas []*pragma, enabled map[string]bool, mod *Module) []Finding {
	type key struct {
		file  string
		line  int
		check string
	}
	wellFormed := map[key]*pragma{}
	for _, pr := range pragmas {
		if pr.reason == "" || !validCheck(pr.check) {
			continue
		}
		wellFormed[key{pr.pos.Filename, pr.pos.Line, pr.check}] = pr
	}

	var out []Finding
	for _, f := range found {
		suppressed := false
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			if pr := wellFormed[key{f.Pos.Filename, line, f.Check}]; pr != nil {
				pr.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}

	for _, pr := range pragmas {
		switch {
		case !validCheck(pr.check):
			out = append(out, Finding{Pos: pr.pos, Check: "pragma",
				Msg: fmt.Sprintf("xqvet:ignore names unknown check %q", pr.check)})
		case pr.reason == "":
			out = append(out, Finding{Pos: pr.pos, Check: "pragma",
				Msg: fmt.Sprintf("xqvet:ignore %s needs a non-empty reason", pr.check)})
		case !pr.used && enabled[pr.check]:
			out = append(out, Finding{Pos: pr.pos, Check: "pragma",
				Msg: fmt.Sprintf("stale xqvet:ignore: no %s finding on this or the next line", pr.check)})
		}
	}
	return out
}

func validCheck(name string) bool {
	_, ok := checkFuncs[name]
	return ok
}

// ---- shared helpers ----

// relName is the config key for a top-level name in pkg: "rel.Name",
// or bare "Name" in the module root.
func relName(pkg *Package, name string) string {
	if pkg.Rel == "" {
		return name
	}
	return pkg.Rel + "." + name
}

// relKey builds the same config key from a module-relative path.
func relKey(rel, name string) string {
	if rel == "" {
		return name
	}
	return rel + "." + name
}

// relOfTypesPkg maps a types.Package back to its module-relative path.
// It matches by import-path suffix, not pointer identity, because the
// same package is represented by distinct *types.Package values when
// reached through export data of different importers.
func (p *pass) relOfTypesPkg(tp *types.Package) (string, bool) {
	if tp == nil {
		return "", false
	}
	path := tp.Path()
	if path == p.mod.Path {
		return "", true
	}
	if rel, ok := strings.CutPrefix(path, p.mod.Path+"/"); ok {
		return rel, true
	}
	return "", false
}

// pkgOfObj finds the loaded *Package defining obj, nil for objects
// outside the module.
func (p *pass) pkgOfObj(obj types.Object) *Package {
	rel, ok := p.relOfTypesPkg(obj.Pkg())
	if !ok {
		return nil
	}
	for _, pkg := range p.mod.Pkgs {
		if pkg.Rel == rel {
			return pkg
		}
	}
	return nil
}

// ensureGraph builds the module call graph (with SCC ids assigned) on
// first use so any check can rely on it without caring which ran first.
func (p *pass) ensureGraph() {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
		p.graph.sccs()
	}
}

// isGuardInternalError reports whether t is *P.InternalError for some
// package P named "guard" under the module's internal tree. Matching
// by name keeps fixtures (module example.com/fix with its own stub
// internal/guard) under the exact same rule as the real module.
func isGuardInternalError(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "InternalError" && isGuardPkg(obj.Pkg())
}

func isGuardPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "internal/guard" ||
		strings.HasSuffix(pkg.Path(), "/internal/guard"))
}

// isBuiltin reports whether the called expression resolves to the
// named builtin (panic, recover, ...).
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// guardCall reports whether call invokes a package-level function of
// the guard package with one of the given names.
func guardCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !isGuardPkg(fn.Pkg()) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// walkWithDecl walks file, invoking fn with each node and its
// enclosing top-level FuncDecl (nil outside any function). Function
// literals are attributed to the declaration that lexically contains
// them: a closure inside a proof function is part of the proof.
func walkWithDecl(file *ast.File, fn func(n ast.Node, decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					fn(n, nil)
				}
				return true
			})
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if n != nil {
				fn(n, fd)
			}
			return true
		})
	}
}

// walkWithStack walks file keeping the ancestor stack, calling fn on
// every node push with the stack of its ancestors (outermost first,
// not including n itself).
func walkWithStack(file *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
