package vetcheck

// checkLockDiscipline runs the held-locks dataflow over every function
// of the configured service packages and enforces three invariants the
// chaos suites can only sample:
//
//   - no double acquisition: taking a mutex that may already be held
//     on some path — directly or through a callee whose interprocedural
//     summary says it acquires the same lock — deadlocks Go's
//     non-reentrant sync.Mutex;
//   - no blocking while holding: a lock held across a bare channel
//     operation, a select without a default, a WaitGroup/Cond wait, or
//     a guard.Budget point (where faultinject can inject an unbounded
//     stall) wedges every other goroutine needing that lock. A Cond's
//     Wait releases the Cond's own L while it blocks, so that lock is
//     left out when the module binds it (sync.NewCond(&x.f), or
//     x.c.L = &x.f); the other held locks are still reported;
//   - a global acquisition order: each "acquire B while holding A"
//     observation is an edge A→B in a module-wide order graph; a cycle
//     means two goroutines can acquire the same pair in opposite
//     orders and deadlock.
//
// Locks are abstracted to (owning type, field) tokens — e.g.
// internal/server.Server.admitMu — so any two receivers of the same
// type unify; that is conservative for the singleton locks this
// module uses. RLock/RUnlock count as the same token: read locks
// still order against writers, and Go's RWMutex read side is not
// reentrant in the presence of a blocked writer. Channel operations
// in a select that has a default clause are non-blocking and exempt.
// A function that may return while holding a lock with no deferred
// unlock is reported as a leak.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ldState maps held lock tokens to their acquisition position. Join
// is union (may-held), conservative for every rule above.
type ldState map[string]token.Pos

var ldFlow = flowFuncs[ldState]{
	copy: func(s ldState) ldState {
		out := make(ldState, len(s))
		for k, v := range s {
			out[k] = v
		}
		return out
	},
	join: func(a, b ldState) ldState {
		out := make(ldState, len(a)+len(b))
		for k, v := range a {
			out[k] = v
		}
		for k, v := range b {
			if _, ok := out[k]; !ok {
				out[k] = v
			}
		}
		return out
	},
	equal: func(a, b ldState) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if _, ok := b[k]; !ok {
				return false
			}
		}
		return true
	},
}

// ldOrderEdge is one observed "acquire to while holding from".
type ldOrderEdge struct {
	from, to string
}

func checkLockDiscipline(p *pass) {
	p.ensureGraph()
	p.ldComputeSummaries()
	edges := map[ldOrderEdge]token.Pos{}
	for _, pkg := range p.mod.Pkgs {
		if !p.cfg.LockPackages[pkg.Rel] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				for _, u := range unitsOf(fd) {
					p.ldCheckUnit(pkg, u, edges)
				}
			}
		}
	}
	p.ldReportInversions(edges)
}

// ---- lock tokens ----

// mutexOp classifies a call as a sync.Mutex/RWMutex method.
type mutexOp int

const (
	opNone mutexOp = iota
	opLock         // Lock, RLock, TryLock, TryRLock
	opUnlock
)

// ldMutexOp resolves call to (op, token). The token names the lock by
// its owning type and field: "rel.Type.field", or "rel.var" for a
// package-level mutex, or "local:name" for a local variable.
func (p *pass) ldMutexOp(pkg *Package, call *ast.CallExpr) (mutexOp, string, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, "", false
	}
	fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, "", false
	}
	var op mutexOp
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return opNone, "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return opNone, "", false
	}
	rt := recv.Type()
	if ptr, okp := rt.(*types.Pointer); okp {
		rt = ptr.Elem()
	}
	named, okn := rt.(*types.Named)
	if !okn || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return opNone, "", false
	}
	return op, p.ldToken(pkg, fun.X), true
}

// ldToken names the mutex expression x (the receiver of Lock/Unlock).
func (p *pass) ldToken(pkg *Package, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		// owner.field — name by the owner's type.
		if tv, ok := pkg.Info.Types[x.X]; ok {
			if name, ok := p.ldTypeName(tv.Type); ok {
				return name + "." + x.Sel.Name
			}
		}
		return "expr." + x.Sel.Name
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if obj != nil && obj.Parent() == obj.Pkg().Scope() {
			return relName(pkg, obj.Name()) // package-level mutex
		}
		return "local:" + x.Name
	}
	return fmt.Sprintf("expr@%d", x.Pos())
}

// ldTypeName renders a named type as its module-relative key.
func (p *pass) ldTypeName(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	rel, ok := p.relOfTypesPkg(obj.Pkg())
	if !ok {
		return obj.Name(), true
	}
	return relKey(rel, obj.Name()), true
}

// ---- interprocedural summaries ----

// ldSummary says which lock tokens a call of the function may acquire
// (transitively) and whether it may block on a channel, wait, or
// budget point.
type ldSummary struct {
	acquires map[string]bool
	blocks   string // first blocking reason, "" if none
}

// ldComputeSummaries fills p.ldSummaries for every module function:
// direct facts from a syntactic scan, then a transitive closure over
// the call graph (reverse-postorder-free fixpoint; the graph is small).
func (p *pass) ldComputeSummaries() {
	if p.ldSummaries != nil {
		return
	}
	p.ldSummaries = map[types.Object]*ldSummary{}
	for _, n := range p.graph.nodes {
		if n.pkg == nil || n.decl == nil || n.decl.Body == nil {
			continue
		}
		p.ldSummaries[n.obj] = p.ldDirectFacts(n.pkg, n.decl)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range p.graph.nodes {
			sum := p.ldSummaries[n.obj]
			if sum == nil {
				continue
			}
			for callee := range n.out {
				csum := p.ldSummaries[callee.obj]
				if csum == nil {
					continue
				}
				for tok := range csum.acquires {
					if !sum.acquires[tok] {
						sum.acquires[tok] = true
						changed = true
					}
				}
				if sum.blocks == "" && csum.blocks != "" {
					sum.blocks = fmt.Sprintf("calls %s, which %s", callee.obj.Name(), csum.blocks)
					changed = true
				}
			}
		}
	}
}

// ldDirectFacts scans one declaration body (closures included, since
// an invoked closure blocks its caller; goroutine bodies and deferred
// calls excluded — they do not block this call).
func (p *pass) ldDirectFacts(pkg *Package, decl *ast.FuncDecl) *ldSummary {
	sum := &ldSummary{acquires: map[string]bool{}}
	// Channel ops guarding a select clause are not blocking points on
	// their own: the select is judged as a whole by its default.
	exempt := map[ast.Node]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if ok && cc.Comm != nil {
				markCommExempt(cc.Comm, exempt)
			}
		}
		return true
	})
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !exempt[n] {
				sum.noteBlock("performs a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !exempt[n] {
				sum.noteBlock("performs a channel receive")
			}
		case *ast.SelectStmt:
			if !(&selectMarker{n}).hasDefault() {
				sum.noteBlock("selects without a default")
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					sum.noteBlock("ranges over a channel")
				}
			}
		case *ast.CallExpr:
			if op, tok, ok := p.ldMutexOp(pkg, n); ok && op == opLock {
				sum.acquires[tok] = true
			}
			if reason := p.ldBlockingCall(pkg, n); reason != "" {
				sum.noteBlock(reason)
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
	return sum
}

// markCommExempt marks the channel operation of one select comm
// clause: the SendStmt itself, or the receive UnaryExpr inside an
// ExprStmt / AssignStmt guard.
func markCommExempt(comm ast.Stmt, exempt map[ast.Node]bool) {
	switch comm := comm.(type) {
	case *ast.SendStmt:
		exempt[comm] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			exempt[u] = true
		}
	case *ast.AssignStmt:
		for _, rhs := range comm.Rhs {
			if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				exempt[u] = true
			}
		}
	}
}

func (s *ldSummary) noteBlock(reason string) {
	if s.blocks == "" {
		s.blocks = reason
	}
}

// ldBlockingCall reports why call is a blocking point ("" if not):
// guard.Budget methods and guard.FirePoint (faultinject can stall
// there without bound), WaitGroup.Wait, Cond.Wait.
func (p *pass) ldBlockingCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if isBudgetMethod(fn) {
		return fmt.Sprintf("reaches guard.Budget.%s (a faultinject stall point)", fn.Name())
	}
	if isGuardPkg(fn.Pkg()) && fn.Name() == "FirePoint" {
		return "reaches guard.FirePoint (a faultinject stall point)"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
		return "waits on a sync." + recvTypeName(fn) + ""
	}
	return ""
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// ---- sync.Cond locks ----

// ldCondLock returns the lock token that call's Cond releases while it
// waits, when call is a sync.Cond Wait whose L the module binds; ""
// otherwise.
func (p *pass) ldCondLock(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Wait" {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !isSyncCond(recv.Type()) {
		return ""
	}
	if p.ldConds == nil {
		p.ldConds = p.ldBindConds()
	}
	return p.ldConds[p.ldToken(pkg, sel.X)]
}

// ldBindConds maps each sync.Cond token to the token of the lock its L
// names in the module: c = sync.NewCond(&x.f), or c.L = &x.f. A Cond
// bound to a lock that is not an &-expression, or to two different
// locks, maps to "" (unresolved).
func (p *pass) ldBindConds() map[string]string {
	conds := map[string]string{}
	bind := func(pkg *Package, cond ast.Expr, lock ast.Expr) {
		tok := ""
		if u, ok := ast.Unparen(lock).(*ast.UnaryExpr); ok && u.Op == token.AND {
			tok = p.ldToken(pkg, u.X)
		}
		c := p.ldToken(pkg, cond)
		if prev, seen := conds[c]; seen && prev != tok {
			tok = ""
		}
		conds[c] = tok
	}
	for _, pkg := range p.mod.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					rhs := as.Rhs[i]
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && len(call.Args) == 1 && isSyncFunc(pkg, call.Fun, "NewCond") {
						bind(pkg, lhs, call.Args[0])
					}
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "L" {
						if tv, ok := pkg.Info.Types[sel.X]; ok && isSyncCond(tv.Type) {
							bind(pkg, sel.X, rhs)
						}
					}
				}
				return true
			})
		}
	}
	return conds
}

// isSyncFunc reports whether fun names the package-level function
// sync.<name>.
func isSyncFunc(pkg *Package, fun ast.Expr, name string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == name
}

// isSyncCond reports whether t is sync.Cond or a pointer to one.
func isSyncCond(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond"
}

// ---- per-function flow ----

func (p *pass) ldCheckUnit(pkg *Package, u funcUnit, edges map[ldOrderEdge]token.Pos) {
	g := buildCFG(pkg, u.body)
	f := ldFlow
	f.transfer = func(s ldState, n ast.Node) ldState {
		return p.ldTransfer(pkg, g, s, n)
	}
	in := forwardFlow(g, ldState{}, f)
	for _, b := range reachableBlocks(g, in) {
		s := ldFlow.copy(in[b])
		for _, n := range b.nodes {
			p.ldReportNode(pkg, g, s, n, edges)
			s = p.ldTransfer(pkg, g, s, n)
		}
	}
	p.ldReportLeaks(pkg, g, in)
}

// ldTransfer tracks the held set across one node.
func (p *pass) ldTransfer(pkg *Package, g *funcCFG, s ldState, n ast.Node) ldState {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return s // deferred unlocks run at return; handled by ldReportLeaks
	}
	inspectShallow(n, func(x ast.Node) bool {
		if _, isDefer := x.(*ast.DeferStmt); isDefer {
			return false
		}
		if _, isGo := x.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, tok, ok := p.ldMutexOp(pkg, call)
		if !ok {
			return true
		}
		switch op {
		case opLock:
			s[tok] = call.Pos()
		case opUnlock:
			delete(s, tok)
		}
		return true
	})
	return s
}

// ldReportNode flags violations at one node given the held set.
func (p *pass) ldReportNode(pkg *Package, g *funcCFG, s ldState, n ast.Node, edges map[ldOrderEdge]token.Pos) {
	if m, ok := n.(*selectMarker); ok {
		if len(s) > 0 && !m.hasDefault() {
			p.report("lockdiscipline", m.Pos(),
				"select without a default while holding %s: a stalled peer wedges the lock", heldList(s))
		}
		return
	}
	if m, ok := n.(*rangeMarker); ok {
		if len(s) > 0 {
			if tv, ok := pkg.Info.Types[m.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					p.report("lockdiscipline", m.Pos(),
						"ranging over a channel while holding %s", heldList(s))
				}
			}
		}
		// Fall through to scan the ranged expression for calls.
	}
	if stmt, ok := n.(ast.Stmt); ok {
		if _, isComm := g.commStmts[stmt]; isComm {
			// A select clause guard: its blocking behavior was judged
			// at the selectMarker; skip the channel-op scan but still
			// walk nested calls in its operands.
			n = commOperands(stmt)
			if n == nil {
				return
			}
		}
	}
	inspectShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if len(s) > 0 {
				p.report("lockdiscipline", x.Pos(),
					"channel send while holding %s", heldList(s))
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && len(s) > 0 {
				p.report("lockdiscipline", x.Pos(),
					"channel receive while holding %s", heldList(s))
			}
		case *ast.CallExpr:
			p.ldReportCall(pkg, s, x, edges)
		}
		return true
	})
}

// commOperands returns the sub-expression of a comm guard worth
// scanning for calls (the value side; the channel op itself is
// exempt).
func commOperands(stmt ast.Stmt) ast.Node {
	switch stmt := stmt.(type) {
	case *ast.SendStmt:
		return stmt.Value
	case *ast.AssignStmt:
		return nil // v := <-ch: nothing but the receive
	case *ast.ExprStmt:
		return nil // <-ch
	}
	return stmt
}

func (p *pass) ldReportCall(pkg *Package, s ldState, call *ast.CallExpr, edges map[ldOrderEdge]token.Pos) {
	if op, tok, ok := p.ldMutexOp(pkg, call); ok {
		switch op {
		case opLock:
			if pos, held := s[tok]; held {
				p.report("lockdiscipline", call.Pos(),
					"%s acquired while already held (since %s): sync mutexes are not reentrant",
					tok, p.mod.Fset.Position(pos))
			}
			for held := range s {
				if held == tok {
					continue
				}
				e := ldOrderEdge{from: held, to: tok}
				if _, ok := edges[e]; !ok {
					edges[e] = call.Pos()
				}
			}
		case opUnlock:
			if _, held := s[tok]; !held {
				p.report("lockdiscipline", call.Pos(),
					"%s unlocked but not provably held on any path here", tok)
			}
		}
		return
	}
	if len(s) == 0 {
		return
	}
	if reason := p.ldBlockingCall(pkg, call); reason != "" {
		held := s
		if l := p.ldCondLock(pkg, call); l != "" {
			held = ldFlow.copy(s)
			delete(held, l)
		}
		if len(held) > 0 {
			p.report("lockdiscipline", call.Pos(),
				"blocking point while holding %s: %s", heldList(held), reason)
		}
		return
	}
	// In-module callee: consult its interprocedural summary.
	callee := p.ldCalleeNode(pkg, call)
	if callee == nil {
		return
	}
	sum := p.ldSummaries[callee.obj]
	if sum == nil {
		return
	}
	acq := sortedKeysList(sum.acquires)
	for _, tok := range acq {
		if pos, held := s[tok]; held {
			p.report("lockdiscipline", call.Pos(),
				"call of %s may re-acquire %s already held (since %s)",
				callee.obj.Name(), tok, p.mod.Fset.Position(pos))
		}
		for held := range s {
			if held == tok {
				continue
			}
			e := ldOrderEdge{from: held, to: tok}
			if _, ok := edges[e]; !ok {
				edges[e] = call.Pos()
			}
		}
	}
	if sum.blocks != "" {
		p.report("lockdiscipline", call.Pos(),
			"call of %s while holding %s: it %s", callee.obj.Name(), heldList(s), sum.blocks)
	}
}

// ldCalleeNode resolves a direct call to its module call-graph node.
func (p *pass) ldCalleeNode(pkg *Package, call *ast.CallExpr) *cgNode {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	return p.graph.byObj[obj]
}

// ldReportLeaks flags locks that may still be held at function exit
// with no deferred unlock to release them.
func (p *pass) ldReportLeaks(pkg *Package, g *funcCFG, in map[*cfgBlock]ldState) {
	exitState, reachedExit := in[g.exit]
	if !reachedExit || len(exitState) == 0 {
		return
	}
	deferred := map[string]bool{}
	for _, d := range g.defers {
		ast.Inspect(d, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if op, tok, ok := p.ldMutexOp(pkg, call); ok && op == opUnlock {
					deferred[tok] = true
				}
			}
			return true
		})
	}
	var toks []string
	for tok := range exitState {
		if !deferred[tok] {
			toks = append(toks, tok)
		}
	}
	sort.Strings(toks)
	for _, tok := range toks {
		p.report("lockdiscipline", exitState[tok],
			"%s may still be held at return on some path, and no deferred unlock releases it", tok)
	}
}

// ldReportInversions finds cycles in the module-wide acquisition
// order graph and reports each one once, deterministically.
func (p *pass) ldReportInversions(edges map[ldOrderEdge]token.Pos) {
	// Adjacency, sorted for determinism.
	adj := map[string][]string{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	// Tarjan over tokens; any SCC with ≥2 members (or a self-edge,
	// already reported as double-lock) is an inversion.
	sccs := tokenSCCs(adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, t := range scc {
			inSCC[t] = true
		}
		// Anchor the finding at the smallest-position edge inside the
		// cycle and cite one witness per direction.
		var witness []string
		var anchor token.Pos
		for _, from := range scc {
			for _, to := range adj[from] {
				if !inSCC[to] {
					continue
				}
				pos := edges[ldOrderEdge{from: from, to: to}]
				if anchor == token.NoPos || pos < anchor {
					anchor = pos
				}
				witness = append(witness, fmt.Sprintf("%s→%s at %s", from, to, p.mod.Fset.Position(pos)))
			}
		}
		sort.Strings(witness)
		p.report("lockdiscipline", anchor,
			"lock-order inversion among {%s}: %s", strings.Join(scc, ", "), strings.Join(witness, "; "))
	}
}

// tokenSCCs is Tarjan's algorithm over the string-token order graph.
func tokenSCCs(adj map[string][]string) [][]string {
	var nodes []string
	seen := map[string]bool{}
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	index := map[string]int{}
	lowlink := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return out
}

func heldList(s ldState) string {
	var toks []string
	for tok := range s {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	return strings.Join(toks, ", ")
}

func sortedKeysList(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
