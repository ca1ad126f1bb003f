package vetcheck

import (
	"go/ast"
	"go/types"
	"sort"
)

// callGraph is the intra-module call graph at FuncDecl granularity.
// Function literals are inlined into the declaration that lexically
// contains them: a call made by a closure is an edge from the
// enclosing declaration, and calling a local variable that was
// assigned a literal in the same declaration is a self-edge — which is
// exactly how the engines spell recursive closures (e.g. the `mh`
// fixpoint walker in dtd.computeMinHeights).
//
// Beyond direct calls, edges are added for:
//
//   - function and method values: referencing a module function
//     outside call position (passing it, storing it, binding a method
//     value) may invoke it later, so it is a may-call edge;
//   - interface dispatch: a call through a module-defined interface
//     gets an edge to the corresponding concrete method of every
//     module type implementing it.
//
// Both over-approximate in the conservative direction the
// interprocedural summaries need. Nodes are sorted by source position
// so every traversal of g.nodes is deterministic.
type callGraph struct {
	nodes   []*cgNode
	byObj   map[types.Object]*cgNode
	modPath string
	// namedTypes are the module's named non-interface types, the
	// candidate receivers for interface dispatch.
	namedTypes   []*types.Named
	dispatchMemo map[*types.Func][]*cgNode
}

type cgNode struct {
	obj  types.Object
	decl *ast.FuncDecl
	pkg  *Package
	out  map[*cgNode]bool
	// budget is true when the body (closures included) calls a
	// (*guard.Budget) method directly.
	budget bool

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	scc            int
}

var budgetMethods = set("Tick", "Check", "AddNodes", "AddChains", "CheckK", "Point", "Phase")

// buildCallGraph constructs the graph for the whole module.
func buildCallGraph(p *pass) *callGraph {
	g := &callGraph{
		byObj:        map[types.Object]*cgNode{},
		modPath:      p.mod.Path,
		dispatchMemo: map[*types.Func][]*cgNode{},
	}
	for obj, decl := range p.declOf {
		n := &cgNode{obj: obj, decl: decl, out: map[*cgNode]bool{}, index: -1}
		g.byObj[obj] = n
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(g.nodes, func(i, j int) bool {
		a := p.mod.Fset.Position(g.nodes[i].decl.Pos())
		b := p.mod.Fset.Position(g.nodes[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, pkg := range p.mod.Pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				n := g.byObj[obj]
				if n == nil {
					continue
				}
				n.pkg = pkg
				addCalls(g, n, pkg, fd)
			}
		}
	}
	return g
}

// addCalls records every call made inside decl (closures inlined),
// plus may-call edges for function values and interface dispatch.
func addCalls(g *callGraph, n *cgNode, pkg *Package, decl *ast.FuncDecl) {
	// Local variables assigned a function literal anywhere in this
	// declaration: calling one re-enters code of this declaration, so
	// it is modeled as a self-edge. This over-approximates (the var
	// could be reassigned a non-recursive literal) in exactly the
	// conservative direction budgetpoints needs.
	litVars := map[types.Object]bool{}
	ast.Inspect(decl, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, isLit := rhs.(*ast.FuncLit); !isLit || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pkg.Info.Defs[id]; obj != nil {
					litVars[obj] = true
				} else if obj := pkg.Info.Uses[id]; obj != nil {
					litVars[obj] = true
				}
			}
		}
		return true
	})

	// Expressions in direct call position — their non-call uses are
	// the function/method values.
	callees := map[ast.Expr]bool{}
	ast.Inspect(decl, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			callees[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(node.Fun).(type) {
			case *ast.Ident:
				obj := pkg.Info.Uses[fun]
				if obj == nil {
					return true
				}
				if litVars[obj] {
					n.out[n] = true // recursive closure
					return true
				}
				if callee := g.byObj[obj]; callee != nil {
					n.out[callee] = true
				}
			case *ast.SelectorExpr:
				fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
				if !ok {
					return true
				}
				if isBudgetMethod(fn) {
					n.budget = true
					return true
				}
				if callee := g.byObj[fn]; callee != nil {
					n.out[callee] = true
					return true
				}
				for _, impl := range g.dispatch(fn) {
					n.out[impl] = true
				}
			}
		case *ast.Ident:
			// Function value: a module function referenced outside
			// call position may be invoked later.
			if callees[node] {
				return true
			}
			if obj := pkg.Info.Uses[node]; obj != nil {
				if _, isFn := obj.(*types.Func); isFn {
					if ref := g.byObj[obj]; ref != nil {
						n.out[ref] = true
					}
				}
			}
		case *ast.SelectorExpr:
			// Method value: recv.Method without calling it.
			if callees[node] {
				return true
			}
			if fn, ok := pkg.Info.Uses[node.Sel].(*types.Func); ok {
				if isBudgetMethod(fn) {
					n.budget = true
					return true
				}
				if ref := g.byObj[fn]; ref != nil {
					n.out[ref] = true
				}
			}
		}
		return true
	})
}

// dispatch resolves a call of an interface method to the concrete
// methods of every module type implementing that interface. Only
// module-defined interfaces are resolved: dispatch through fmt or
// error interfaces would connect unrelated Stringers into spurious
// cycles, and no engine invariant flows through them.
func (g *callGraph) dispatch(fn *types.Func) []*cgNode {
	if out, ok := g.dispatchMemo[fn]; ok {
		return out
	}
	g.dispatchMemo[fn] = nil
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if pkg := fn.Pkg(); pkg == nil || !inModule(pkg.Path(), g.modPath) {
		return nil
	}
	var out []*cgNode
	for _, named := range g.namedTypes {
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			if node := g.byObj[m]; node != nil {
				out = append(out, node)
			}
		}
	}
	g.dispatchMemo[fn] = out
	return out
}

// inModule reports whether path is the module path or inside it.
func inModule(path, modPath string) bool {
	return path == modPath ||
		(len(path) > len(modPath) && path[:len(modPath)] == modPath && path[len(modPath)] == '/')
}

// isBudgetMethod reports whether fn is one of the budget-consuming
// methods of guard.Budget.
func isBudgetMethod(fn *types.Func) bool {
	if !budgetMethods[fn.Name()] || !isGuardPkg(fn.Pkg()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Budget"
}

// sccs runs Tarjan's algorithm, assigning scc ids; nodes sharing an id
// are mutually recursive (ids are also assigned to singletons).
func (g *callGraph) sccs() {
	index, sccID := 0, 0
	var stack []*cgNode
	var strongconnect func(v *cgNode)
	strongconnect = func(v *cgNode) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, w := range g.sortedOut(v) {
			if w.index < 0 {
				strongconnect(w)
				v.lowlink = min(v.lowlink, w.lowlink)
			} else if w.onStack {
				v.lowlink = min(v.lowlink, w.index)
			}
		}
		if v.lowlink == v.index {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.scc = sccID
				if w == v {
					break
				}
			}
			sccID++
		}
	}
	for _, v := range g.nodes {
		if v.index < 0 {
			strongconnect(v)
		}
	}
}

// sortedOut returns v's successors in deterministic (node-slice)
// order, so SCC ids are stable run to run.
func (g *callGraph) sortedOut(v *cgNode) []*cgNode {
	out := make([]*cgNode, 0, len(v.out))
	for w := range v.out {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].decl.Pos() < out[j].decl.Pos()
	})
	return out
}

// recursive reports whether n participates in a cycle: a self-edge or
// a non-trivial SCC.
func (g *callGraph) recursive(n *cgNode) bool {
	if n.out[n] {
		return true
	}
	for _, m := range g.nodes {
		if m != n && m.scc == n.scc {
			return true
		}
	}
	return false
}

// reachesBudget reports whether any function reachable from n
// (n included) calls a budget method.
func (g *callGraph) reachesBudget(n *cgNode) bool {
	seen := map[*cgNode]bool{}
	var dfs func(v *cgNode) bool
	dfs = func(v *cgNode) bool {
		if v.budget {
			return true
		}
		seen[v] = true
		for w := range v.out {
			if !seen[w] && dfs(w) {
				return true
			}
		}
		return false
	}
	return dfs(n)
}
