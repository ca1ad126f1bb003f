package vetcheck

// checkBudgetPoints enforces the termination contract of PR 1: every
// self- or mutually-recursive function in the chain/CDAG/inference
// packages must consume the guard.Budget — directly or through a
// callee — so no recursion can run unmetered past the limits the
// degradation ladder relies on (DESIGN.md §5).
//
// Recursion is detected on the intra-module call graph (Tarjan SCCs,
// with recursive closures inlined into their enclosing declaration);
// budget consumption is any call to a (*guard.Budget) method reachable
// from the function over that same graph.
func checkBudgetPoints(p *pass) {
	p.ensureGraph()
	g := p.graph
	for _, n := range g.nodes {
		if n.pkg == nil || !p.cfg.BudgetPackages[n.pkg.Rel] {
			continue
		}
		if !g.recursive(n) {
			continue
		}
		if g.reachesBudget(n) {
			continue
		}
		p.report("budgetpoints", n.decl.Pos(),
			"recursive function %s never consults the guard.Budget: call a Budget method (Point/Phase/Tick/Check/AddNodes/AddChains/CheckK) or delegate to a callee that does",
			n.decl.Name.Name)
	}
}
