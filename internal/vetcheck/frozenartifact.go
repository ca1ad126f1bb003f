package vetcheck

// checkFrozenArtifact enforces the shared-cache immutability contract:
// once a compiled schema (dtd.Compiled) or a prepared plan
// (plan.CompiledExpr) leaves its constructor, nothing outside the
// configured home packages may mutate it — not its fields, not the
// bitset rows and symbol slices its accessors expose as shared views.
// At runtime the compile and plan cache tiers catch such mutations,
// verifying each resident's checksum on every hit; this check catches
// them at vet time.
//
// The analysis is a forward taint flow per function. An expression is
// frozen-rooted when its static type is a frozen artifact type, when
// it is a selector/index/slice/deref chain hanging off a frozen-rooted
// base, when it is a method call on a frozen-rooted receiver (accessors
// return shared views) other than the fresh-memory breaker (Clone),
// or when it is a local the flow has tainted by such an
// expression. Findings are writes through frozen-rooted bases: field
// and index assignment, IncDec, append, and the bitset mutator methods.
//
// Known conservatism boundary (DESIGN.md §12): a free function that
// takes an artifact and returns one of its views launders the taint —
// interprocedural view tracking is out of scope; the engines expose
// views only as methods, which are tracked.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// faState maps tainted local objects (aliases of frozen views) to true.
type faState map[types.Object]bool

var faFlow = flowFuncs[faState]{
	copy: func(s faState) faState {
		out := make(faState, len(s))
		for k := range s {
			out[k] = true
		}
		return out
	},
	join: func(a, b faState) faState { // may-tainted: union
		out := make(faState, len(a)+len(b))
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	},
	equal: func(a, b faState) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	},
}

// faBreakers are the artifact methods documented to return fresh
// memory, so their results do not alias the artifact.
var faBreakers = set("Clone")

// faMutators are the bitset methods that write through their receiver,
// the fixed-width slab helpers (OrCount, AndOf, Clear) included.
var faMutators = set("Add", "Remove", "OrAnd", "grow",
	"OrCount", "AndOf", "Clear")

func checkFrozenArtifact(p *pass) {
	for _, pkg := range p.mod.Pkgs {
		if p.cfg.FrozenHomePackages[pkg.Rel] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				for _, u := range unitsOf(fd) {
					p.faCheckUnit(pkg, u)
				}
			}
		}
	}
}

func (p *pass) faCheckUnit(pkg *Package, u funcUnit) {
	g := buildCFG(pkg, u.body)
	f := faFlow
	f.transfer = func(s faState, n ast.Node) faState {
		return p.faTransfer(pkg, s, n)
	}
	in := forwardFlow(g, faState{}, f)
	for _, b := range reachableBlocks(g, in) {
		s := faFlow.copy(in[b])
		for _, n := range b.nodes {
			p.faReportNode(pkg, s, n)
			s = p.faTransfer(pkg, s, n)
		}
	}
}

// ---- frozen judgment ----

// faFrozenType reports whether t (or its pointee) is a configured
// frozen artifact type.
func (p *pass) faFrozenType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	rel, ok := p.relOfTypesPkg(obj.Pkg())
	if !ok {
		return false
	}
	return p.cfg.FrozenTypes[relKey(rel, obj.Name())]
}

// faRooted reports whether x evaluates to a frozen artifact or a
// shared view into one, under taint state s.
func (p *pass) faRooted(pkg *Package, s faState, x ast.Expr) bool {
	x = ast.Unparen(x)
	if tv, ok := pkg.Info.Types[x]; ok && p.faFrozenType(tv.Type) {
		return true
	}
	switch x := x.(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		return obj != nil && s[obj]
	case *ast.SelectorExpr:
		return p.faRooted(pkg, s, x.X)
	case *ast.IndexExpr:
		return p.faRooted(pkg, s, x.X)
	case *ast.SliceExpr:
		return p.faRooted(pkg, s, x.X)
	case *ast.StarExpr:
		return p.faRooted(pkg, s, x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && p.faRooted(pkg, s, x.X)
	case *ast.CallExpr:
		// Conversion keeps the alias.
		if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
			for _, arg := range x.Args {
				if p.faRooted(pkg, s, arg) {
					return true
				}
			}
			return false
		}
		// Accessor method on a frozen-rooted receiver returns a
		// shared view, unless it is a documented fresh-memory breaker.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
				fn.Type().(*types.Signature).Recv() != nil &&
				!faBreakers[fn.Name()] {
				return p.faRooted(pkg, s, sel.X)
			}
		}
	}
	return false
}

// faAliasable: only reference-shaped locals can alias a frozen view.
func faAliasable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}

// ---- transfer ----

func (p *pass) faTransfer(pkg *Package, s faState, n ast.Node) faState {
	taint := func(id *ast.Ident, rooted bool) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if rooted && faAliasable(obj.Type()) {
			s[obj] = true
		} else {
			delete(s, obj) // strong update: rebinding clears the taint
		}
	}
	switch n := n.(type) {
	case *rangeMarker:
		// Ranging a frozen view yields frozen elements.
		rooted := p.faRooted(pkg, s, n.X)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				taint(id, rooted)
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					taint(id, p.faRooted(pkg, s, n.Rhs[i]))
				}
			}
		} else {
			// Multi-value forms: views never arrive through tuples in
			// this module, so rebinding just clears any taint.
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					taint(id, false)
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return s
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				rooted := false
				if i < len(vs.Values) {
					rooted = p.faRooted(pkg, s, vs.Values[i])
				}
				taint(id, rooted)
			}
		}
	}
	return s
}

// ---- reporting ----

func (p *pass) faReportNode(pkg *Package, s faState, n ast.Node) {
	inspectShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				p.faReportWrite(pkg, s, lhs)
			}
		case *ast.IncDecStmt:
			p.faReportWrite(pkg, s, x.X)
		case *ast.CallExpr:
			if isBuiltin(pkg.Info, x.Fun, "append") && len(x.Args) > 0 &&
				p.faRooted(pkg, s, x.Args[0]) {
				p.report("frozenartifact", x.Pos(),
					"append to a slice view of a frozen artifact may write its shared backing array; Clone first")
				return true
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || !faMutators[fn.Name()] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			rel, okRel := p.relOfTypesPkg(fn.Pkg())
			if !okRel || !p.cfg.FrozenHomePackages[rel] {
				return true
			}
			if p.faRooted(pkg, s, sel.X) {
				p.report("frozenartifact", x.Pos(),
					"%s mutates a bitset row of a frozen artifact; Clone before editing", fn.Name())
			}
		}
		return true
	})
}

// faReportWrite flags an assignment target that writes through a
// frozen-rooted base.
func (p *pass) faReportWrite(pkg *Package, s faState, lhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if p.faRooted(pkg, s, l.X) {
			p.report("frozenartifact", l.Pos(),
				"write to field %s of a frozen artifact outside its home package", l.Sel.Name)
		}
	case *ast.IndexExpr:
		if p.faRooted(pkg, s, l.X) {
			p.report("frozenartifact", l.Pos(),
				"write through an index of a frozen artifact view outside its home package")
		}
	case *ast.StarExpr:
		if p.faRooted(pkg, s, l.X) {
			p.report("frozenartifact", l.Pos(),
				"write through a pointer to a frozen artifact outside its home package")
		}
	}
}
