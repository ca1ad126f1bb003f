package cdag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"xqindep/internal/bitset"
	"xqindep/internal/chain"
	"xqindep/internal/dtd"
	"xqindep/internal/guard"
	"xqindep/internal/typeanalysis"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// xmarkPair returns the named XMark view and update ASTs.
func xmarkPair(t *testing.T, view, update string) (xquery.Query, xquery.Update) {
	t.Helper()
	var q xquery.Query
	var u xquery.Update
	for _, v := range xmark.Views() {
		if v.Name == view {
			q = v.AST
		}
	}
	for _, x := range xmark.Updates() {
		if x.Name == update {
			u = x.AST
		}
	}
	if q == nil || u == nil {
		t.Fatalf("no XMark pair %s × %s", view, update)
	}
	return q, u
}

// TestIndependenceCompiledAllocs pins the allocation count of a whole
// cold CDAG analysis, so per-row slab growth and per-call sweep slabs
// cannot creep back. Each ceiling is twice the count measured with
// sweeps cut from the engine's scratch, nil as the empty set, each
// `//T` inferred in one descendant sweep and a lone union operand
// taken over (A3 has none, so taking them over changed neither pair).
func TestIndependenceCompiledAllocs(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		update  string
		ceiling float64
	}{
		// 59 measured; 66 when each `//` built its descendant-or-self
		// closure first, 157 with a slab per sweep and an empty set per
		// empty side, 308 with dense flat slabs, 41,308 when every row
		// grew one bitset at a time.
		{"UB2", 118},
		// 53 measured; 64 with the descendant-or-self closure, 152
		// with a slab per sweep, 286 with dense flat slabs, 123,121
		// when rows grew one at a time and the rename loop re-inferred
		// its body per binding endpoint.
		{"UN1", 106},
	} {
		q, u := xmarkPair(t, "A3", tc.update)
		n := testing.AllocsPerRun(3, func() { IndependenceCompiled(c, q, u) })
		if n > tc.ceiling {
			t.Errorf("A3 × %s: IndependenceCompiled allocates %.0f times, ceiling %.0f", tc.update, n, tc.ceiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// bytes f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestIndependenceCompiledBytes pins the bytes of a whole cold CDAG
// analysis, so dense depth blocks cannot creep back. Each ceiling is
// twice the bytes measured with sweeps cut from the engine's scratch
// and each `//T` inferred in one descendant sweep.
func TestIndependenceCompiledBytes(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		update  string
		ceiling float64
	}{
		// 69,560 B measured; 96,392 B when each `//` built its
		// descendant-or-self closure first, 168,456 B with a slab per
		// sweep, 3,199,104 B with a dense n·w-word block per depth,
		// copied and pruned at every step.
		{"UB2", 139_120},
		// 49,288 B measured; 88,136 B with the descendant-or-self
		// closure, 149,360 B with a slab per sweep, 2,322,096 B with
		// dense blocks.
		{"UN1", 98_576},
	} {
		q, u := xmarkPair(t, "A3", tc.update)
		if n := bytesPerRun(5, func() { IndependenceCompiled(c, q, u) }); n > tc.ceiling {
			t.Errorf("A3 × %s: IndependenceCompiled allocates %.0f bytes, ceiling %.0f", tc.update, n, tc.ceiling)
		}
	}
}

// TestDescendantQueryBytes pins the bytes of inferring q7 and q20,
// which spell `//` three times each, on an engine that already holds
// its scratch. Each ceiling is twice the bytes measured with every
// `//T` inferred in one descendant sweep; building the
// descendant-or-self closure of each `//` first, and pruning it to T
// after, allocated 43,512 and 47,240 B.
func TestDescendantQueryBytes(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		view    string
		ceiling float64
	}{
		{"q7", 4_784},   // 2,392 B measured
		{"q20", 12_208}, // 6,104 B measured
	} {
		v, _ := xmark.ViewByName(tc.view)
		q := xquery.Normalize(v.AST)
		e := EngineForCompiled(c, q, nil)
		if n := bytesPerRun(10, func() { e.Query(e.RootEnv(), q) }); n > tc.ceiling {
			t.Errorf("%s: inferring the query allocates %.0f bytes, ceiling %.0f", tc.view, n, tc.ceiling)
		}
	}
}

// checkLayout reports how s breaks the sparse layout, if it does: the
// slab must hold exactly its header and rows, every occupancy row must
// count the rows stored for its depth, the rows must be packed in
// (depth, symbol) order where the rank lookup finds them, no stored
// row may be empty, and no depth past the last occupied one may be
// stored.
func checkLayout(s *Set) error {
	if s.g == nil {
		if s.nd != 0 {
			return fmt.Errorf("a nil graph claims %d depths", s.nd)
		}
		return nil
	}
	w := s.eng.w
	if got, want := len(s.g), s.hdr()+s.rowCount()*w; got != want {
		return fmt.Errorf("slab holds %d words, its header and %d rows need %d", got, s.rowCount(), want)
	}
	if s.nd > 0 && !s.occ(s.nd-1).Any() {
		return fmt.Errorf("depth %d is stored past the last occupied one", s.nd-1)
	}
	at, next := w*(s.nd+1), 0
	for d := 0; d < s.nd; d++ {
		if first := int(s.g[at+d]); first != next {
			return fmt.Errorf("depth %d starts at row %d, want %d", d, first, next)
		}
		var err error
		s.occ(d).ForEach(func(sym int) {
			row := s.g[s.hdr()+next*w : s.hdr()+(next+1)*w]
			switch found := s.outAt(d, dtd.SymID(sym)); {
			case err != nil:
			case !bitset.Set(row).Any():
				err = fmt.Errorf("row %d (%d:%d) is empty", next, d, sym)
			case &found[0] != &row[0]:
				err = fmt.Errorf("rank lookup of %d:%d misses row %d", d, sym, next)
			}
			next++
		})
		if err != nil {
			return err
		}
	}
	if s.rowCount() != next {
		return fmt.Errorf("index counts %d rows, occupancy %d", s.rowCount(), next)
	}
	return nil
}

// TestSetLayout checks the layout of every set built — intermediate or
// final, query or update side — while analysing the UB2, UN1, UA2 and
// UB6 rows of the XMark matrix.
func TestSetLayout(t *testing.T) {
	c, err := dtd.Compile(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"UB2", "UN1", "UA2", "UB6"} {
		built := 0
		for _, v := range xmark.Views() {
			q, u := xmarkPair(t, v.Name, name)
			e := EngineForCompiled(c, q, u)
			var sets []*Set
			e.built = func(s *Set) { sets = append(sets, s) }
			e.CheckIndependence(xquery.Normalize(q), xquery.NormalizeUpdate(u))
			for i, s := range sets {
				if err := checkLayout(s); err != nil {
					t.Fatalf("%s × %s, set %d of %d: %v", v.Name, name, i, len(sets), err)
				}
			}
			built += len(sets)
		}
		if built < 36*10 {
			t.Errorf("%s row built %d sets; the hook missed most of them", name, built)
		}
	}
}

// TestAddEdgeInsertOrder: an edge from a node without a row takes the
// insert slow path wherever the row lands, so a DAG's edges added in
// shuffled (depth, symbol) order build the DAG that the same edges
// added in ascending order build.
func TestAddEdgeInsertOrder(t *testing.T) {
	q, u := xmarkPair(t, "A3", "UB2")
	e := EngineFor(xmark.Schema(), q, u)
	src := e.Update(e.RootEnv(), xquery.NormalizeUpdate(u)).Full
	type edge struct {
		d        int
		from, to dtd.SymID
	}
	var edges []edge
	for d := 0; d < src.nd; d++ {
		src.forRows(d, func(from int, row bitset.Set) {
			row.ForEach(func(to int) { edges = append(edges, edge{d, dtd.SymID(from), dtd.SymID(to)}) })
		})
	}
	if src.nd < 4 || src.rowCount() < 8 {
		t.Fatalf("source DAG too small to exercise inserts: %d depths, %d rows", src.nd, src.rowCount())
	}
	build := func(order []edge) *Set {
		s := e.NewSet()
		s.rootRow().OrCount(src.roots())
		for _, x := range order {
			s.addEdge(x.d, x.from, x.to)
		}
		s.ends = src.ends.clone()
		return s
	}
	want := src.Dot("u")
	if got := build(edges).Dot("u"); got != want {
		t.Fatalf("ascending inserts:\n%s\nwant\n%s", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		shuffled := append([]edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s := build(shuffled)
		if got := s.Dot("u"); got != want {
			t.Fatalf("shuffle %d:\n%s\nwant\n%s", i, got, want)
		}
		if err := checkLayout(s); err != nil {
			t.Fatalf("shuffle %d: %v", i, err)
		}
	}
}

// TestAddAllIntoDeepSetAllocatesNothing pins the slab union: into a set
// already as deep as its argument, AddAll is word-wise ORs in place.
func TestAddAllIntoDeepSetAllocatesNothing(t *testing.T) {
	d := xmark.Schema()
	q := xquery.MustParseQuery("//item//keyword")
	e := EngineFor(d, q, nil)
	src := e.Query(e.RootEnv(), q).Ret
	dst := src.Clone()
	if n := testing.AllocsPerRun(100, func() { dst.AddAll(src) }); n != 0 {
		t.Errorf("AddAll into an equally deep set allocates %.0f times, want 0", n)
	}
	if got, want := dst.Dot("s"), src.Dot("s"); got != want {
		t.Errorf("AddAll of a set into its clone changed the DAG:\n%s\nwant\n%s", got, want)
	}
}

// TestConflictAllocs pins the three conflict checks at zero
// allocations on this pair, whose return and used chains both share
// prefixes with the update, so every check runs both of its sweeps:
// they are cut from the engine's scratch. A check allocated 2 with a
// slab per sweep, and 4 before the slab layout (a slice header plus a
// backing array per sweep).
func TestConflictAllocs(t *testing.T) {
	d := xmark.Schema()
	q := xquery.Normalize(xquery.MustParseQuery("for $i in //item return if ($i/description) then $i/name else ()"))
	u := xquery.NormalizeUpdate(xquery.MustParseUpdate("for $x in //item/description return delete $x"))
	e := EngineFor(d, q, u)
	qc := e.Query(e.RootEnv(), q)
	uc := e.Update(e.RootEnv(), u)
	if !commonNodes(uc.Full, qc.Ret).any() || !commonNodes(uc.Full, qc.Used).any() {
		t.Fatal("the pair shares no prefix, so the sweeps are not exercised")
	}
	e.release(0)
	for _, tc := range []struct {
		name    string
		ceiling float64
		check   func() bool
	}{
		{"ConflictRetUpdate", 0, func() bool { return ConflictRetUpdate(qc.Ret, uc) }},
		{"ConflictUpdateRet", 0, func() bool { return ConflictUpdateRet(uc, qc.Ret) }},
		{"ConflictUpdateUsed", 0, func() bool { return ConflictUpdateUsed(uc, qc.Used) }},
	} {
		if n := testing.AllocsPerRun(100, func() { tc.check() }); n > tc.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", tc.name, n, tc.ceiling)
		}
	}
}

// TestSymbolReservation: the universe is fixed at construction, so a
// tag outside Σ beyond the reserved slots aborts with the symbols
// LimitError instead of widening a row. That error is a budget error
// (what the core ladder falls past, to the types rung, on), and the
// types rung answers the same pair.
func TestSymbolReservation(t *testing.T) {
	q := xquery.MustParseQuery("<zz>{//title}</zz>")
	u := xquery.MustParseUpdate("delete //price")
	e := NewEngine(bib, 2, 0)
	if got := e.n - e.base; got != 0 {
		t.Fatalf("extraTags 0 reserved %d slots", got)
	}
	root := e.RootSet()
	check := func() (err error) {
		defer guard.Recover(&err)
		e.CheckIndependence(q, u)
		return nil
	}
	err := check()
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != "symbols" {
		t.Fatalf("interning past the reservation: err = %v, want a symbols LimitError", err)
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("symbols LimitError is not a budget error, so the ladder would not degrade: %v", err)
	}
	if e.total() != e.n || len(root.roots()) != e.w {
		t.Errorf("abort changed the universe: total %d, n %d, root row %d words, w %d", e.total(), e.n, len(root.roots()), e.w)
	}
	b := guard.New(context.Background(), guard.Limits{})
	if err := guard.Do(func() { typeanalysis.IndependenceBudget(bib, q, u, b) }); err != nil {
		t.Errorf("types rung on the same pair: %v", err)
	}

	// The pair entry points reserve exactly pairExtras: the distinct
	// constructed and rename tags outside Σ (title is in Σ; zz counted
	// once).
	q2 := xquery.MustParseQuery("(<zz/>, <yy><title/></yy>, <zz/>)")
	u2 := xquery.MustParseUpdate("for $x in //book return rename $x as ww")
	for _, pe := range []*Engine{EngineFor(bib, q2, u2), EngineForCompiled(e.C, q2, u2)} {
		if got, want := pe.n-pe.base, pairExtras(bib, q2, u2); got != want || want != 3 {
			t.Errorf("reserved %d extra slots, pairExtras %d, want 3", got, want)
		}
	}
	if v := Independence(bib, q2, u2); v.K == 0 {
		t.Errorf("analysis within the reservation did not run: %+v", v)
	}
}

// TestPairExtrasAllocatesNothing: counting a pair's distinct
// constructed tags outside Σ dedups them in a slice on the stack, so
// an engine's reservation costs no allocation. A map of the tags cost
// every cold build about 1.6.
func TestPairExtrasAllocatesNothing(t *testing.T) {
	d := xmark.Schema()
	q := xquery.MustParseQuery("(<zz/>, <yy><title/></yy>, <zz/>)")
	u := xquery.MustParseUpdate("for $x in //book return rename $x as ww")
	if n := testing.AllocsPerRun(10, func() { pairExtras(bib, q, u) }); n != 0 {
		t.Errorf("pairExtras on bib allocates %.0f times, want 0", n)
	}
	for _, v := range xmark.Views() {
		for _, x := range xmark.Updates() {
			if n := testing.AllocsPerRun(2, func() { pairExtras(d, v.AST, x.AST) }); n != 0 {
				t.Fatalf("pairExtras on %s × %s allocates %.0f times, want 0", v.Name, x.Name, n)
			}
		}
	}
}

// TestBatchedUpdateLoopMatchesPerBinding: a for loop whose body only
// deletes or renames its variable is inferred once over the union of
// the binding cones; it must build exactly the DAG and change region
// the per-binding loop builds. The recursive schema d1 puts binding
// endpoints at several depths of one path (r.a.b.f.a.…).
func TestBatchedUpdateLoopMatchesPerBinding(t *testing.T) {
	for _, us := range []string{
		"for $x in //a return delete $x",
		"for $x in //f return rename $x as zz",
		"for $x in //a return rename $x as b",
		"for $x in /r/a//f/a return delete $x",
		"for $x in (//b, //c/f) return rename $x as zz",
	} {
		u := xquery.NormalizeUpdate(xquery.MustParseUpdate(us))
		loop, ok := u.(xquery.UFor)
		if !ok || !targetsOnlyVar(loop.Body, loop.Var) {
			t.Fatalf("%s: not a target-only update loop", us)
		}
		e := EngineFor(d1, nil, u)
		g := e.RootEnv()
		c1 := e.Query(g, loop.In)
		bindings := e.Union(c1.Ret, c1.Elem)
		depths := map[int]bool{}
		bindings.forEachEnd(func(n Node) { depths[n.Depth] = true })
		if len(depths) < 2 {
			t.Fatalf("%s: binding endpoints at %d depth(s); the test needs several", us, len(depths))
		}
		batched := e.Update(g, u)
		each := e.updateEach(g, loop, bindings)
		if got, want := batched.Full.Dot("u"), each.Full.Dot("u"); got != want {
			t.Errorf("%s: batched DAG\n%s\nper-binding DAG\n%s", us, got, want)
		}
		if !marksEqual(batched.ChangeRegion, each.ChangeRegion) {
			t.Errorf("%s: change regions differ: batched %d marks, per-binding %d", us,
				batched.ChangeRegion.count(), each.ChangeRegion.count())
		}
	}
}

// TestEndConesOfUnprunedSet: endCones is the union of the per-endpoint
// cones even when the set carries edges and a root that reach no
// endpoint, and an endpoint no root reaches.
func TestEndConesOfUnprunedSet(t *testing.T) {
	e := NewEngine(d1, 2, 0)
	s := e.SingletonSet(chain.MustParseChain("r.a.b.f.a"))
	s.AddAll(e.SingletonSet(chain.MustParseChain("r.a.c")))
	sym := func(name string) dtd.SymID {
		id, _ := e.C.SymOf(name)
		return id
	}
	s.addEdge(1, sym("a"), sym("e")) // dead end: e at depth 2 is no endpoint
	s.addEdge(4, sym("g"), sym("f")) // dangling: no root reaches 4:g
	s.addEnd(5, sym("f"))            // endpoint reached only from 4:g
	s.addEnd(6, sym("g"))            // endpoint with no incoming edge
	s.addEdge(0, sym("a"), sym("b")) // an edge from a non-root
	s.addRoot(sym("g"))              // a root that reaches no endpoint
	cones := e.NewSet()
	for _, end := range s.Ends() {
		cones.AddAll(s.subWithEnd(end))
	}
	if got, want := s.endCones().Dot("s"), cones.Dot("s"); got != want {
		t.Errorf("endCones\n%s\nunion of subWithEnd\n%s", got, want)
	}
}

// marksEqual compares two markings node for node.
func marksEqual(a, b Marks) bool {
	for d := 0; d < max(a.depths, b.depths); d++ {
		if !a.at(d).Equal(b.at(d)) {
			return false
		}
	}
	return true
}

// refAncestorStep is the per-endpoint ancestor step ancestorStep
// replaced: every endpoint walks s's edges upward on its own.
func refAncestorStep(s *Set, axis xquery.Axis, test xquery.NodeTest) (*Set, Marks) {
	e := s.eng
	defer e.release(e.top)
	mask := e.testMask(test)
	ends := e.marks(0)
	productive := e.marks(0)
	s.forEachEnd(func(end Node) {
		var anc []Node
		cur := make(bitset.Set, e.w)
		s.forPreds(end, func(p dtd.SymID) { cur.Add(int(p)) })
		for d := end.Depth - 1; d >= 0 && cur.Any(); d-- {
			cur.ForEach(func(i int) { anc = append(anc, Node{d, dtd.SymID(i)}) })
			next := make(bitset.Set, e.w)
			s.orPreds(next, d, cur)
			cur = next
		}
		if axis == xquery.AncestorOrSelf {
			anc = append(anc, end)
		}
		any := false
		for _, n := range anc {
			if mask.Has(int(n.Sym)) {
				ends.add(n.Depth, n.Sym)
				any = true
			}
		}
		if any {
			productive.add(end.Depth, end.Sym)
		}
	})
	return s.withEnds(ends), productive
}

// TestAncestorStepMatchesPerEndpointWalk: the two-sweep ancestor step
// returns the DAG and the productive endpoints the per-endpoint walk
// returns, on recursive and non-recursive schemas and on a set with
// dangling edges and endpoints.
func TestAncestorStepMatchesPerEndpointWalk(t *testing.T) {
	tests := []xquery.NodeTest{xquery.AnyNode(), {Kind: xquery.WildcardTest},
		{Kind: xquery.TagTest, Tag: "a"}, {Kind: xquery.TagTest, Tag: "f"}, {Kind: xquery.TagTest, Tag: "book"}}
	var sets []*Set
	for _, c := range []struct {
		d *dtd.DTD
		q string
	}{
		{d1, "//f"}, {d1, "//g"}, {d1, "/r/a/b/f/a/c"}, {d1, "(//b, //e/f)"},
		{figure1, "//c"}, {figure2, "//c/e"}, {bib, "//author/email"},
	} {
		e := NewEngine(c.d, 2, 0)
		sets = append(sets, e.Query(e.RootEnv(), xquery.MustParseQuery(c.q)).Ret)
	}
	e := NewEngine(d1, 2, 0)
	loose := e.SingletonSet(chain.MustParseChain("r.a.b.f.a.c"))
	sym := func(name string) dtd.SymID {
		id, _ := e.C.SymOf(name)
		return id
	}
	loose.addEdge(3, sym("g"), sym("a")) // a second, rootless parent of 4:a
	loose.addEdge(2, sym("e"), sym("g"))
	loose.addEnd(3, sym("f"))
	loose.addEnd(2, sym("e")) // an endpoint no root reaches
	sets = append(sets, loose)
	for i, s := range sets {
		for _, axis := range []xquery.Axis{xquery.Ancestor, xquery.AncestorOrSelf} {
			for _, test := range tests {
				got, gotProd := s.Step(axis, test)
				want, wantProd := refAncestorStep(s, axis, test)
				if g, w := got.Dot("r"), want.Dot("r"); g != w {
					t.Errorf("set %d %v::%v: DAG\n%s\nper-endpoint walk\n%s", i, axis, test, g, w)
				}
				if !marksEqual(gotProd, wantProd) {
					t.Errorf("set %d %v::%v: productive endpoints differ", i, axis, test)
				}
			}
		}
	}
}
