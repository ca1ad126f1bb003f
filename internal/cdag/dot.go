package cdag

import (
	"fmt"
	"sort"
	"strings"

	"xqindep/internal/bitset"
	"xqindep/internal/dtd"
)

// Dot renders the set as a Graphviz digraph, with endpoints drawn as
// double circles — the debugging view of the paper's Figure 2. The
// output is rendered over type names and sorted exactly like the
// map-based reference engine's, so isomorphic DAGs produce identical
// bytes regardless of which engine built them (the differential suite
// relies on this). A nil set renders as the empty digraph.
func (s *Set) Dot(name string) string {
	if s == nil {
		s = &Set{}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n", name)
	type dnode struct {
		depth int
		sym   string
	}
	var nodes []dnode
	seen := map[dnode]bool{}
	s.roots().ForEach(func(r int) {
		n := dnode{0, s.eng.symName(dtd.SymID(r))}
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	})
	type dedge struct {
		from dnode
		to   string
	}
	var edges []dedge
	for d := 0; d < s.nd; d++ {
		s.forRows(d, func(from int, bits bitset.Set) {
			fn := dnode{d, s.eng.symName(dtd.SymID(from))}
			if !seen[fn] {
				seen[fn] = true
				nodes = append(nodes, fn)
			}
			bits.ForEach(func(to int) {
				tn := dnode{d + 1, s.eng.symName(dtd.SymID(to))}
				if !seen[tn] {
					seen[tn] = true
					nodes = append(nodes, tn)
				}
				edges = append(edges, dedge{fn, tn.sym})
			})
		})
	}
	isEnd := map[dnode]bool{}
	for d := 0; d < s.ends.depths; d++ {
		s.ends.at(d).ForEach(func(i int) {
			n := dnode{d, s.eng.symName(dtd.SymID(i))}
			isEnd[n] = true
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		})
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].depth != nodes[j].depth {
			return nodes[i].depth < nodes[j].depth
		}
		return nodes[i].sym < nodes[j].sym
	})
	for _, n := range nodes {
		shape := "circle"
		if isEnd[n] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %s [label=%q, shape=%s];\n", dotID(n.depth, n.sym), n.sym, shape)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			if edges[i].from.depth != edges[j].from.depth {
				return edges[i].from.depth < edges[j].from.depth
			}
			return edges[i].from.sym < edges[j].from.sym
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %s -> %s;\n", dotID(e.from.depth, e.from.sym), dotID(e.from.depth+1, e.to))
	}
	b.WriteString("}\n")
	return b.String()
}

// dotID is the stable Graphviz node identifier "depth:sym", quoted.
func dotID(depth int, sym string) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%d:%s", depth, sym))
}
