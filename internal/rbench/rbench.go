// Package rbench builds the paper's R-benchmark (Section 6.2): a
// parametric schema dn with n fully mutually recursive types (every
// type defined in terms of all n types) and expressions em made of m
// consecutive descendant::node() steps. Parameters n and m trace the
// perimeter of applicability of the chain analysis; the schemas are
// deliberately harder than anything occurring in practice.
package rbench

import (
	"fmt"
	"strings"

	"xqindep/internal/dtd"
	"xqindep/internal/xquery"
)

// SchemaN builds dn: types t1..tn, each with content (t1 | ... | tn)*,
// rooted at t1. |dn| = n.
func SchemaN(n int) *dtd.DTD {
	if n < 1 {
		panic("rbench: n must be positive")
	}
	var alts []*dtd.Regex
	for i := 1; i <= n; i++ {
		alts = append(alts, dtd.Sym(typeName(i)))
	}
	content := make(map[string]*dtd.Regex, n)
	for i := 1; i <= n; i++ {
		content[typeName(i)] = dtd.Star(dtd.Alt(alts...))
	}
	d, err := dtd.New(typeName(1), content)
	if err != nil {
		panic(fmt.Sprintf("rbench: %v", err))
	}
	return d
}

func typeName(i int) string { return fmt.Sprintf("t%d", i) }

// ExprM builds em: m consecutive descendant::node() steps from the
// root. |em| = m.
func ExprM(m int) xquery.Query {
	if m < 1 {
		panic("rbench: m must be positive")
	}
	var b strings.Builder
	b.WriteString("/descendant::node()")
	for i := 1; i < m; i++ {
		b.WriteString("/descendant::node()")
	}
	return xquery.MustParseQuery(b.String())
}
