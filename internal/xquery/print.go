package xquery

import (
	"fmt"
	"strings"
)

// Canonical printing renders an AST of the core grammar back into a
// single, deterministic surface form that ParseQuery/ParseUpdate
// accept and re-parse into an AST printing identically — the
// print→parse→print fixpoint the round-trip property test pins. Two
// inputs that differ only in whitespace, sugar (paths vs nested for),
// binder names or sequence association print equally once normalized.
// Expression fingerprints (fingerprint.go) have exactly this
// equivalence but never print: the canonical form is the oracle their
// encoding is tested against, and it is off the request path.
//
// Canonicalization rules:
//
//   - every binder is alpha-renamed to $v0, $v1, … in traversal
//     order (parser-generated fresh variables like $%1 are not even
//     parseable, so renaming is required, not cosmetic);
//   - sequences are flattened and always parenthesized: (a, b, c);
//   - if-expressions always print an explicit else branch;
//   - steps print with an explicit axis: $x/child::a;
//   - if-conditions print in the predicate grammar the parser reads
//     them back through: Sequence as "or", the and/comparison If
//     shape as "and", the not() If shape as "not(…)".
type printer struct {
	b     strings.Builder
	next  int
	avoid map[string]bool
}

// CanonicalQuery renders q in canonical form. The result re-parses
// for every AST the parser can produce; hand-built ASTs using shapes
// outside the parseable fragment may not round-trip.
func CanonicalQuery(q Query) string {
	p := newPrinter(func(avoid map[string]bool) { FreeQueryVars(q, avoid) })
	p.query(map[string]string{}, q)
	return p.b.String()
}

// CanonicalUpdate renders u in canonical form; see CanonicalQuery.
func CanonicalUpdate(u Update) string {
	p := newPrinter(func(avoid map[string]bool) { FreeUpdateVars(u, avoid) })
	p.update(map[string]string{}, u)
	return p.b.String()
}

func newPrinter(free func(map[string]bool)) *printer {
	avoid := make(map[string]bool)
	free(avoid)
	return &printer{avoid: avoid}
}

// fresh returns the next canonical binder name, skipping any name
// that collides with a free variable of the whole expression (which
// must keep referring to its environment binding).
func (p *printer) fresh() string {
	for {
		name := fmt.Sprintf("$v%d", p.next)
		p.next++
		if !p.avoid[name] {
			return name
		}
	}
}

// scoped runs body with binder v mapped to canonical name nv,
// restoring the outer mapping afterwards. The binding expression of a
// for/let is printed before entering the scope, since the binder is
// not visible there.
func scoped(env map[string]string, v, nv string, body func()) {
	old, had := env[v]
	env[v] = nv
	body()
	if had {
		env[v] = old
	} else {
		delete(env, v)
	}
}

// rn resolves a variable reference: bound variables print their
// canonical name, free ones (in practice only $root) print as-is.
func rn(env map[string]string, name string) string {
	if nv, ok := env[name]; ok {
		return nv
	}
	return name
}

// quote renders a string literal. The parser has no escape sequences,
// so a value containing the double quote switches to single quotes; a
// value containing both is not parseable in the first place and never
// reaches a round-trip.
func quote(v string) string {
	if strings.Contains(v, `"`) {
		return "'" + v + "'"
	}
	return `"` + v + `"`
}

// query prints q at the parser's parseSingle level.
func (p *printer) query(env map[string]string, q Query) {
	switch n := q.(type) {
	case Empty:
		p.b.WriteString("()")
	case StringLit:
		p.b.WriteString(quote(n.Value))
	case Var:
		p.b.WriteString(rn(env, n.Name))
	case Step:
		fmt.Fprintf(&p.b, "%s/%s::%s", rn(env, n.Var), n.Axis, n.Test)
	case Sequence:
		p.b.WriteString("(")
		for i, item := range flattenSeq(n, nil) {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.query(env, item)
		}
		p.b.WriteString(")")
	case Element:
		if _, ok := n.Content.(Empty); ok {
			fmt.Fprintf(&p.b, "<%s/>", n.Tag)
			return
		}
		fmt.Fprintf(&p.b, "<%s>{", n.Tag)
		p.query(env, n.Content)
		fmt.Fprintf(&p.b, "}</%s>", n.Tag)
	case For:
		nv := p.fresh()
		fmt.Fprintf(&p.b, "for %s in ", nv)
		p.query(env, n.In)
		p.b.WriteString(" return ")
		scoped(env, n.Var, nv, func() { p.query(env, n.Return) })
	case Let:
		nv := p.fresh()
		fmt.Fprintf(&p.b, "let %s := ", nv)
		p.query(env, n.Bind)
		p.b.WriteString(" return ")
		scoped(env, n.Var, nv, func() { p.query(env, n.Return) })
	case If:
		p.b.WriteString("if (")
		p.condOr(env, n.Cond)
		p.b.WriteString(") then ")
		p.query(env, n.Then)
		p.b.WriteString(" else ")
		p.query(env, n.Else)
	default:
		// Foreign node types cannot occur in parsed ASTs; render a
		// marker that fails re-parsing instead of panicking mid-print.
		fmt.Fprintf(&p.b, "?%T?", q)
	}
}

// flattenSeq collects the items of a (possibly nested) sequence in
// order; the parser rebuilds the left-associated spine, which
// flattens back to the same list.
func flattenSeq(q Query, out []Query) []Query {
	if s, ok := q.(Sequence); ok {
		return flattenSeq(s.Right, flattenSeq(s.Left, out))
	}
	return append(out, q)
}

func flattenUSeq(u Update, out []Update) []Update {
	if s, ok := u.(USeq); ok {
		return flattenUSeq(s.Right, flattenUSeq(s.Left, out))
	}
	return append(out, u)
}

// isAndIf recognises the shape parsePredicateAnd/-Cmp build for both
// "a and b" and structural comparisons: if (a) then b else ().
func isAndIf(q Query) (If, bool) {
	n, ok := q.(If)
	if !ok {
		return If{}, false
	}
	if _, empty := n.Else.(Empty); !empty {
		return If{}, false
	}
	return n, true
}

// isNotIf recognises the shape parsePredicateValue builds for
// not(…): if (inner) then () else "true".
func isNotIf(q Query) (If, bool) {
	n, ok := q.(If)
	if !ok {
		return If{}, false
	}
	if _, empty := n.Then.(Empty); !empty {
		return If{}, false
	}
	lit, ok := n.Else.(StringLit)
	if !ok || lit.Value != "true" {
		return If{}, false
	}
	return n, true
}

// condOr prints an if-condition at the parser's parsePredicateExpr
// level: sequences are or-chains there.
func (p *printer) condOr(env map[string]string, q Query) {
	if s, ok := q.(Sequence); ok {
		for i, item := range flattenSeq(s, nil) {
			if i > 0 {
				p.b.WriteString(" or ")
			}
			p.condAnd(env, item)
		}
		return
	}
	p.condAnd(env, q)
}

// condAnd prints at the parsePredicateAnd level: the left spine of
// and-shaped ifs flattens to "a and b and c".
func (p *printer) condAnd(env map[string]string, q Query) {
	n, ok := isAndIf(q)
	if !ok {
		p.condValue(env, q)
		return
	}
	// The not() shape has a "true" else branch, so it can never be
	// mistaken for the and shape here.
	var operands []Query
	var collect func(Query)
	collect = func(x Query) {
		if a, ok := isAndIf(x); ok {
			collect(a.Cond)
			operands = append(operands, a.Then)
			return
		}
		operands = append(operands, x)
	}
	collect(n.Cond)
	operands = append(operands, n.Then)
	for i, op := range operands {
		if i > 0 {
			p.b.WriteString(" and ")
		}
		p.condValue(env, op)
	}
}

// condValue prints at the parsePredicateValue level, parenthesizing
// the shapes that only parse at a higher predicate level.
func (p *printer) condValue(env map[string]string, q Query) {
	switch n := q.(type) {
	case Sequence:
		p.b.WriteString("(")
		p.condOr(env, n)
		p.b.WriteString(")")
		return
	case If:
		if not, ok := isNotIf(n); ok {
			p.b.WriteString("not(")
			p.condOr(env, not.Cond)
			p.b.WriteString(")")
			return
		}
		if _, ok := isAndIf(n); ok {
			p.b.WriteString("(")
			p.condAnd(env, n)
			p.b.WriteString(")")
			return
		}
		// A genuine if with a non-trivial else: the predicate grammar
		// admits it at value level through the keyword lookahead.
		p.query(env, n)
		return
	}
	// Everything else — variables, steps, literals, for/let (keyword
	// lookahead), element constructors — parses at value level in its
	// parseSingle form.
	p.query(env, q)
}

// update prints u at the parser's parseUpdateSingle level.
func (p *printer) update(env map[string]string, u Update) {
	switch n := u.(type) {
	case UEmpty:
		p.b.WriteString("()")
	case USeq:
		p.b.WriteString("(")
		for i, item := range flattenUSeq(n, nil) {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.update(env, item)
		}
		p.b.WriteString(")")
	case UFor:
		nv := p.fresh()
		fmt.Fprintf(&p.b, "for %s in ", nv)
		p.query(env, n.In)
		p.b.WriteString(" return ")
		scoped(env, n.Var, nv, func() { p.update(env, n.Body) })
	case ULet:
		nv := p.fresh()
		fmt.Fprintf(&p.b, "let %s := ", nv)
		p.query(env, n.Bind)
		p.b.WriteString(" return ")
		scoped(env, n.Var, nv, func() { p.update(env, n.Body) })
	case UIf:
		p.b.WriteString("if (")
		p.condOr(env, n.Cond)
		p.b.WriteString(") then ")
		p.update(env, n.Then)
		p.b.WriteString(" else ")
		p.update(env, n.Else)
	case Delete:
		p.b.WriteString("delete ")
		p.query(env, n.Target)
	case Rename:
		p.b.WriteString("rename ")
		p.query(env, n.Target)
		p.b.WriteString(" as ")
		p.b.WriteString(n.As)
	case Insert:
		p.b.WriteString("insert ")
		p.query(env, n.Source)
		p.b.WriteString(" ")
		p.b.WriteString(n.Pos.String())
		p.b.WriteString(" ")
		p.query(env, n.Target)
	case Replace:
		p.b.WriteString("replace ")
		p.query(env, n.Target)
		p.b.WriteString(" with ")
		p.query(env, n.Source)
	default:
		fmt.Fprintf(&p.b, "?%T?", u)
	}
}
