package xquery

import (
	"fmt"
	"strings"

	"xqindep/internal/guard"
)

// ParseQuery parses a query of the fragment. Surface XPath paths
// (absolute, //, abbreviated steps, predicates) are desugared into the
// core grammar during parsing, so the returned AST contains only core
// constructs. The free variable of absolute paths is RootVar.
//
// Sugar accepted beyond the core grammar:
//
//   - paths: /a/b, //a, $x/a//b, steps with explicit axes
//     (ancestor::a), abbreviations "." ".." "*" text() node();
//   - predicates: p[q], with "and", "or", "not(...)" and value
//     comparisons; comparisons are structural — following the paper's
//     benchmark rewriting, "[price > 40]" keeps only the path price —
//     both operand paths become condition queries;
//   - element constructors with nested content: <a><b/>{$x/c}</a>.
//
// The input may hold at most guard.DefaultMaxParseInput bytes and nest
// at most guard.DefaultMaxParseDepth levels.
func ParseQuery(input string) (Query, error) {
	return parseQuery(input, guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput)
}

// parseQuery is ParseQuery under explicit bounds: maxInput bounds the
// input size in bytes and maxDepth bounds both expression nesting and
// the number of steps per path (which the desugaring turns into
// nesting).
func parseQuery(input string, maxDepth, maxInput int) (Query, error) {
	if len(input) > maxInput {
		return nil, fmt.Errorf("xquery: input of %d bytes exceeds the %d-byte limit", len(input), maxInput)
	}
	p := &parser{in: input, maxDepth: maxDepth}
	q := p.parseExpr()
	p.ws()
	if p.err == nil && p.pos != len(p.in) {
		p.fail("trailing input %q", p.in[p.pos:])
	}
	if p.err != nil {
		return nil, p.err
	}
	if UsesElementInForLet(q) {
		return nil, fmt.Errorf("xquery: element construction in for/let binding expression is outside the fragment (rewrite by variable substitution)")
	}
	return q, nil
}

// MustParseQuery is ParseQuery, panicking on error.
func MustParseQuery(input string) Query {
	q, err := ParseQuery(input)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseUpdate parses an update expression of the fragment, with the
// same path sugar and the same bounds as ParseQuery.
func ParseUpdate(input string) (Update, error) {
	return parseUpdate(input, guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput)
}

// parseUpdate is ParseUpdate under explicit bounds (see parseQuery).
func parseUpdate(input string, maxDepth, maxInput int) (Update, error) {
	if len(input) > maxInput {
		return nil, fmt.Errorf("xquery: input of %d bytes exceeds the %d-byte limit", len(input), maxInput)
	}
	p := &parser{in: input, maxDepth: maxDepth}
	u := p.parseUpdate()
	p.ws()
	if p.err == nil && p.pos != len(p.in) {
		p.fail("trailing input %q", p.in[p.pos:])
	}
	if p.err != nil {
		return nil, p.err
	}
	return u, nil
}

// MustParseUpdate is ParseUpdate, panicking on error.
func MustParseUpdate(input string) Update {
	u, err := ParseUpdate(input)
	if err != nil {
		panic(err)
	}
	return u
}

type parser struct {
	in    string
	pos   int
	err   error
	fresh int
	// ctxVar, when non-empty, is the context variable for relative
	// paths (inside predicates).
	ctxVar string
	// depth tracks recursive-production nesting; exceeding maxDepth is
	// a parse error, which bounds both parser stack use and the depth
	// of the produced AST (every later analysis walks it recursively).
	depth    int
	maxDepth int
}

// enter charges one nesting level, failing the parse past the limit.
// Callers must return immediately (with a dummy node) on false, which
// unwinds the recursion; leave undoes the charge on the success path.
func (p *parser) enter() bool {
	p.depth++
	if p.maxDepth > 0 && p.depth > p.maxDepth {
		p.fail("expression nesting exceeds the limit of %d", p.maxDepth)
		return false
	}
	return true
}

func (p *parser) leave() { p.depth-- }

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("xquery: at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
	}
}

func (p *parser) freshVar() string {
	p.fresh++
	return fmt.Sprintf("$%%%d", p.fresh)
}

func (p *parser) ws() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peekByte() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

func (p *parser) hasPrefix(s string) bool { return strings.HasPrefix(p.in[p.pos:], s) }

// eat consumes s if present (after whitespace) and reports success.
func (p *parser) eat(s string) bool {
	p.ws()
	if p.hasPrefix(s) {
		p.pos += len(s)
		return true
	}
	return false
}

// expect consumes s or records an error.
func (p *parser) expect(s string) {
	if !p.eat(s) {
		p.fail("expected %q", s)
	}
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

// peekWord returns the name starting at the cursor (after whitespace)
// without consuming it.
func (p *parser) peekWord() string {
	p.ws()
	i := p.pos
	for i < len(p.in) && isNameByte(p.in[i]) {
		i++
	}
	return p.in[p.pos:i]
}

// eatWord consumes w only when it is a whole word at the cursor.
func (p *parser) eatWord(w string) bool {
	if p.peekWord() == w {
		p.pos += len(w)
		return true
	}
	return false
}

func (p *parser) name() string {
	p.ws()
	start := p.pos
	for p.pos < len(p.in) && isNameByte(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		p.fail("expected a name")
		return "?"
	}
	return p.in[start:p.pos]
}

func (p *parser) variable() string {
	p.ws()
	if p.peekByte() != '$' {
		p.fail("expected a variable")
		return "$?"
	}
	p.pos++
	return "$" + p.name()
}

func (p *parser) stringLit() string {
	p.ws()
	quote := p.peekByte()
	if quote != '"' && quote != '\'' {
		p.fail("expected a string literal")
		return ""
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != quote {
		p.pos++
	}
	if p.pos == len(p.in) {
		p.fail("unterminated string literal")
		return ""
	}
	s := p.in[start:p.pos]
	p.pos++
	return s
}

// parseExpr parses a comma sequence.
func (p *parser) parseExpr() Query {
	q := p.parseSingle()
	for p.err == nil && p.eat(",") {
		q = Sequence{Left: q, Right: p.parseSingle()}
	}
	return q
}

func (p *parser) parseSingle() Query {
	if !p.enter() {
		return Empty{}
	}
	defer p.leave()
	p.ws()
	switch p.peekWord() {
	case "for":
		p.eatWord("for")
		v := p.variable()
		p.expectWord("in")
		in := p.parseSingle()
		p.expectWord("return")
		ret := p.parseSingle()
		return For{Var: v, In: in, Return: ret}
	case "let":
		p.eatWord("let")
		v := p.variable()
		p.expect(":=")
		bind := p.parseSingle()
		p.expectWord("return")
		ret := p.parseSingle()
		return Let{Var: v, Bind: bind, Return: ret}
	case "if":
		p.eatWord("if")
		p.expect("(")
		cond := p.parsePredicateExpr()
		p.expect(")")
		p.expectWord("then")
		then := p.parseSingle()
		var els Query = Empty{}
		if p.peekWord() == "else" {
			p.eatWord("else")
			els = p.parseSingle()
		}
		return If{Cond: cond, Then: then, Else: els}
	}
	return p.parsePath()
}

func (p *parser) expectWord(w string) {
	if !p.eatWord(w) {
		p.fail("expected keyword %q", w)
	}
}

// stepSpec is a parsed-but-not-yet-desugared path step.
type stepSpec struct {
	axis  Axis
	test  NodeTest
	preds []Query // predicate queries over context variable ctxPredVar
}

// ctxPredVar is the placeholder variable that predicate queries are
// parsed against; substituted during desugaring.
const ctxPredVar = "$%ctx"

// parsePath parses a primary expression followed by optional path
// steps and desugars the result.
func (p *parser) parsePath() Query {
	if !p.enter() {
		return Empty{}
	}
	defer p.leave()
	p.ws()
	var base Query
	switch {
	case p.hasPrefix("//"):
		p.pos += 2
		base = Var{Name: p.rootName()}
		steps := p.parseSteps(true)
		return p.desugarPath(base, steps)
	case p.peekByte() == '/':
		p.pos++
		base = Var{Name: p.rootName()}
		// Absolute path: first step is matched with self (the root
		// variable denotes the root element; see package comment).
		steps := p.parseSteps(false)
		if len(steps) > 0 && steps[0].axis == Child {
			steps[0].axis = Self
		}
		return p.desugarPath(base, steps)
	case p.peekByte() == '$':
		v := p.variable()
		base = Var{Name: v}
		return p.parseTrailingSteps(base)
	case p.peekByte() == '(':
		p.pos++
		p.ws()
		if p.peekByte() == ')' {
			p.pos++
			base = Empty{}
		} else {
			base = p.parseExpr()
			p.expect(")")
		}
		return p.parseTrailingSteps(base)
	case p.peekByte() == '"' || p.peekByte() == '\'':
		return StringLit{Value: p.stringLit()}
	case p.peekByte() == '<':
		return p.parseElement()
	case p.ctxVar != "" && (p.peekByte() == '.' || p.peekByte() == '*' || isNameByte(p.peekByte())):
		// Relative path inside a predicate: starts at the context
		// variable with a child (or explicit) step.
		base = Var{Name: p.ctxVar}
		steps := p.parseSteps(false)
		return p.desugarPath(base, steps)
	default:
		p.fail("expected an expression")
		return Empty{}
	}
}

// rootName returns the variable absolute paths hang off.
func (p *parser) rootName() string { return RootVar }

// parseTrailingSteps attaches /step... or //step... to base.
func (p *parser) parseTrailingSteps(base Query) Query {
	p.ws()
	switch {
	case p.hasPrefix("//"):
		p.pos += 2
		return p.desugarPath(base, p.parseSteps(true))
	case p.peekByte() == '/' && !p.hasPrefix("/>"):
		p.pos++
		return p.desugarPath(base, p.parseSteps(false))
	default:
		return base
	}
}

// parseSteps parses one or more steps separated by / or //;
// firstDescends marks that the step list was introduced by // (the
// preceding descendant-or-self::node() is inserted).
func (p *parser) parseSteps(firstDescends bool) []stepSpec {
	var steps []stepSpec
	if firstDescends {
		steps = append(steps, stepSpec{axis: DescendantOrSelf, test: AnyNode()})
	}
	for {
		if p.maxDepth > 0 && len(steps) >= p.maxDepth {
			// Desugaring nests one for-expression per step, so the step
			// count is nesting depth in disguise.
			p.fail("path of more than %d steps exceeds the nesting limit", p.maxDepth)
			return steps
		}
		steps = append(steps, p.parseStep())
		if p.err != nil {
			return steps
		}
		p.ws()
		if p.hasPrefix("//") {
			p.pos += 2
			steps = append(steps, stepSpec{axis: DescendantOrSelf, test: AnyNode()})
			continue
		}
		if p.peekByte() == '/' && !p.hasPrefix("/>") {
			p.pos++
			continue
		}
		return steps
	}
}

var axisByName = map[string]Axis{
	"self":               Self,
	"child":              Child,
	"descendant":         Descendant,
	"descendant-or-self": DescendantOrSelf,
	"parent":             Parent,
	"ancestor":           Ancestor,
	"ancestor-or-self":   AncestorOrSelf,
	"preceding-sibling":  PrecedingSibling,
	"following-sibling":  FollowingSibling,
}

func (p *parser) parseStep() stepSpec {
	p.ws()
	st := stepSpec{axis: Child}
	switch {
	case p.hasPrefix(".."):
		p.pos += 2
		st.axis, st.test = Parent, AnyNode()
	case p.peekByte() == '.':
		p.pos++
		st.axis, st.test = Self, AnyNode()
	case p.peekByte() == '*':
		p.pos++
		st.test = Wildcard()
	default:
		w := p.peekWord()
		if w == "" {
			p.fail("expected a path step")
			return st
		}
		if ax, ok := axisByName[w]; ok && strings.HasPrefix(p.in[p.pos+len(w):], "::") {
			p.pos += len(w) + 2
			st.axis = ax
			p.ws()
			if p.peekByte() == '*' {
				p.pos++
				st.test = Wildcard()
			} else {
				st.test = p.parseNodeTest()
			}
		} else {
			st.test = p.parseNodeTest()
		}
	}
	for p.err == nil {
		p.ws()
		if p.peekByte() != '[' {
			break
		}
		p.pos++
		saved := p.ctxVar
		p.ctxVar = ctxPredVar
		pred := p.parsePredicateExpr()
		p.ctxVar = saved
		p.expect("]")
		st.preds = append(st.preds, pred)
	}
	return st
}

func (p *parser) parseNodeTest() NodeTest {
	w := p.name()
	if p.err != nil {
		return AnyNode()
	}
	p.ws()
	if p.peekByte() == '(' {
		switch w {
		case "text":
			p.expect("(")
			p.expect(")")
			return Text()
		case "node":
			p.expect("(")
			p.expect(")")
			return AnyNode()
		default:
			p.fail("unknown node test %s()", w)
			return AnyNode()
		}
	}
	return Tag(w)
}

// desugarPath turns base/step1/.../stepn into the paper's encoding
// for $x1 in base/step1 return for $x2 in $x1/step2 return ... —
// nested for-expressions over single Step nodes.
func (p *parser) desugarPath(base Query, steps []stepSpec) Query {
	if len(steps) == 0 {
		return base
	}
	v, wrapped := p.asVar(base)
	return wrapped(p.desugarSteps(v, steps))
}

func (p *parser) desugarSteps(v string, steps []stepSpec) Query {
	st := steps[0]
	var q Query = Step{Var: v, Axis: st.axis, Test: st.test}
	for _, pred := range st.preds {
		q = p.filter(q, pred)
	}
	if len(steps) == 1 {
		return q
	}
	f := p.freshVar()
	return For{Var: f, In: q, Return: p.desugarSteps(f, steps[1:])}
}

// asVar returns a variable name denoting cur's bindings plus a
// wrapper: when cur is already a variable the wrapper is the identity,
// otherwise it builds for $fresh in cur return body.
func (p *parser) asVar(cur Query) (string, func(Query) Query) {
	if v, ok := cur.(Var); ok {
		return v.Name, func(body Query) Query { return body }
	}
	f := p.freshVar()
	return f, func(body Query) Query { return For{Var: f, In: cur, Return: body} }
}

// filter implements predicate application:
// base[pred] = for $v in base return if (pred{ctx:=$v}) then $v else ().
func (p *parser) filter(base Query, pred Query) Query {
	v := p.freshVar()
	cond := substituteVar(pred, ctxPredVar, v)
	return For{Var: v, In: base, Return: If{Cond: cond, Then: Var{Name: v}, Else: Empty{}}}
}

// parsePredicateExpr parses a predicate condition with or/and/not and
// comparisons; see ParseQuery doc for the desugaring.
func (p *parser) parsePredicateExpr() Query {
	if !p.enter() {
		return Empty{}
	}
	defer p.leave()
	q := p.parsePredicateAnd()
	for p.err == nil && p.eatWord("or") {
		// EBV(q1, q2) is true iff either is non-empty.
		q = Sequence{Left: q, Right: p.parsePredicateAnd()}
	}
	return q
}

func (p *parser) parsePredicateAnd() Query {
	q := p.parsePredicateCmp()
	for p.err == nil && p.eatWord("and") {
		// if (q1) then q2 else (): non-empty iff both are.
		q = If{Cond: q, Then: p.parsePredicateCmp(), Else: Empty{}}
	}
	return q
}

func (p *parser) parsePredicateCmp() Query {
	q := p.parsePredicateValue()
	p.ws()
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		if p.hasPrefix(op) {
			// Element constructors cannot appear here, so < is
			// unambiguous in predicate position.
			p.pos += len(op)
			rhs := p.parsePredicateValue()
			// Structural comparison: both operands are navigated,
			// result is non-empty iff both are (path extraction à la
			// the paper's rewriting).
			return If{Cond: q, Then: rhs, Else: Empty{}}
		}
	}
	return q
}

func (p *parser) parsePredicateValue() Query {
	p.ws()
	c := p.peekByte()
	switch {
	case c == '"' || c == '\'':
		return StringLit{Value: p.stringLit()}
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.in) && (p.in[p.pos] >= '0' && p.in[p.pos] <= '9' || p.in[p.pos] == '.') {
			p.pos++
		}
		return StringLit{Value: p.in[start:p.pos]}
	case p.peekWord() == "not":
		save := p.pos
		p.eatWord("not")
		p.ws()
		if p.peekByte() == '(' {
			p.pos++
			inner := p.parsePredicateExpr()
			p.expect(")")
			// Non-empty iff inner is empty.
			return If{Cond: inner, Then: Empty{}, Else: StringLit{Value: "true"}}
		}
		p.pos = save // "not" was a tag name
		return p.parsePath()
	case p.peekWord() == "for" || p.peekWord() == "let" || p.peekWord() == "if":
		// The canonical printer emits desugared predicates (nested
		// for-expressions) back into condition position, so the
		// predicate grammar accepts the three expression keywords at
		// value level — but only with their introducer ahead ($ for
		// for/let, ( for if); otherwise the word is an element tag,
		// exactly as before.
		w := p.peekWord()
		rest := strings.TrimLeft(p.in[p.pos+len(w):], " \t\n\r")
		if (w == "if" && strings.HasPrefix(rest, "(")) ||
			(w != "if" && strings.HasPrefix(rest, "$")) {
			return p.parseSingle()
		}
		return p.parsePath()
	case c == '(':
		p.pos++
		inner := p.parsePredicateExpr()
		p.expect(")")
		return inner
	default:
		return p.parsePath()
	}
}

// parseElement parses <a/>, <a>…</a> with nested constructors, raw
// text and {expr} holes.
func (p *parser) parseElement() Query {
	if !p.enter() {
		return Empty{}
	}
	defer p.leave()
	p.expect("<")
	tag := p.name()
	p.ws()
	if p.eat("/>") {
		return Element{Tag: tag, Content: Empty{}}
	}
	p.expect(">")
	var items []Query
	for p.err == nil {
		if p.hasPrefix("</") {
			break
		}
		switch {
		case p.peekByte() == '{':
			p.pos++
			items = append(items, p.parseExpr())
			p.expect("}")
		case p.peekByte() == '<':
			items = append(items, p.parseElement())
		case p.pos >= len(p.in):
			p.fail("unterminated element <%s>", tag)
		default:
			start := p.pos
			for p.pos < len(p.in) && p.in[p.pos] != '<' && p.in[p.pos] != '{' {
				p.pos++
			}
			txt := p.in[start:p.pos]
			if strings.TrimSpace(txt) != "" {
				items = append(items, StringLit{Value: strings.TrimSpace(txt)})
			}
		}
	}
	p.expect("</")
	end := p.name()
	if p.err == nil && end != tag {
		p.fail("mismatched end tag </%s> for <%s>", end, tag)
	}
	p.expect(">")
	var content Query = Empty{}
	for i := len(items) - 1; i >= 0; i-- {
		if _, ok := content.(Empty); ok {
			content = items[i]
		} else {
			content = Sequence{Left: items[i], Right: content}
		}
	}
	return Element{Tag: tag, Content: content}
}

// parseUpdate parses the update grammar.
func (p *parser) parseUpdate() Update {
	u := p.parseUpdateSingle()
	for p.err == nil && p.eat(",") {
		u = USeq{Left: u, Right: p.parseUpdateSingle()}
	}
	return u
}

func (p *parser) parseUpdateSingle() Update {
	if !p.enter() {
		return UEmpty{}
	}
	defer p.leave()
	p.ws()
	switch p.peekWord() {
	case "for":
		p.eatWord("for")
		v := p.variable()
		p.expectWord("in")
		in := p.parseSingle()
		p.expectWord("return")
		body := p.parseUpdateSingle()
		return UFor{Var: v, In: in, Body: body}
	case "let":
		p.eatWord("let")
		v := p.variable()
		p.expect(":=")
		bind := p.parseSingle()
		p.expectWord("return")
		body := p.parseUpdateSingle()
		return ULet{Var: v, Bind: bind, Body: body}
	case "if":
		p.eatWord("if")
		p.expect("(")
		cond := p.parsePredicateExpr()
		p.expect(")")
		p.expectWord("then")
		then := p.parseUpdateSingle()
		var els Update = UEmpty{}
		if p.peekWord() == "else" {
			p.eatWord("else")
			els = p.parseUpdateSingle()
		}
		return UIf{Cond: cond, Then: then, Else: els}
	case "delete":
		p.eatWord("delete")
		p.eatWord("node")
		p.eatWord("nodes")
		return Delete{Target: p.parseSingle()}
	case "rename":
		p.eatWord("rename")
		p.eatWord("node")
		target := p.parseSingle()
		p.expectWord("as")
		return Rename{Target: target, As: p.name()}
	case "replace":
		p.eatWord("replace")
		p.eatWord("node")
		target := p.parseSingle()
		p.expectWord("with")
		return Replace{Target: target, Source: p.parseSingle()}
	case "insert":
		p.eatWord("insert")
		p.eatWord("node")
		p.eatWord("nodes")
		src := p.parseSingle()
		pos := Into
		switch {
		case p.eatWord("into"):
			pos = Into
		case p.eatWord("as"):
			switch {
			case p.eatWord("first"):
				pos = IntoFirst
			case p.eatWord("last"):
				pos = IntoLast
			default:
				p.fail("expected first or last")
			}
			p.expectWord("into")
		case p.eatWord("before"):
			pos = Before
		case p.eatWord("after"):
			pos = After
		default:
			p.fail("expected into/before/after")
		}
		return Insert{Source: src, Pos: pos, Target: p.parseSingle()}
	case "":
		p.ws()
		if p.peekByte() == '(' {
			p.pos++
			p.ws()
			if p.peekByte() == ')' {
				p.pos++
				return UEmpty{}
			}
			u := p.parseUpdate()
			p.expect(")")
			return u
		}
	}
	p.fail("expected an update expression")
	return UEmpty{}
}

// substituteVar replaces free occurrences of variable from with to.
func substituteVar(q Query, from, to string) Query {
	switch n := q.(type) {
	case Empty, StringLit:
		return q
	case Var:
		if n.Name == from {
			return Var{Name: to}
		}
		return q
	case Step:
		if n.Var == from {
			return Step{Var: to, Axis: n.Axis, Test: n.Test}
		}
		return q
	case Sequence:
		return Sequence{Left: substituteVar(n.Left, from, to), Right: substituteVar(n.Right, from, to)}
	case Element:
		return Element{Tag: n.Tag, Content: substituteVar(n.Content, from, to)}
	case For:
		in := substituteVar(n.In, from, to)
		if n.Var == from {
			return For{Var: n.Var, In: in, Return: n.Return}
		}
		return For{Var: n.Var, In: in, Return: substituteVar(n.Return, from, to)}
	case Let:
		bind := substituteVar(n.Bind, from, to)
		if n.Var == from {
			return Let{Var: n.Var, Bind: bind, Return: n.Return}
		}
		return Let{Var: n.Var, Bind: bind, Return: substituteVar(n.Return, from, to)}
	case If:
		return If{
			Cond: substituteVar(n.Cond, from, to),
			Then: substituteVar(n.Then, from, to),
			Else: substituteVar(n.Else, from, to),
		}
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("xquery: substituteVar: unknown node %T", q)})
	}
}
