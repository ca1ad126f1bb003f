// Package xquery defines the abstract syntax of the paper's XQuery
// fragment and XQuery Update Facility fragment (Section 2), together
// with a parser that desugars XPath path expressions into the core
// grammar (nested for-expressions over single steps), exactly as the
// paper prescribes.
//
// Core query grammar:
//
//	q ::= () | q,q | <a>q</a> | "s" | $x/step
//	    | for $x in q return q | let $x := q return q
//	    | if q then q else q
//
// Core update grammar:
//
//	u ::= () | u,u | for $x in q return u | let $x := q return u
//	    | if q then u else u
//	    | delete q | rename q as a | insert q pos q | replace q with q
//
// After parsing, every path expression has been decomposed: the only
// navigation construct is Step (one axis and node test applied to a
// variable).
//
// Normalize un-nests for-expressions. The fingerprints (fingerprint.go)
// digest a normalized AST for the plan cache without printing it; the
// canonical printer (print.go) is the oracle they are tested against.
package xquery

import (
	"fmt"

	"xqindep/internal/guard"
)

// RootVar is the reserved name of the single free variable of
// quasi-closed queries and updates, bound to the root of the input
// document (the paper's x with γ = {x ↦ lt}).
const RootVar = "$root"

// Axis enumerates the XPath axes of the fragment.
type Axis int

const (
	Self Axis = iota
	Child
	Descendant
	DescendantOrSelf
	Parent
	Ancestor
	AncestorOrSelf
	PrecedingSibling
	FollowingSibling
)

var axisNames = map[Axis]string{
	Self:             "self",
	Child:            "child",
	Descendant:       "descendant",
	DescendantOrSelf: "descendant-or-self",
	Parent:           "parent",
	Ancestor:         "ancestor",
	AncestorOrSelf:   "ancestor-or-self",
	PrecedingSibling: "preceding-sibling",
	FollowingSibling: "following-sibling",
}

func (a Axis) String() string { return axisNames[a] }

// IsRecursive reports whether the axis can traverse unboundedly many
// schema levels; this drives the R() component of the multiplicity
// analysis (Table 3).
func (a Axis) IsRecursive() bool {
	switch a {
	case Descendant, DescendantOrSelf, Ancestor, AncestorOrSelf:
		return true
	}
	return false
}

// IsForward reports membership in the (STEPF) axis set
// {self, child, descendant-or-self}; the remaining axes are handled by
// rule (STEPUH).
func (a Axis) IsForward() bool {
	switch a {
	case Self, Child, DescendantOrSelf:
		return true
	}
	return false
}

// TestKind discriminates node tests φ.
type TestKind int

const (
	// TagTest matches elements with a given tag (φ = a).
	TagTest TestKind = iota
	// TextTest matches text nodes (φ = text()).
	TextTest
	// NodeAny matches every node (φ = node()).
	NodeAny
	// WildcardTest matches every element node (φ = *).
	WildcardTest
)

// NodeTest is a node test φ.
type NodeTest struct {
	Kind TestKind
	Tag  string // TagTest only
}

func (t NodeTest) String() string {
	switch t.Kind {
	case TagTest:
		return t.Tag
	case TextTest:
		return "text()"
	case NodeAny:
		return "node()"
	case WildcardTest:
		return "*"
	}
	return "?"
}

// Tag builds a tag test.
func Tag(name string) NodeTest { return NodeTest{Kind: TagTest, Tag: name} }

// Text builds text().
func Text() NodeTest { return NodeTest{Kind: TextTest} }

// AnyNode builds node().
func AnyNode() NodeTest { return NodeTest{Kind: NodeAny} }

// Wildcard builds *.
func Wildcard() NodeTest { return NodeTest{Kind: WildcardTest} }

// Query is the interface of query AST nodes.
type Query interface {
	fmt.Stringer
	isQuery()
}

// Empty is the empty sequence ().
type Empty struct{}

// Sequence is q1, q2.
type Sequence struct{ Left, Right Query }

// StringLit is the constant string query "s".
type StringLit struct{ Value string }

// Var references a bound variable $x; it abbreviates $x/self::node()
// in the formal grammar but is kept distinct for readability and is
// treated as such by inference and evaluation.
type Var struct{ Name string }

// Step is the single-step path $x/axis::φ.
type Step struct {
	Var  string
	Axis Axis
	Test NodeTest
}

// Element is the constructor <a>q</a>.
type Element struct {
	Tag     string
	Content Query
}

// For is for $x in In return Return.
type For struct {
	Var    string
	In     Query
	Return Query
}

// Let is let $x := Bind return Return.
type Let struct {
	Var    string
	Bind   Query
	Return Query
}

// If is if Cond then Then else Else.
type If struct {
	Cond, Then, Else Query
}

func (Empty) isQuery()     {}
func (Sequence) isQuery()  {}
func (StringLit) isQuery() {}
func (Var) isQuery()       {}
func (Step) isQuery()      {}
func (Element) isQuery()   {}
func (For) isQuery()       {}
func (Let) isQuery()       {}
func (If) isQuery()        {}

func (Empty) String() string       { return "()" }
func (q Sequence) String() string  { return "(" + q.Left.String() + ", " + q.Right.String() + ")" }
func (q StringLit) String() string { return fmt.Sprintf("%q", q.Value) }
func (q Var) String() string       { return q.Name }
func (q Step) String() string {
	return fmt.Sprintf("%s/%s::%s", q.Var, q.Axis, q.Test)
}
func (q Element) String() string {
	if _, ok := q.Content.(Empty); ok {
		return "<" + q.Tag + "/>"
	}
	return "<" + q.Tag + ">{" + q.Content.String() + "}</" + q.Tag + ">"
}
func (q For) String() string {
	return fmt.Sprintf("for %s in %s return %s", q.Var, q.In, q.Return)
}
func (q Let) String() string {
	return fmt.Sprintf("let %s := %s return %s", q.Var, q.Bind, q.Return)
}
func (q If) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", q.Cond, q.Then, q.Else)
}

// Update is the interface of update AST nodes.
type Update interface {
	fmt.Stringer
	isUpdate()
}

// UEmpty is the empty update ().
type UEmpty struct{}

// USeq is u1, u2.
type USeq struct{ Left, Right Update }

// UFor is for $x in In return Body.
type UFor struct {
	Var  string
	In   Query
	Body Update
}

// ULet is let $x := Bind return Body.
type ULet struct {
	Var  string
	Bind Query
	Body Update
}

// UIf is if Cond then Then else Else.
type UIf struct {
	Cond       Query
	Then, Else Update
}

// InsertPos is the position designator of insert updates.
type InsertPos int

const (
	// Into inserts among the target's children at an arbitrary
	// position (the implementation appends, as permitted by W3C).
	Into InsertPos = iota
	// IntoFirst inserts as first child of the target.
	IntoFirst
	// IntoLast inserts as last child of the target.
	IntoLast
	// Before inserts as preceding sibling of the target.
	Before
	// After inserts as following sibling of the target.
	After
)

func (p InsertPos) String() string {
	switch p {
	case Into:
		return "into"
	case IntoFirst:
		return "as first into"
	case IntoLast:
		return "as last into"
	case Before:
		return "before"
	case After:
		return "after"
	}
	return "?"
}

// IsInto reports whether p inserts below the target node (into / as
// first / as last) rather than beside it.
func (p InsertPos) IsInto() bool { return p == Into || p == IntoFirst || p == IntoLast }

// Delete is delete q0.
type Delete struct{ Target Query }

// Rename is rename q0 as a.
type Rename struct {
	Target Query
	As     string
}

// Insert is insert q pos q0.
type Insert struct {
	Source Query
	Pos    InsertPos
	Target Query
}

// Replace is replace q0 with q.
type Replace struct {
	Target Query
	Source Query
}

func (UEmpty) isUpdate()  {}
func (USeq) isUpdate()    {}
func (UFor) isUpdate()    {}
func (ULet) isUpdate()    {}
func (UIf) isUpdate()     {}
func (Delete) isUpdate()  {}
func (Rename) isUpdate()  {}
func (Insert) isUpdate()  {}
func (Replace) isUpdate() {}

func (UEmpty) String() string   { return "()" }
func (u USeq) String() string   { return "(" + u.Left.String() + ", " + u.Right.String() + ")" }
func (u UFor) String() string   { return fmt.Sprintf("for %s in %s return %s", u.Var, u.In, u.Body) }
func (u ULet) String() string   { return fmt.Sprintf("let %s := %s return %s", u.Var, u.Bind, u.Body) }
func (u UIf) String() string    { return fmt.Sprintf("if (%s) then %s else %s", u.Cond, u.Then, u.Else) }
func (u Delete) String() string { return "delete " + u.Target.String() }
func (u Rename) String() string { return fmt.Sprintf("rename %s as %s", u.Target, u.As) }
func (u Insert) String() string { return fmt.Sprintf("insert %s %s %s", u.Source, u.Pos, u.Target) }
func (u Replace) String() string {
	return fmt.Sprintf("replace %s with %s", u.Target, u.Source)
}

// FreeQueryVars collects the free variables of q into out.
func FreeQueryVars(q Query, out map[string]bool) {
	switch n := q.(type) {
	case Empty, StringLit:
	case Var:
		out[n.Name] = true
	case Step:
		out[n.Var] = true
	case Sequence:
		FreeQueryVars(n.Left, out)
		FreeQueryVars(n.Right, out)
	case Element:
		FreeQueryVars(n.Content, out)
	case For:
		FreeQueryVars(n.In, out)
		inner := make(map[string]bool)
		FreeQueryVars(n.Return, inner)
		delete(inner, n.Var)
		for v := range inner {
			out[v] = true
		}
	case Let:
		FreeQueryVars(n.Bind, out)
		inner := make(map[string]bool)
		FreeQueryVars(n.Return, inner)
		delete(inner, n.Var)
		for v := range inner {
			out[v] = true
		}
	case If:
		FreeQueryVars(n.Cond, out)
		FreeQueryVars(n.Then, out)
		FreeQueryVars(n.Else, out)
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("xquery: unknown query node %T", q)})
	}
}

// FreeUpdateVars collects the free variables of u into out.
func FreeUpdateVars(u Update, out map[string]bool) {
	switch n := u.(type) {
	case UEmpty:
	case USeq:
		FreeUpdateVars(n.Left, out)
		FreeUpdateVars(n.Right, out)
	case UFor:
		FreeQueryVars(n.In, out)
		inner := make(map[string]bool)
		FreeUpdateVars(n.Body, inner)
		delete(inner, n.Var)
		for v := range inner {
			out[v] = true
		}
	case ULet:
		FreeQueryVars(n.Bind, out)
		inner := make(map[string]bool)
		FreeUpdateVars(n.Body, inner)
		delete(inner, n.Var)
		for v := range inner {
			out[v] = true
		}
	case UIf:
		FreeQueryVars(n.Cond, out)
		FreeUpdateVars(n.Then, out)
		FreeUpdateVars(n.Else, out)
	case Delete:
		FreeQueryVars(n.Target, out)
	case Rename:
		FreeQueryVars(n.Target, out)
	case Insert:
		FreeQueryVars(n.Source, out)
		FreeQueryVars(n.Target, out)
	case Replace:
		FreeQueryVars(n.Target, out)
		FreeQueryVars(n.Source, out)
	default:
		panic(&guard.InternalError{Value: fmt.Sprintf("xquery: unknown update node %T", u)})
	}
}

// QuasiClosedQuery reports whether q's only free variable is RootVar
// (or none at all) — the form the analyzer accepts.
func QuasiClosedQuery(q Query) bool {
	free := make(map[string]bool)
	FreeQueryVars(q, free)
	delete(free, RootVar)
	return len(free) == 0
}

// QuasiClosedUpdate reports whether u's only free variable is RootVar.
func QuasiClosedUpdate(u Update) bool {
	free := make(map[string]bool)
	FreeUpdateVars(u, free)
	delete(free, RootVar)
	return len(free) == 0
}

// Size returns the number of AST nodes of q — the |exp| of the
// complexity statements (Theorem 6.1).
func Size(q Query) int {
	n := 0
	walkQuery(q, func(Query) { n++ })
	return n
}

// UpdateSize returns the number of AST nodes of u, counting embedded
// queries.
func UpdateSize(u Update) int {
	n := 0
	walkUpdate(u, func(Update) { n++ }, func(Query) { n++ })
	return n
}

func walkQuery(q Query, f func(Query)) {
	f(q)
	switch n := q.(type) {
	case Sequence:
		walkQuery(n.Left, f)
		walkQuery(n.Right, f)
	case Element:
		walkQuery(n.Content, f)
	case For:
		walkQuery(n.In, f)
		walkQuery(n.Return, f)
	case Let:
		walkQuery(n.Bind, f)
		walkQuery(n.Return, f)
	case If:
		walkQuery(n.Cond, f)
		walkQuery(n.Then, f)
		walkQuery(n.Else, f)
	}
}

func walkUpdate(u Update, fu func(Update), fq func(Query)) {
	fu(u)
	switch n := u.(type) {
	case USeq:
		walkUpdate(n.Left, fu, fq)
		walkUpdate(n.Right, fu, fq)
	case UFor:
		walkQuery(n.In, fq)
		walkUpdate(n.Body, fu, fq)
	case ULet:
		walkQuery(n.Bind, fq)
		walkUpdate(n.Body, fu, fq)
	case UIf:
		walkQuery(n.Cond, fq)
		walkUpdate(n.Then, fu, fq)
		walkUpdate(n.Else, fu, fq)
	case Delete:
		walkQuery(n.Target, fq)
	case Rename:
		walkQuery(n.Target, fq)
	case Insert:
		walkQuery(n.Source, fq)
		walkQuery(n.Target, fq)
	case Replace:
		walkQuery(n.Target, fq)
		walkQuery(n.Source, fq)
	}
}

// UsesElementInForLet reports whether an element constructor occurs in
// the left-hand side (binding) expression of a for/let — the syntactic
// restriction the paper imposes (Section 2). The parser rejects such
// inputs; this predicate lets other layers re-check invariants.
func UsesElementInForLet(q Query) bool {
	bad := false
	var inBind func(Query)
	inBind = func(x Query) {
		walkQuery(x, func(y Query) {
			if _, ok := y.(Element); ok {
				bad = true
			}
		})
	}
	walkQuery(q, func(x Query) {
		switch n := x.(type) {
		case For:
			inBind(n.In)
		case Let:
			inBind(n.Bind)
		}
	})
	return bad
}
