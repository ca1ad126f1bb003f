// Package dtd implements the schema substrate of the paper: DTDs
// (Σ, sd, d) whose content models are regular expressions over
// Σ ∪ {S} (S is the string type), validation of xmltree documents,
// the reachability relation α ⇒d β and the sibling-order relation
// α <r β used by chain inference, recursion analysis, random valid
// document generation, and Extended DTDs (Definition 7.1).
package dtd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xqindep/internal/guard"
)

// StringType is the reserved symbol S denoting the string (text)
// type. Element types may not use this name.
const StringType = "S"

// Op enumerates regular-expression constructors.
type Op int

const (
	// OpEpsilon matches the empty word. The empty regular
	// expression д(S) = ε is represented this way.
	OpEpsilon Op = iota
	// OpSym matches exactly one occurrence of Sym.
	OpSym
	// OpSeq matches the concatenation of Kids.
	OpSeq
	// OpAlt matches any one of Kids.
	OpAlt
	// OpStar matches zero or more repetitions of Kids[0].
	OpStar
	// OpPlus matches one or more repetitions of Kids[0].
	OpPlus
	// OpOpt matches zero or one occurrence of Kids[0].
	OpOpt
)

// Regex is a content-model regular expression over Σ ∪ {S}.
// Regexes are immutable after construction.
type Regex struct {
	Op   Op
	Sym  string   // OpSym only
	Kids []*Regex // OpSeq/OpAlt: 2+; OpStar/OpPlus/OpOpt: 1
}

// Epsilon returns the empty-word expression.
func Epsilon() *Regex { return &Regex{Op: OpEpsilon} }

// Sym returns the single-symbol expression.
func Sym(s string) *Regex { return &Regex{Op: OpSym, Sym: s} }

// Seq returns the concatenation of rs, flattening trivial cases.
func Seq(rs ...*Regex) *Regex {
	switch len(rs) {
	case 0:
		return Epsilon()
	case 1:
		return rs[0]
	}
	return &Regex{Op: OpSeq, Kids: rs}
}

// Alt returns the alternation of rs, flattening trivial cases.
func Alt(rs ...*Regex) *Regex {
	switch len(rs) {
	case 0:
		return Epsilon()
	case 1:
		return rs[0]
	}
	return &Regex{Op: OpAlt, Kids: rs}
}

// Star returns r*.
func Star(r *Regex) *Regex { return &Regex{Op: OpStar, Kids: []*Regex{r}} }

// Plus returns r+.
func Plus(r *Regex) *Regex { return &Regex{Op: OpPlus, Kids: []*Regex{r}} }

// Opt returns r?.
func Opt(r *Regex) *Regex { return &Regex{Op: OpOpt, Kids: []*Regex{r}} }

// Validate checks that r is structurally well formed: every node has a
// known Op and the child count the Op demands. DTD constructors run it
// on every content model so the traversal helpers below can assume a
// valid tree and degrade conservatively (instead of panicking) if one
// is mutated behind their back.
func (r *Regex) Validate() error {
	if r == nil {
		return fmt.Errorf("dtd: nil regex")
	}
	switch r.Op {
	case OpEpsilon:
		if len(r.Kids) != 0 {
			return fmt.Errorf("dtd: epsilon regex with %d children", len(r.Kids))
		}
	case OpSym:
		if r.Sym == "" {
			return fmt.Errorf("dtd: symbol regex with empty symbol")
		}
		if len(r.Kids) != 0 {
			return fmt.Errorf("dtd: symbol regex with %d children", len(r.Kids))
		}
	case OpSeq, OpAlt:
		if len(r.Kids) < 2 {
			return fmt.Errorf("dtd: %d-ary sequence/alternation", len(r.Kids))
		}
	case OpStar, OpPlus, OpOpt:
		if len(r.Kids) != 1 {
			return fmt.Errorf("dtd: postfix regex with %d children", len(r.Kids))
		}
	default:
		return fmt.Errorf("dtd: unknown regex op %d", int(r.Op))
	}
	for _, k := range r.Kids {
		if err := k.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Symbols appends every symbol syntactically occurring in r to set.
// Since the grammar has no empty-language constructor, every such
// symbol occurs in some word of L(r).
func (r *Regex) Symbols(set map[string]bool) {
	switch r.Op {
	case OpSym:
		set[r.Sym] = true
	case OpSeq, OpAlt, OpStar, OpPlus, OpOpt:
		for _, k := range r.Kids {
			k.Symbols(set)
		}
	}
}

// SymbolList returns the symbols of r in sorted order.
func (r *Regex) SymbolList() []string {
	set := make(map[string]bool)
	r.Symbols(set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// String renders r in the compact DTD notation used throughout the
// paper: sequence with ",", alternation with "|", postfix * + ?.
func (r *Regex) String() string {
	var b strings.Builder
	r.format(&b, 0)
	return b.String()
}

// precedence levels: 0 alt, 1 seq, 2 postfix/atom
func (r *Regex) format(b *strings.Builder, prec int) {
	wrap := func(p int, f func()) {
		if prec > p {
			b.WriteByte('(')
			f()
			b.WriteByte(')')
		} else {
			f()
		}
	}
	switch r.Op {
	case OpEpsilon:
		b.WriteString("()")
	case OpSym:
		if r.Sym == StringType {
			b.WriteString("#PCDATA")
		} else {
			b.WriteString(r.Sym)
		}
	case OpSeq:
		wrap(1, func() {
			for i, k := range r.Kids {
				if i > 0 {
					b.WriteString(", ")
				}
				k.format(b, 2)
			}
		})
	case OpAlt:
		wrap(0, func() {
			for i, k := range r.Kids {
				if i > 0 {
					b.WriteString(" | ")
				}
				k.format(b, 1)
			}
		})
	case OpStar, OpPlus, OpOpt:
		k := r.Kids[0]
		if k.Op == OpSym || k.Op == OpEpsilon {
			k.format(b, 2)
		} else {
			b.WriteByte('(')
			k.format(b, 0)
			b.WriteByte(')')
		}
		switch r.Op {
		case OpStar:
			b.WriteByte('*')
		case OpPlus:
			b.WriteByte('+')
		case OpOpt:
			b.WriteByte('?')
		}
	default:
		fmt.Fprintf(b, "<bad op %d>", int(r.Op))
	}
}

// nfa is a Thompson construction of a Regex, used for word matching.
// State 0 is the start state; accept is the single accepting state.
type nfa struct {
	// eps[s] lists ε-successors of s; sym[s] is the symbol transition
	// (at most one per state in Thompson form).
	eps    [][]int
	symTo  []int
	symLbl []string
	accept int
}

func (n *nfa) addState() int {
	n.eps = append(n.eps, nil)
	n.symTo = append(n.symTo, -1)
	n.symLbl = append(n.symLbl, "")
	return len(n.eps) - 1
}

func (n *nfa) addEps(from, to int) { n.eps[from] = append(n.eps[from], to) }
func (n *nfa) addSym(from int, s string, to int) {
	n.symTo[from] = to
	n.symLbl[from] = s
}

// compile builds states for r between fresh start/end states and
// returns (start, end).
func (n *nfa) compile(r *Regex) (int, int) {
	switch r.Op {
	case OpEpsilon:
		s := n.addState()
		e := n.addState()
		n.addEps(s, e)
		return s, e
	case OpSym:
		s := n.addState()
		e := n.addState()
		n.addSym(s, r.Sym, e)
		return s, e
	case OpSeq:
		s, e := n.compile(r.Kids[0])
		for _, k := range r.Kids[1:] {
			s2, e2 := n.compile(k)
			n.addEps(e, s2)
			e = e2
		}
		return s, e
	case OpAlt:
		s := n.addState()
		e := n.addState()
		for _, k := range r.Kids {
			ks, ke := n.compile(k)
			n.addEps(s, ks)
			n.addEps(ke, e)
		}
		return s, e
	case OpStar, OpPlus, OpOpt:
		s := n.addState()
		e := n.addState()
		ks, ke := n.compile(r.Kids[0])
		n.addEps(s, ks)
		n.addEps(ke, e)
		if r.Op != OpPlus {
			n.addEps(s, e)
		}
		if r.Op != OpOpt {
			n.addEps(ke, ks)
		}
		return s, e
	}
	// Invalid op: compile to the empty-language fragment (no path from
	// start to end), so no word validates against a corrupted model.
	return n.addState(), n.addState()
}

func compileNFA(r *Regex) *nfa {
	n := &nfa{}
	s, e := n.compile(r)
	if s != 0 {
		// compile always allocates the start state first
		panic(&guard.InternalError{Value: "dtd: unexpected start state"})
	}
	n.accept = e
	return n
}

func (n *nfa) closure(set map[int]bool) {
	var stack []int
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
}

// matchWord reports whether the symbol word w is in L(r) for the NFA.
// member, when non-nil, generalises symbols to symbol sets: position i
// of the word may be read as any symbol σ with member(i, σ); this is
// used for EDTD validation where a child label admits several types.
func (n *nfa) matchWord(w int, symAt func(i int, sym string) bool) bool {
	cur := map[int]bool{0: true}
	n.closure(cur)
	for i := 0; i < w; i++ {
		next := make(map[int]bool)
		for s := range cur {
			if n.symTo[s] >= 0 && symAt(i, n.symLbl[s]) {
				next[n.symTo[s]] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		n.closure(next)
		cur = next
	}
	return cur[n.accept]
}

// Matches reports whether the word w belongs to L(r).
func (r *Regex) Matches(w []string) bool {
	n := compileNFA(r)
	return n.matchWord(len(w), func(i int, sym string) bool { return w[i] == sym })
}

// Precedes computes the paper's relation <r: the set of ordered pairs
// (α, β) such that some word of L(r) contains an occurrence of α
// strictly before an occurrence of β. The result maps α to the set of
// such β.
func (r *Regex) Precedes() map[string]map[string]bool {
	pairs := make(map[string]map[string]bool)
	add := func(a, b string) {
		m := pairs[a]
		if m == nil {
			m = make(map[string]bool)
			pairs[a] = m
		}
		m[b] = true
	}
	var walk func(r *Regex) map[string]bool // returns Occ(r)
	walk = func(r *Regex) map[string]bool {
		switch r.Op {
		case OpEpsilon:
			return nil
		case OpSym:
			return map[string]bool{r.Sym: true}
		case OpSeq:
			occ := make(map[string]bool)
			for _, k := range r.Kids {
				ko := walk(k)
				for a := range occ {
					for b := range ko {
						add(a, b)
					}
				}
				for b := range ko {
					occ[b] = true
				}
			}
			return occ
		case OpAlt:
			occ := make(map[string]bool)
			for _, k := range r.Kids {
				for b := range walk(k) {
					occ[b] = true
				}
			}
			return occ
		case OpStar, OpPlus:
			occ := walk(r.Kids[0])
			for a := range occ {
				for b := range occ {
					add(a, b)
				}
			}
			return occ
		case OpOpt:
			return walk(r.Kids[0])
		}
		return nil // invalid op: no occurrences, no order pairs
	}
	walk(r)
	return pairs
}

// Sample draws a uniform-ish random word from L(r). Repetition counts
// for * and + follow a geometric distribution with the given
// continuation probability pRepeat in [0,1). When allow is non-nil, a
// symbol σ may only be emitted if allow(σ) is true; Sample then picks
// among permitted alternatives and repeats zero times when the body
// contains forbidden mandatory symbols — callers must ensure a
// permitted word exists (see DTD.GenerateTree).
func (r *Regex) Sample(rng *rand.Rand, pRepeat float64, allow func(string) bool) []string {
	var out []string
	var emit func(r *Regex)
	mandatoryAllowed := func(r *Regex) bool {
		return allow == nil || regexSatisfiable(r, allow)
	}
	emit = func(r *Regex) {
		switch r.Op {
		case OpEpsilon:
		case OpSym:
			out = append(out, r.Sym)
		case OpSeq:
			for _, k := range r.Kids {
				emit(k)
			}
		case OpAlt:
			var ok []*Regex
			for _, k := range r.Kids {
				if mandatoryAllowed(k) {
					ok = append(ok, k)
				}
			}
			if len(ok) == 0 {
				ok = r.Kids // caller guaranteed satisfiability; fall back
			}
			emit(ok[rng.Intn(len(ok))])
		case OpStar:
			for mandatoryAllowed(r.Kids[0]) && rng.Float64() < pRepeat {
				emit(r.Kids[0])
			}
		case OpPlus:
			emit(r.Kids[0])
			for mandatoryAllowed(r.Kids[0]) && rng.Float64() < pRepeat {
				emit(r.Kids[0])
			}
		case OpOpt:
			if mandatoryAllowed(r.Kids[0]) && rng.Float64() < 0.5 {
				emit(r.Kids[0])
			}
		}
	}
	emit(r)
	return out
}

// regexSatisfiable reports whether L(r) contains a word composed only
// of allowed symbols.
func regexSatisfiable(r *Regex, allow func(string) bool) bool {
	switch r.Op {
	case OpEpsilon:
		return true
	case OpSym:
		return allow(r.Sym)
	case OpSeq:
		for _, k := range r.Kids {
			if !regexSatisfiable(k, allow) {
				return false
			}
		}
		return true
	case OpAlt:
		for _, k := range r.Kids {
			if regexSatisfiable(k, allow) {
				return true
			}
		}
		return false
	case OpStar, OpOpt:
		return true
	case OpPlus:
		return regexSatisfiable(r.Kids[0], allow)
	}
	return false // invalid op: nothing can be emitted from it
}
