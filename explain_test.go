package xqindep

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"xqindep/internal/dtd"
	"xqindep/internal/infer"
	"xqindep/internal/xmark"
)

// explainDeadline bounds one ExplainChains or Commute call in these
// tests. The dense engine explains any XMark pair in milliseconds; the
// explicit-set engine, unbudgeted, does not finish q1 × UB7 within it
// and grows past 2 GiB on the way.
const explainDeadline = 10 * time.Second

// within runs f and fails the test when it does not return in time.
// On a miss the goroutine is abandoned along with the test.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(explainDeadline):
		t.Fatalf("%s did not finish within %v", what, explainDeadline)
	}
}

func explainWithin(t *testing.T, s *Schema, q *Query, u *Update) ChainEvidence {
	t.Helper()
	var (
		ev  ChainEvidence
		err error
	)
	within(t, "ExplainChains("+q.String()+", "+u.String()+")", func() { ev, err = s.ExplainChains(q, u) })
	if err != nil {
		t.Fatalf("ExplainChains(%s, %s): %v", q, u, err)
	}
	return ev
}

// TestExplainChainsAllXMarkPairs explains every XMark pair under a
// deadline and checks that the evidence matches the served verdict's
// k and stays in C^k_d: every return and used chain is a path of ⇒d
// from the start symbol, and no listed chain repeats a symbol other
// than the string type more than k times.
func TestExplainChainsAllXMarkPairs(t *testing.T) {
	s, err := ParseSchema(xmark.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	d := s.DTD()
	for _, xu := range xmark.Updates() {
		u := MustParseUpdate(xu.Text)
		t.Run(xu.Name, func(t *testing.T) {
			t.Parallel()
			for _, xv := range xmark.Views() {
				q := MustParseQuery(xv.Text)
				ev := explainWithin(t, s, q, u)
				rep, err := s.Analyze(q, u, Chains)
				if err != nil {
					t.Fatalf("%s: Analyze: %v", xv.Name, err)
				}
				if ev.K != rep.K {
					t.Errorf("%s: evidence k = %d, verdict k = %d", xv.Name, ev.K, rep.K)
				}
				lists := map[string][]string{"return": ev.Return, "used": ev.Used, "element": ev.Element, "update": ev.Update}
				for name, list := range lists {
					if len(list) > explainCap {
						t.Errorf("%s: %d %s chains, cap %d", xv.Name, len(list), name, explainCap)
					}
					for _, c := range list {
						if sym, n := mostRepeated(c); n > ev.K {
							t.Errorf("%s: %s chain %s repeats %s %d times, k = %d", xv.Name, name, c, sym, n, ev.K)
						}
						if (name == "return" || name == "used") && !followsSchema(d, c) {
							t.Errorf("%s: %s chain %s is not a chain of the schema", xv.Name, name, c)
						}
					}
				}
			}
		})
	}
}

// mostRepeated returns the symbol other than the string type that
// occurs most often in the dotted chain c, and its count.
func mostRepeated(c string) (string, int) {
	counts := map[string]int{}
	best, most := "", 0
	for _, sym := range strings.Split(c, ".") {
		if sym == dtd.StringType {
			continue
		}
		counts[sym]++
		if counts[sym] > most {
			best, most = sym, counts[sym]
		}
	}
	return best, most
}

// followsSchema reports whether the dotted chain c starts at the start
// symbol and steps along ⇒d.
func followsSchema(d *dtd.DTD, c string) bool {
	syms := strings.Split(c, ".")
	if syms[0] != d.Start {
		return false
	}
	for i := 1; i < len(syms); i++ {
		if !d.Reaches(syms[i-1], syms[i]) {
			return false
		}
	}
	return true
}

// TestExplainChainsMatchesExplicitEngine holds the dense evidence to
// the explicit-set engine, the reference implementation, on non-recursive
// schemas with every update kind and on XMark deletes the explicit
// engine finishes quickly. Return and element chains must be equal;
// update chains equal the explicit engine's c:c' chains read whole,
// c.c'.
// Used chains are left out: the engines record predicate and upward
// step inspection at different granularity, both soundly (see
// cdag's TestStepOverDAGMatchesSetEngine).
func TestExplainChainsMatchesExplicitEngine(t *testing.T) {
	figure1 := "doc <- (a | b)*\na <- c\nb <- c\nc <- ()"
	battery := []struct {
		schema           string
		queries, updates []string
	}{
		{bibSchema, []string{
			"//title",
			"//author/first",
			"for $b in //book return if ($b/author) then $b/title else ()",
			"<list>{//book/title}</list>",
			"for $a in //author return <who>{($a/last, <n/>)}</who>",
		}, []string{
			"delete //price",
			"for $x in //author return rename $x as writer",
			"for $x in //book return insert <author><first>U</first></author> into $x",
			"for $x in //book return insert $x/title before $x/price",
			"for $x in //book return insert <price>9</price> after $x/title",
			"for $x in //author return replace $x/email with <email>e</email>",
			"for $x in //book return replace $x/price with $x/title",
			"insert <book><title>T</title></book> into /bib",
		}},
		{figure1, []string{
			"//a//c",
			"//c",
			"/doc",
			"for $x in //node() return if ($x/c) then $x else ()",
			"<w>{//a}</w>",
		}, []string{
			"delete //b//c",
			"rename /doc/b as a",
			"insert <a><c/></a> into /doc",
			"insert //b before //a",
			"insert //b/c after //a/c",
			"replace //b with <a><c/></a>",
			"for $x in //b return replace $x/c with $x/c",
		}},
		{xmark.SchemaText, []string{
			"/site/people/person/name",
			"/site/closed_auctions/closed_auction/price",
			"/site/open_auctions/open_auction/current",
		}, []string{
			"delete /site/regions/africa/item",
			"delete /site/open_auctions/open_auction/bidder",
			"delete /site/people/person/emailaddress",
		}},
	}
	for _, b := range battery {
		s := MustParseSchema(b.schema)
		for _, qt := range b.queries {
			for _, ut := range b.updates {
				q, u := MustParseQuery(qt), MustParseUpdate(ut)
				ev := explainWithin(t, s, q, u)
				if ev.Truncated {
					t.Errorf("%s × %s: truncated", qt, ut)
					continue
				}
				in := infer.New(s.d, infer.KPair(q.side.AST, u.side.AST))
				qc := in.Query(in.RootEnv(), q.side.AST)
				uc := in.Update(in.RootEnv(), u.side.AST)
				if want := qc.Ret.Strings(); !slices.Equal(ev.Return, want) {
					t.Errorf("%s × %s: return %v, explicit engine %v", qt, ut, ev.Return, want)
				}
				if want := qc.Elem.Strings(); !slices.Equal(ev.Element, want) {
					t.Errorf("%s × %s: element %v, explicit engine %v", qt, ut, ev.Element, want)
				}
				if want := uc.FullChains().Strings(); !slices.Equal(ev.Update, want) {
					t.Errorf("%s × %s: update %v, explicit engine %v", qt, ut, ev.Update, want)
				}
			}
		}
	}
}

// TestExplainChainsEvidence pins the evidence of a small dependent
// pair and the quasi-closedness precondition.
func TestExplainChainsEvidence(t *testing.T) {
	s := MustParseSchema(bibSchema)
	u := MustParseUpdate("delete //price")
	ev, err := s.ExplainChains(MustParseQuery("//title"), u)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ev.Return, []string{"bib.book.title"}) {
		t.Errorf("return = %v", ev.Return)
	}
	if !slices.Equal(ev.Update, []string{"bib.book.price"}) {
		t.Errorf("update = %v", ev.Update)
	}
	if len(ev.Element) != 0 {
		t.Errorf("element = %v", ev.Element)
	}
	if ev.K < 2 {
		t.Errorf("k = %d", ev.K)
	}
	if _, err := s.ExplainChains(MustParseQuery("$z/a"), u); err == nil {
		t.Errorf("ExplainChains accepted a query with a free variable")
	}
}

// TestCommuteUnderBudget runs a pair whose explicit-set derivation
// grows without end: Commute must stop at the default budget and give
// the sound answer, "possibly order-dependent", with the overrun.
func TestCommuteUnderBudget(t *testing.T) {
	s := MustParseSchema(xmark.SchemaText)
	u1 := MustParseUpdate("delete //person/profile/age/../../name")
	u2 := MustParseUpdate("delete //person//name")
	var (
		ok  bool
		err error
	)
	within(t, "Commute", func() { ok, err = s.Commute(u1, u2) })
	if ok || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Commute = %v, %v; want false with a budget overrun", ok, err)
	}
}
