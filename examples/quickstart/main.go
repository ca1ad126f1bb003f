// Quickstart: the two worked examples from the paper's introduction.
//
// Example 1: q1 = //a//c vs u1 = delete //b//c over the schema
// { doc ← (a|b)*, a ← c, b ← c }. Schema-less and flat type-set
// analyses cannot separate the pair; chains can — the inferred chains
// doc.a.c and doc.b:c are prefix-disjoint.
//
// Example 2: over a bibliographic schema, //title is independent of
// inserting authors into books: the chains bib.book.title and
// bib.book:author diverge after book.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xqindep"
)

func main() {
	// ----- Example 1: ancestor context matters ------------------------
	schema1, err := xqindep.ParseSchema(`
doc <- (a | b)*
a <- c
b <- c
c <- ()
`)
	if err != nil {
		log.Fatal(err)
	}
	q1 := xqindep.MustParseQuery("//a//c")
	u1 := xqindep.MustParseUpdate("delete //b//c")

	fmt.Println("Example 1:  q1 = //a//c   vs   u1 = delete //b//c")
	showAll(schema1, q1, u1)

	// The runtime oracle agrees on a concrete document.
	doc := xqindep.MustParseDocument("<doc><a><c/></a><a><c/></a><b><c/></b><a><c/></a></doc>")
	ok, err := xqindep.IndependentOn(doc, q1, u1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  runtime check on the Figure 1 document: independent = %v\n\n", ok)

	// ----- Example 2: sibling types diverge ---------------------------
	schema2, err := xqindep.ParseSchema(`
bib <- book*
book <- title, author*, price?
title <- #PCDATA
author <- first?, last?, email?
first <- #PCDATA
last <- #PCDATA
email <- #PCDATA
price <- #PCDATA
`)
	if err != nil {
		log.Fatal(err)
	}
	q2 := xqindep.MustParseQuery("//title")
	u2 := xqindep.MustParseUpdate("for $x in //book return insert <author/> into $x")

	fmt.Println("Example 2:  q2 = //title   vs   u2 = insert <author/> into every book")
	showAll(schema2, q2, u2)

	ev, err := schema2.ExplainChains(q2, u2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  inferred chains (k=%d):\n", ev.K)
	fmt.Printf("    query returns:  %v\n", ev.Return)
	fmt.Printf("    update changes: %v\n", ev.Update)
	fmt.Println("  bib.book.title and bib.book.author diverge after book → independent.")
}

// showAll runs every analysis method on the pair and prints a line per
// verdict.
func showAll(s *xqindep.Schema, q *xqindep.Query, u *xqindep.Update) {
	for _, m := range []xqindep.Method{xqindep.Chains, xqindep.ChainsExact, xqindep.Types, xqindep.Paths} {
		rep, err := s.Analyze(q, u, m)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "INDEPENDENT"
		if !rep.Independent {
			verdict = "possibly dependent"
		}
		fmt.Printf("  %-12s → %s\n", m, verdict)
	}
}
