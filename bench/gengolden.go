//go:build ignore

// gengolden writes testdata/xmark_verdicts.json, the golden verdict
// table every benchmark response is checked against. It derives each
// verdict on internal/refcdag, the map-based reference engine, so the
// dense engine the benchmark serves never grades itself. Run it from
// this directory with `go run gengolden.go`; the table only changes
// when the XMark workload or the analysis itself changes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
)

func main() {
	d := xmark.Schema()
	g := golden{SchemaFingerprint: d.Fingerprint()}
	for _, v := range xmark.Views() {
		for _, u := range xmark.Updates() {
			r := refcdag.Independence(d, v.AST, u.AST)
			g.Pairs = append(g.Pairs, goldenPair{View: v.Name, Update: u.Name, Independent: r.Independent, K: r.K})
		}
	}
	// One pair per line keeps the table reviewable as a diff.
	var out bytes.Buffer
	fmt.Fprintf(&out, "{\"schema_fingerprint\": %q, \"pairs\": [\n", g.SchemaFingerprint)
	for i, p := range g.Pairs {
		line, err := json.Marshal(p)
		if err != nil {
			log.Fatal(err)
		}
		out.Write(line)
		if i < len(g.Pairs)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]}\n")
	if err := os.WriteFile("testdata/xmark_verdicts.json", out.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

// golden and goldenPair mirror the types in golden.go; a build-ignored
// generator cannot share them.
type golden struct {
	SchemaFingerprint string       `json:"schema_fingerprint"`
	Pairs             []goldenPair `json:"pairs"`
}

type goldenPair struct {
	View        string `json:"view"`
	Update      string `json:"update"`
	Independent bool   `json:"independent"`
	K           int    `json:"k"`
}
