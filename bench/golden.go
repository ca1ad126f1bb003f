package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"xqindep/internal/xmark"
)

// goldenJSON is the verdict table generated by gengolden.go on the
// reference engine. It is never regenerated to make a run pass: a
// disagreement between it and a served verdict is a finding.
//
//go:embed testdata/xmark_verdicts.json
var goldenJSON []byte

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

// pair is one cell of the XMark view × update matrix as the benchmark
// sends it.
type pair struct {
	view, update string
	query, upd   string
	independent  bool
	k            int
	// body is the encoded /analyze request, built once so clients
	// spend no time encoding.
	body []byte
}

// matrix is the request universe of every workload: the first views
// XMark views against the first updates XMark updates, update-major
// (pairs[u*views+v]) so one update's requests are contiguous.
type matrix struct {
	schemaText string
	views      int
	updates    int
	pairs      []pair
	// prime is a "types" request: it makes the pool parse and compile
	// the schema without building a single plan.
	prime []byte
}

type analyzeRequest struct {
	Schema string `json:"schema"`
	Query  string `json:"query"`
	Update string `json:"update"`
	Method string `json:"method,omitempty"`
}

// loadMatrix decodes the golden table and builds the requests of a
// views × updates matrix (0 selects the full 36 × 31).
func loadMatrix(views, updates int) (*matrix, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden table: %w", err)
	}
	if fp := xmark.Schema().Fingerprint(); g.SchemaFingerprint != fp {
		return nil, fmt.Errorf("golden table is for schema %s, XMark schema is %s", g.SchemaFingerprint, fp)
	}
	byName := make(map[[2]string]goldenPair, len(g.Pairs))
	for _, p := range g.Pairs {
		byName[[2]string{p.View, p.Update}] = p
	}
	vs, us := xmark.Views(), xmark.Updates()
	if views <= 0 || views > len(vs) {
		views = len(vs)
	}
	if updates <= 0 || updates > len(us) {
		updates = len(us)
	}
	m := &matrix{schemaText: xmark.SchemaText, views: views, updates: updates}
	for _, u := range us[:updates] {
		for _, v := range vs[:views] {
			gp, ok := byName[[2]string{v.Name, u.Name}]
			if !ok {
				return nil, fmt.Errorf("golden table has no verdict for %s × %s", v.Name, u.Name)
			}
			body, err := json.Marshal(analyzeRequest{Schema: m.schemaText, Query: v.Text, Update: u.Text})
			if err != nil {
				return nil, err
			}
			m.pairs = append(m.pairs, pair{
				view: v.Name, update: u.Name, query: v.Text, upd: u.Text,
				independent: gp.Independent, k: gp.K, body: body,
			})
		}
	}
	prime, err := json.Marshal(analyzeRequest{Schema: m.schemaText, Query: vs[0].Text, Update: us[0].Text, Method: "types"})
	if err != nil {
		return nil, err
	}
	m.prime = prime
	return m, nil
}

// updateOf returns the update index of pair i.
func (m *matrix) updateOf(i int) int { return i / m.views }
