package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xqindep/internal/core"
	"xqindep/internal/plan"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// postVerdict sends one request through h with a declared length, so
// its body goes through the pooled buffers, and decodes the verdict.
func postVerdict(t *testing.T, h *Handler, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rw := postAnalyze(h, bytes.NewReader(body), int64(len(body)))
	var resp AnalyzeResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 {
		t.Fatalf("%s | %s: status %d: %s", req.Query, req.Update, rw.Code, rw.Body.String())
	}
	return resp
}

// Two queries and two updates of one length, longer than 64 bytes and
// alike in their first and last bytes, so a Go map matches such keys
// without hashing first: a key that aliased a reused buffer would then
// be found under the bytes that overwrote it.
const (
	longQueryA  = "/shop/item/name, /shop/item/name, /shop/item/name, /shop/item/name, /shop/item/name"
	longQueryB  = "/shop/item/name, /shop/item/name, /shop/item/cost, /shop/item/name, /shop/item/name"
	longUpdateA = "delete /shop/item/name, delete /shop/item/name, delete /shop/item/name, delete /shop/item/name"
	longUpdateB = "delete /shop/item/name, delete /shop/item/cost, delete /shop/item/name, delete /shop/item/name"
)

// An expression tier key outlives the body it was read from, as a
// schema tier key does (TestSchemaKeyOutlivesRecycledBody). For each
// side, two members of one length, so their bodies are too, are sent
// A, B, A: B's body is read into the buffer A's body left in the pool
// and overwrites it. A key that aliased the buffer would turn into B's
// bytes and answer B with A's side, and so with A's verdict.
func TestExprKeyOutlivesRecycledBody(t *testing.T) {
	for _, tc := range []struct {
		side     string
		requests [2]AnalyzeRequest // A, then B
	}{
		{"query", [2]AnalyzeRequest{
			{Schema: ownSchemaA, Query: longQueryA, Update: "delete //cost"},
			{Schema: ownSchemaA, Query: longQueryB, Update: "delete //cost"},
		}},
		{"update", [2]AnalyzeRequest{
			{Schema: ownSchemaA, Query: "//cost", Update: longUpdateA},
			{Schema: ownSchemaA, Query: "//cost", Update: longUpdateB},
		}},
	} {
		t.Run(tc.side, func(t *testing.T) {
			h := obsHandler(t, 0)
			// A is independent of its pair's other side, B is not.
			for i, which := range []int{0, 1, 0} {
				if resp := postVerdict(t, h, tc.requests[which]); resp.Independent != (which == 0) {
					t.Fatalf("request %d (%+v): independent %v, want %v", i, tc.requests[which], resp.Independent, which == 0)
				}
			}
			st := h.queries.Stats()
			if tc.side == "update" {
				st = h.updates.Stats()
			}
			if st.Hits != 1 || st.Misses != 2 {
				t.Fatalf("%s tier %+v, want A and B missed and A's second request a hit", tc.side, st)
			}
		})
	}

	// The same order on one buffer the test overwrites itself, so the
	// reuse does not depend on what the pool hands out.
	h := obsHandler(t, 0)
	buf := []byte(`{"query":` + jsonQuote(longQueryA) + `}`)
	resolve := func(want string) {
		t.Helper()
		var req wireRequest
		if err := decodeRequest(buf, &req); err != nil {
			t.Fatal(err)
		}
		q, err := prepared(h.queries, req.Query, xquery.ParsePreparedQuery)
		if err != nil {
			t.Fatal(err)
		}
		if q.Text != want || q.Fingerprint() != xquery.FingerprintQuery(xquery.MustParseQuery(want)) {
			t.Fatalf("member %s resolved to the side of %q", req.Query, q.Text)
		}
	}
	resolve(longQueryA)
	copy(buf, `{"query":`+jsonQuote(longQueryB)+`}`)
	resolve(longQueryB)
	copy(buf, `{"query":`+jsonQuote(longQueryA)+`}`)
	before := h.queries.Stats()
	resolve(longQueryA)
	if st := h.queries.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("query tier %+v after %+v: A missed on a buffer B had overwritten", st, before)
	}
}

// A member that does not parse answers 400 with the parser's error,
// as it did before the tier, every time: the error is stored nowhere
// and no side stays resident for it.
func TestExprParseErrorAnswersThe400Twice(t *testing.T) {
	h := obsHandler(t, 0)
	_, qerr := xquery.ParseQuery("//name[")
	_, uerr := xquery.ParseUpdate("delete")
	for _, tc := range []struct {
		req  AnalyzeRequest
		want string
	}{
		{AnalyzeRequest{Schema: obsSchema, Query: "//name[", Update: "delete //cost"}, "query: " + qerr.Error()},
		{AnalyzeRequest{Schema: obsSchema, Query: "//name", Update: "delete"}, "update: " + uerr.Error()},
	} {
		body, _ := json.Marshal(tc.req)
		for i := 0; i < 2; i++ {
			rw := postAnalyze(h, bytes.NewReader(body), int64(len(body)))
			var resp AnalyzeResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 400 || resp.Error != tc.want {
				t.Fatalf("%s | %s, request %d: status %d, error %q; want 400 and %q", tc.req.Query, tc.req.Update, i, rw.Code, resp.Error, tc.want)
			}
		}
	}
	// The bad query missed twice and //name once; the bad update, the
	// only update resolved, missed twice.
	if st := h.queries.Stats(); st.Resident != 1 || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("query tier %+v: want only //name resident, the bad query missed twice", st)
	}
	if st := h.updates.Stats(); st.Resident != 0 || st.Misses != 2 {
		t.Fatalf("update tier %+v: want nothing resident, the bad update missed twice", st)
	}
	h.queries.Range(func(k string, q *xquery.PreparedQuery) bool {
		if q.Text != "//name" {
			t.Errorf("query tier holds %q under %s", q.Text, k)
		}
		return true
	})
}

// Resolving resident query and update members allocates nothing: no
// unquoting, no string key, no parse, no normalization, no digest.
func TestResidentSidesAllocateNothing(t *testing.T) {
	h := obsHandler(t, 0)
	v, _ := xmark.ViewByName("A3")
	u, _ := xmark.UpdateByName("UB2")
	qm, _ := json.Marshal(v.Text)
	um, _ := json.Marshal(u.Text)
	resolve := func() {
		if _, err := prepared(h.queries, qm, xquery.ParsePreparedQuery); err != nil {
			t.Fatal(err)
		}
		if _, err := prepared(h.updates, um, xquery.ParsePreparedUpdate); err != nil {
			t.Fatal(err)
		}
	}
	resolve()
	if n := testing.AllocsPerRun(100, resolve); n != 0 {
		t.Fatalf("resolving resident sides allocates %v times, want 0", n)
	}
}

// For every XMark pair served through the handler, the plan key built
// from the resident sides is PairDigest of the normalized pair, and the
// served verdict is the one AnalyzeContext gives on the parsed pair.
func TestServedSidesMatchTheXMarkMatrix(t *testing.T) {
	s := New(Config{Workers: 1, Plans: plan.NewCache(plan.DefaultCacheSize)})
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	d := xmark.Schema()
	a := core.NewAnalyzer(d)
	ref := plan.NewCache(plan.DefaultCacheSize)
	pairs := 0
	for _, v := range xmark.Views() {
		for _, u := range xmark.Updates() {
			resp := postVerdict(t, h, AnalyzeRequest{Schema: xmark.SchemaText, Query: v.Text, Update: u.Text})
			qm, _ := json.Marshal(v.Text)
			um, _ := json.Marshal(u.Text)
			qs, err := prepared(h.queries, qm, xquery.ParsePreparedQuery)
			if err != nil {
				t.Fatal(err)
			}
			us, err := prepared(h.updates, um, xquery.ParsePreparedUpdate)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := xquery.PairKey(qs, us), xquery.PairDigest(xquery.Normalize(v.AST), xquery.NormalizeUpdate(u.AST)); got != want {
				t.Fatalf("%s × %s: key from the sides %x, PairDigest %x", v.Name, u.Name, got, want)
			}
			res, err := a.AnalyzeContext(context.Background(), v.AST, u.AST, core.MethodChains, core.Options{Plans: ref})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Independent != res.Independent || resp.K != res.K || !reflect.DeepEqual(resp.Witnesses, res.Witnesses) || resp.Degraded {
				t.Fatalf("%s × %s: served %+v, AnalyzeContext %+v", v.Name, u.Name, resp, res)
			}
			pairs++
		}
	}
	if pairs != 1116 {
		t.Fatalf("checked %d pairs, want 1,116", pairs)
	}
	if st := h.queries.Stats(); st.Resident != 36 {
		t.Fatalf("query tier %+v, want the 36 views resident", st)
	}
	if st := h.updates.Stats(); st.Resident != 31 {
		t.Fatalf("update tier %+v, want the 31 updates resident", st)
	}
}

// Four goroutines send the same XMark pairs through one handler in
// different orders, so they resolve the same resident sides at once
// and their cold builds and warm hits read them concurrently; each
// verdict must be the pair's. Run it under -race: a write to a shared
// side is a data race.
func TestConcurrentRequestsShareSides(t *testing.T) {
	views := []string{"q1", "q8", "A3", "A6", "B2", "q20"}
	updates := []string{"UB2", "UI1", "UN1", "UA4"}
	type pair struct {
		req   AnalyzeRequest
		indep bool
	}
	a := core.NewAnalyzer(xmark.Schema())
	var pairs []pair
	for _, vn := range views {
		v, _ := xmark.ViewByName(vn)
		for _, un := range updates {
			u, _ := xmark.UpdateByName(un)
			res, err := a.Analyze(v.AST, u.AST, core.MethodChains)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{AnalyzeRequest{Schema: xmark.SchemaText, Query: v.Text, Update: u.Text}, res.Independent})
		}
	}
	const clients = 4
	// Room to admit every client at once, so none is shed.
	s := New(Config{Workers: 2, QueueDepth: clients, Plans: plan.NewCache(64)})
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range pairs {
					p := pairs[(i*(c+1)+c)%len(pairs)]
					body, _ := json.Marshal(p.req)
					rw := postAnalyze(h, bytes.NewReader(body), int64(len(body)))
					var resp AnalyzeResponse
					if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 200 || resp.Independent != p.indep {
						errs <- fmt.Sprintf("client %d: %s | %s: status %d, %+v, want independent %v", c, p.req.Query, p.req.Update, rw.Code, resp, p.indep)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := h.queries.Stats(); st.Resident != int64(len(views)) {
		t.Errorf("query tier %+v, want %d residents", st, len(views))
	}
	if st := h.updates.Stats(); st.Resident != int64(len(updates)) {
		t.Errorf("update tier %+v, want %d residents", st, len(updates))
	}
}
