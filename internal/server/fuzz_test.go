package server

import (
	"encoding/json"
	"strings"
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/xmark"
	"xqindep/internal/xquery"
)

// FuzzAnalyzeBody checks the /analyze decode, which keeps the schema,
// query and update members raw, against json.Unmarshal into
// AnalyzeRequest. For any body both reject it as a bad request (400:
// malformed JSON, a field of the wrong type, or no schema) or neither
// does, with the same other fields, and the query and update members,
// unquoted, are json.Unmarshal's strings. When both accept it, the
// schema tier, whose keys are the member's bytes, resolves a schema
// with the fingerprint of dtd.Parse(req.Schema), or both fail to parse
// it; and the parsed-expression tier resolves the query and the update
// to sides whose digests xquery.FingerprintQuery and FingerprintUpdate
// give for the parsed texts, or both fail to parse them. One handler
// serves every input, so its tiers hold the residents of earlier
// inputs, keyed by copies of bytes the fuzzer has since reused.
func FuzzAnalyzeBody(f *testing.F) {
	xmarkBody, err := json.Marshal(AnalyzeRequest{Schema: xmark.SchemaText, Query: "//person/name", Update: "delete //price"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xmarkBody) // json.Marshal writes < as \u003c
	f.Add([]byte(strings.ReplaceAll(string(xmarkBody), `\u003c`, "<")))
	for _, body := range []string{
		`{"schema":null,"query":"//a","update":"delete //a"}`,
		`{"schema":5,"query":"//a","update":"delete //a"}`,
		`{"schema":{"a":"a <- #PCDATA"},"query":"//a","update":"delete //a"}`,
		`{"schema":"a <- b*\nb <- #PCDATA","schema":"a <- #PCDATA","query":"//a","update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","schema":null,"query":"//a","update":"delete //a"}`,
		`{"Schema":"a <- #PCDATA","query":"//a","update":"delete //a"}`,
		`{"query":"//a","update":"delete //a"}`,
		`{"schema":"","query":"//a","update":"delete //a"}`,
		`{"schema":"a <- \x #PCDATA","query":"//a","update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","max_k":"2"}`,
		`{"schema":"a <- #PCDATA","query":"\/\/a","update":"delete \/\/a"}`,
		`{"schema":"a <- #PCDATA","query":null,"update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","query":"//a","query":null,"Update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","query":5,"update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","query":"//a[","update":"delete //a"}`,
		// The boundary between the one-scan decode and json.Unmarshal.
		`{"sch\u0065ma":"a <- #PCDATA","query":"//a","update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","extra":{"a":[1,"b",null]},"query":"//a","update":"delete //a"}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","max_k":3,"max_k":null,"method":"types","method":null}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","max_k":-0}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","max_k":9223372036854775808}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","max_k":999999999999999999,"timeout_ms":-12}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","max_k":012}`,
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a","trace":"true"}`,
		"{\"schema\":\"a <- #PCDATA\",\"query\":\"//a\x01\",\"update\":\"delete //a\"}",
		"{\"schema\":\"a <- #PCDATA\",\"query\":\"//a\xff\",\"update\":\"delete //a\",\"method\":\"chains\xff\"}",
		`{"schema":"a <- #PCDATA","query":"//a\ud800","update":"delete //a","method":"chains\u002dexact"}`,
		` ` + "\t\r\n" + `{ "schema" : "a <- #PCDATA" ,` + "\n" + ` "query":"//a" , "update" :"delete //a",` + "\t" + `"max_k" : 3 , "no_fallback" : true,"trace":false } ` + "\r\n",
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1})
	f.Cleanup(func() { s.Close() })
	h := NewHandler(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref AnalyzeRequest
		refErr := json.Unmarshal(body, &ref)
		var req wireRequest
		err := decodeRequest(body, &req)
		if refBad, bad := refErr != nil || ref.Schema == "", err != nil || req.Schema.empty(); refBad != bad {
			t.Fatalf("json.Unmarshal bad request %v (err %v, schema %q), decodeRequest %v (err %v, member %q)\nbody: %q",
				refBad, refErr, ref.Schema, bad, err, req.Schema, body)
		} else if bad {
			return
		}
		rest := ref
		rest.Schema, rest.Query, rest.Update = "", "", ""
		if req.AnalyzeRequest != rest {
			t.Fatalf("decodeRequest fields %+v, json.Unmarshal %+v\nbody: %q", req.AnalyzeRequest, rest, body)
		}
		for _, m := range []struct {
			name   string
			member rawMember
			want   string
		}{{"query", req.Query, ref.Query}, {"update", req.Update, ref.Update}} {
			if got, err := m.member.text(); err != nil || got != m.want {
				t.Fatalf("%s member %q unquotes to %q (err %v), json.Unmarshal %q\nbody: %q", m.name, m.member, got, err, m.want, body)
			}
		}
		a, err := h.schema(req.Schema)
		d, refErr := dtd.Parse(ref.Schema)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("schema tier error %v, dtd.Parse error %v\nschema: %q", err, refErr, ref.Schema)
		case err == nil && a.D.Fingerprint() != d.Fingerprint():
			t.Fatalf("schema tier resolved %s, dtd.Parse %s\nschema: %q", a.D.Fingerprint(), d.Fingerprint(), ref.Schema)
		}
		q, err := prepared(h.queries, req.Query, xquery.ParsePreparedQuery)
		refQ, refErr := xquery.ParseQuery(ref.Query)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("query tier error %v, xquery.ParseQuery error %v\nquery: %q", err, refErr, ref.Query)
		case err == nil && q.Fingerprint() != xquery.FingerprintQuery(refQ):
			t.Fatalf("query tier resolved %s, xquery.FingerprintQuery %s\nquery: %q", q.Fingerprint(), xquery.FingerprintQuery(refQ), ref.Query)
		}
		u, err := prepared(h.updates, req.Update, xquery.ParsePreparedUpdate)
		refU, refErr := xquery.ParseUpdate(ref.Update)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("update tier error %v, xquery.ParseUpdate error %v\nupdate: %q", err, refErr, ref.Update)
		case err == nil && u.Fingerprint() != xquery.FingerprintUpdate(refU):
			t.Fatalf("update tier resolved %s, xquery.FingerprintUpdate %s\nupdate: %q", u.Fingerprint(), xquery.FingerprintUpdate(refU), ref.Update)
		}
	})
}
