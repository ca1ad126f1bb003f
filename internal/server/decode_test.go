package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// A malformed /analyze body is answered 400 with the message
// json.Unmarshal into AnalyzeRequest gives for it, whichever decode
// path reads the body.
func TestAnalyzeBodyErrorMessages(t *testing.T) {
	h := obsHandler(t, 0)
	const pair = `"query":"//a","update":"delete //a"`
	for _, tc := range []struct{ name, body, want string }{
		{"syntax error", `{"schema":"a <- #PCDATA",}`,
			"bad request: invalid character '}' looking for beginning of object key string"},
		{"truncated", `{"schema":"a <- #PCDATA",` + pair,
			"bad request: unexpected end of JSON input"},
		{"schema a number", `{"schema":5,` + pair + `}`,
			"bad request: json: cannot unmarshal number into Go struct field AnalyzeRequest.schema of type string"},
		{"max_k a string", `{"schema":"a <- #PCDATA",` + pair + `,"max_k":"2"}`,
			"bad request: json: cannot unmarshal string into Go struct field AnalyzeRequest.max_k of type int"},
		{"max_k a fraction", `{"schema":"a <- #PCDATA",` + pair + `,"max_k":1.5}`,
			"bad request: json: cannot unmarshal number 1.5 into Go struct field AnalyzeRequest.max_k of type int"},
		{"max_k out of range", `{"schema":"a <- #PCDATA",` + pair + `,"max_k":1e400}`,
			"bad request: json: cannot unmarshal number 1e400 into Go struct field AnalyzeRequest.max_k of type int"},
		{"trailing data", `{"schema":"a <- #PCDATA",` + pair + `} {}`,
			"bad request: invalid character '{' after top-level value"},
		{"byte order mark", "\xef\xbb\xbf" + `{"schema":"a <- #PCDATA",` + pair + `}`,
			"bad request: invalid character 'ï' looking for beginning of value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rw := postAnalyze(h, bytes.NewReader([]byte(tc.body)), int64(len(tc.body)))
			var resp AnalyzeResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != 400 {
				t.Fatalf("status %d, body %s", rw.Code, rw.Body.String())
			}
			if resp.Error != tc.want {
				t.Errorf("error %q, want %q", resp.Error, tc.want)
			}
		})
	}
}

// The one-scan decode takes the common shape of a request, members in
// any order with white space, null and duplicates among them, and
// decodes it as json.Unmarshal does. It leaves every other body to
// json.Unmarshal.
func TestScanRequestTakesTheCommonShape(t *testing.T) {
	for _, body := range []string{
		`{"schema":"a <- #PCDATA","query":"//a","update":"delete //a"}`,
		`{}`,
		` {"update":"delete \/\/a\n","query":"//a<","schema":"a <- #PCDATA"}` + "\n",
		`{"schema":"x","schema":null,"query":null,"method":"chains-exact","timeout_ms":250,"max_nodes":0,"max_chains":-0,"max_k":99,"no_fallback":true,"trace":false,"trace":null}`,
		"{\"schema\":\"\xff\",\"query\":\"//\xc3\xa9\",\"update\":\"delete //a\",\"method\":\"\xc3\xa9\"}",
	} {
		var req wireRequest
		if !scanRequest([]byte(body), &req) {
			t.Errorf("not taken: %s", body)
			continue
		}
		ref := new(wireRequest)
		if err := json.Unmarshal([]byte(body), ref); err != nil || !reflect.DeepEqual(&req, ref) {
			t.Errorf("%s: scanned %+v, json.Unmarshal %+v (err %v)", body, req, ref, err)
		}
	}
	for _, body := range []string{
		``,
		`null`,
		`{"Schema":"a"}`,
		`{"sch\u0065ma":"a"}`,
		`{"schema":"a","extra":1}`,
		`{"method":"chains\u002dexact"}`,
		"{\"method\":\"\xff\"}",
		`{"max_k":1.5}`,
		`{"max_k":1e2}`,
		`{"max_k":01}`,
		`{"max_k":-}`,
		`{"max_k":1234567890123456789}`,
		`{"max_k":"2"}`,
		`{"trace":1}`,
		`{"trace":True}`,
		`{"schema":5}`,
		"{\"query\":\"a\x1f\"}",
		`{"query":"a\x"}`,
		`{"query":"a\u12g4"}`,
		`{"query":"a"`,
		`{"query":"a",}`,
		`{"query":"a"} x`,
		`[{"query":"a"}]`,
	} {
		var req wireRequest
		if scanRequest([]byte(body), &req) {
			t.Errorf("taken: %s", body)
		}
	}
}
