package server

import (
	"encoding/json"
	"errors"
	"strings"
	"unicode/utf8"
)

// decodeRequest decodes one /analyze body or batch line into req. The
// fields are AnalyzeRequest's and a bad body is rejected as
// json.Unmarshal into AnalyzeRequest rejects it, but the schema, query
// and update members are not copied: they alias data.
//
// One scan of data decodes the common shape (scanRequest). A body it
// does not take, every malformed one among them, is decoded by
// json.Unmarshal, which gives a rejected body its message. That decodes
// into a value of its own, copied to req, so req does not escape.
func decodeRequest(data []byte, req *wireRequest) error {
	if scanRequest(data, req) {
		return nil
	}
	r := new(wireRequest)
	err := json.Unmarshal(data, r)
	*req = *r
	if err != nil {
		// Name the field as a member of AnalyzeRequest, the documented
		// wire form, not of the type it was decoded into.
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			te.Struct, te.Field = "AnalyzeRequest", strings.TrimPrefix(te.Field, "AnalyzeRequest.")
		}
	}
	return err
}

// scanRequest decodes data into req in one pass when data is an object
// of the common shape, and reports whether it did; req is then what
// json.Unmarshal makes of data. The shape is white space, member names
// that are AnalyzeRequest's exactly and hold no escape, and values that
// fit their members: a string for schema, query and update (kept raw,
// validated as json's scanner validates a string), a string holding no
// escape and valid UTF-8 for method, an integer literal of at most 18
// digits for the integer members, true or false for the booleans, and
// null for any member, which leaves it as it is. Of duplicate members
// the last wins. Anything else, which includes every malformed body,
// is left to json.Unmarshal, and req may then hold part of data.
func scanRequest(data []byte, req *wireRequest) bool {
	*req = wireRequest{}
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	for {
		end, escaped := scanString(data, i)
		if end < 0 || escaped {
			return false
		}
		name := data[i+1 : end-1]
		i = skipSpace(data, end)
		if i == len(data) || data[i] != ':' {
			return false
		}
		if i = scanMember(data, skipSpace(data, i+1), name, req); i < 0 {
			return false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// scanMember decodes the value at data[i] into req's member name and
// returns the index after it, or -1 when the value is not one
// scanRequest takes for that member.
func scanMember(data []byte, i int, name []byte, req *wireRequest) int {
	switch string(name) {
	case "schema":
		return scanRaw(data, i, &req.Schema)
	case "query":
		return scanRaw(data, i, &req.Query)
	case "update":
		return scanRaw(data, i, &req.Update)
	case "method":
		return scanText(data, i, &req.Method)
	case "timeout_ms":
		return scanInt(data, i, &req.TimeoutMS)
	case "max_nodes":
		return scanInt(data, i, &req.MaxNodes)
	case "max_chains":
		return scanInt(data, i, &req.MaxChains)
	case "max_k":
		return scanInt(data, i, &req.MaxK)
	case "no_fallback":
		return scanBool(data, i, &req.NoFallback)
	case "trace":
		return scanBool(data, i, &req.Trace)
	}
	return -1
}

// Each scanX below decodes the value at data[i] into its member and
// returns the index after it, or -1 when the value is not one it
// takes. null leaves the member as it is.

// scanRaw keeps a string literal in m, quotes and escapes included.
func scanRaw(data []byte, i int, m *rawMember) int {
	if hasLiteral(data, i, "null") {
		return i + len("null")
	}
	end, _ := scanString(data, i)
	if end >= 0 {
		*m = data[i:end]
	}
	return end
}

// scanText decodes a string literal that holds no escape and is valid
// UTF-8, which json.Unmarshal would have to rewrite, into s.
func scanText(data []byte, i int, s *string) int {
	if hasLiteral(data, i, "null") {
		return i + len("null")
	}
	end, escaped := scanString(data, i)
	if end < 0 || escaped || !utf8.Valid(data[i+1:end-1]) {
		return -1
	}
	*s = string(data[i+1 : end-1])
	return end
}

// maxIntDigits bounds the integer literals scanInt decodes, so none
// overflows an int.
const maxIntDigits = 18

// scanInt decodes an integer literal of at most maxIntDigits digits
// into v, refusing a leading zero as json's scanner does. What follows
// the digits is left to the caller, which takes only white space, a
// comma or a brace, so a fraction or an exponent is not decoded.
func scanInt(data []byte, i int, v *int) int {
	if hasLiteral(data, i, "null") {
		return i + len("null")
	}
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start, n := i, 0
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		n = n*10 + int(data[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > maxIntDigits || (digits > 1 && data[start] == '0') {
		return -1
	}
	if neg {
		n = -n
	}
	*v = n
	return i
}

// scanBool decodes true or false into v.
func scanBool(data []byte, i int, v *bool) int {
	switch {
	case hasLiteral(data, i, "null"):
		return i + len("null")
	case hasLiteral(data, i, "true"):
		*v = true
		return i + len("true")
	case hasLiteral(data, i, "false"):
		*v = false
		return i + len("false")
	}
	return -1
}

// hasLiteral reports whether data holds lit at i.
func hasLiteral(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString validates the string literal at data[i] as json's scanner
// does: no byte below 0x20, and a backslash only before one of the
// eight escape letters or a u and four hex digits. It returns the
// index after the closing quote and whether the literal holds an
// escape, or -1 when there is no valid literal at i.
func scanString(data []byte, i int) (end int, escaped bool) {
	if i >= len(data) || data[i] != '"' {
		return -1, false
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, escaped
		case c < 0x20:
			return -1, false
		case c == '\\':
			escaped = true
			if i++; i == len(data) {
				return -1, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i <= 4 || !isHex4(data[i+1:i+5]) {
					return -1, false
				}
				i += 4
			default:
				return -1, false
			}
		}
	}
	return -1, false
}

// isHex4 reports whether the four bytes of b are hex digits.
func isHex4(b []byte) bool {
	for _, c := range b[:4] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}
