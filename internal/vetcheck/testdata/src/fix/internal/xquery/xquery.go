// Package xquery is the fixture's stand-in for the real expression
// package: frozenartifact treats its prepared sides as immutable
// outside this home package, so only the shape matters — exported
// fields a reader may read, like the real sides.
package xquery

// PreparedQuery mirrors the real prepared query: its source text and
// the digest of its normalized form.
type PreparedQuery struct {
	Text   string
	Digest [16]byte
}

// PreparedUpdate mirrors the real prepared update.
type PreparedUpdate struct {
	Text   string
	Digest [16]byte
}

// PrepareQuery is the constructor; writing the fields here, inside the
// home package, is the one legal mutation site.
func PrepareQuery(text string) *PreparedQuery {
	p := &PreparedQuery{}
	p.Text = text
	p.Digest[0] = byte(len(text))
	return p
}
