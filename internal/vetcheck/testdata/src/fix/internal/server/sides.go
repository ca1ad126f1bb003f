// Firing and non-firing fixtures for the frozenartifact extension to
// prepared expression sides: the handler's parsed-expression tier
// hands one resident side to every request that sends the same
// member, so nothing outside internal/xquery may write to one.
package server

import "example.com/fix/internal/xquery"

func retext(q *xquery.PreparedQuery) {
	q.Text = "forged" // want "write to field Text of a frozen artifact"
}

func redigest(u *xquery.PreparedUpdate) {
	u.Digest[0]++ // want "write through an index of a frozen artifact view"
}

// Reading is what a resident is for.
func sideTexts(q *xquery.PreparedQuery, u *xquery.PreparedUpdate) string {
	return q.Text + u.Text
}
