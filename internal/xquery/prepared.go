package xquery

// PreparedQuery is one query prepared once for every analysis of it:
// its source text, the parsed AST, the normalized AST and the digest of
// the normalized form. The serving layer keeps one per query text it
// has seen and hands the same one to concurrent requests, so it is
// immutable once PrepareQuery returns; the frozenartifact gate rejects
// a write to one outside this package.
type PreparedQuery struct {
	// Text is the source text; empty when the AST came without one.
	Text string
	// AST is the parsed query, the form the explicit-set engine and
	// the baselines read.
	AST Query
	// Norm is Normalize(AST), the form the CDAG engine reads.
	Norm Query
	// Digest is QueryDigest(Norm), the query's half of the pair key.
	Digest [16]byte
	// quasiClosed is QuasiClosedQuery(AST).
	quasiClosed bool
}

// PrepareQuery prepares the query q parsed from text: it normalizes q,
// digests the normalized form and records whether q is quasi-closed.
func PrepareQuery(text string, q Query) *PreparedQuery {
	nq := Normalize(q)
	return &PreparedQuery{Text: text, AST: q, Norm: nq, Digest: QueryDigest(nq), quasiClosed: QuasiClosedQuery(q)}
}

// ParsePreparedQuery parses text (ParseQuery) and prepares the query.
func ParsePreparedQuery(text string) (*PreparedQuery, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return PrepareQuery(text, q), nil
}

// Fingerprint returns the query's content fingerprint, the digest in
// hex: FingerprintQuery(AST), without normalizing again.
func (p *PreparedQuery) Fingerprint() string { return hexString(p.Digest) }

// QuasiClosed reports whether the query's only free variable is
// RootVar, as QuasiClosedQuery(AST) does, without walking the AST.
func (p *PreparedQuery) QuasiClosed() bool { return p.quasiClosed }

// PreparedUpdate is PreparedQuery for an update.
type PreparedUpdate struct {
	// Text is the source text; empty when the AST came without one.
	Text string
	// AST is the parsed update.
	AST Update
	// Norm is NormalizeUpdate(AST).
	Norm Update
	// Digest is UpdateDigest(Norm): the update's half of the pair key
	// and the plan cache's update-tier key.
	Digest [16]byte
	// quasiClosed is QuasiClosedUpdate(AST).
	quasiClosed bool
}

// PrepareUpdate prepares the update u parsed from text.
func PrepareUpdate(text string, u Update) *PreparedUpdate {
	nu := NormalizeUpdate(u)
	return &PreparedUpdate{Text: text, AST: u, Norm: nu, Digest: UpdateDigest(nu), quasiClosed: QuasiClosedUpdate(u)}
}

// ParsePreparedUpdate parses text (ParseUpdate) and prepares the
// update.
func ParsePreparedUpdate(text string) (*PreparedUpdate, error) {
	u, err := ParseUpdate(text)
	if err != nil {
		return nil, err
	}
	return PrepareUpdate(text, u), nil
}

// Fingerprint returns the update's content fingerprint, the digest in
// hex: FingerprintUpdate(AST), without normalizing again.
func (p *PreparedUpdate) Fingerprint() string { return hexString(p.Digest) }

// QuasiClosed reports whether the update's only free variable is
// RootVar, as QuasiClosedUpdate(AST) does, without walking the AST.
func (p *PreparedUpdate) QuasiClosed() bool { return p.quasiClosed }
