package xquery

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"xqindep/internal/guard"
)

// Expression fingerprints key the prepared-analysis plan cache: its key
// is (schema fingerprint, pair digest), so two surface pairs that
// normalize to the same AST, up to binder names and sequence
// association, share one cached plan per schema. Each side's digest is
// SHA-256, truncated to 128 bits as dtd.Fingerprint truncates, over a
// prefix-free encoding written straight from the normalized AST:
//
//   - every node kind has its own tag byte, and query kinds are distinct
//     from update kinds;
//   - a string is its uvarint length followed by its bytes; axis,
//     node-test kind and insert position are uvarints;
//   - a bound variable is its binder's number in traversal order, the
//     order of the canonical printer's $v0, $v1, …; a free variable is
//     its name under its own tag;
//   - a sequence is flattened between an open tag and tagEnd, so
//     association collapses exactly as it does in the canonical print.
//
// Two normalized ASTs therefore encode equally exactly when their
// canonical prints are equal; the print is the oracle the encoding is
// tested against, and it is not computed on the request path. The pair
// digest is the digest of the two sides' digests, so a request whose
// sides are prepared (PreparedQuery, PreparedUpdate) digests 33 bytes
// for its key and encodes nothing. The first byte of every digested
// input names its domain (a query, an update or a pair), so inputs of
// different domains never coincide.

// Tag bytes, one per node kind.
const (
	tagEmpty byte = iota + 1
	tagSeq
	tagString
	tagBound // a bound variable: its binder's number
	tagFree  // a free variable: its name
	tagStep
	tagElement
	tagFor
	tagLet
	tagIf

	tagUEmpty
	tagUSeq
	tagUFor
	tagULet
	tagUIf
	tagDelete
	tagRename
	tagInsert
	tagReplace

	tagEnd // closes a flattened sequence
)

// Domain bytes.
const (
	domainQuery  = 'q'
	domainUpdate = 'u'
	domainPair   = 'p'
)

// encodingBuf is the size of the stack buffer an encoding is written
// into; the longest XMark side encodes in well under half of it. A
// longer encoding spills to the heap.
const encodingBuf = 1024

// binder is one variable in scope during encoding.
type binder struct {
	name string
	num  uint64
}

// PairDigest returns the plan cache's pair key of an already
// normalized query and update: the digest of the pair domain byte and
// the two sides' digests (QueryDigest, UpdateDigest). Two keys are
// equal exactly when both normalized sides encode equally. It allocates
// nothing for sides whose encodings fit the stack buffer.
func PairDigest(nq Query, nu Update) [16]byte {
	return pairDigest(QueryDigest(nq), UpdateDigest(nu))
}

// PairKey is PairDigest of two prepared sides, from their stored
// digests: it encodes nothing and allocates nothing.
func PairKey(q *PreparedQuery, u *PreparedUpdate) [16]byte {
	return pairDigest(q.Digest, u.Digest)
}

func pairDigest(qd, ud [16]byte) [16]byte {
	var b [1 + 2*16]byte
	b[0] = domainPair
	copy(b[1:], qd[:])
	copy(b[1+16:], ud[:])
	return digest(b[:])
}

// QueryDigest returns the 128-bit digest of an already normalized
// query. It allocates nothing for queries whose encoding fits the stack
// buffer.
func QueryDigest(nq Query) [16]byte {
	var buf [encodingBuf]byte
	return digest(appendQueryEncoding(append(buf[:0], domainQuery), nq))
}

// FingerprintQuery returns the content fingerprint of q, stable
// across sugar and binder-name variants: QueryDigest of the normalized
// query, in hex, 32 characters.
func FingerprintQuery(q Query) string {
	return hexString(QueryDigest(Normalize(q)))
}

// UpdateDigest returns the 128-bit digest of an already normalized
// update: the plan cache's update-tier key. It allocates nothing for
// updates whose encoding fits the stack buffer.
func UpdateDigest(nu Update) [16]byte {
	var buf [encodingBuf]byte
	return digest(appendUpdateEncoding(append(buf[:0], domainUpdate), nu))
}

// FingerprintUpdate returns the content fingerprint of u: UpdateDigest
// of the normalized update, in hex.
func FingerprintUpdate(u Update) string {
	return hexString(UpdateDigest(NormalizeUpdate(u)))
}

// FingerprintPair returns the printed pair key the plan cache uses:
// PairDigest of the normalized sides, in hex.
func FingerprintPair(q Query, u Update) string {
	return hexString(PairDigest(Normalize(q), NormalizeUpdate(u)))
}

func digest(b []byte) [16]byte {
	sum := sha256.Sum256(b)
	return [16]byte(sum[:16])
}

// hexString prints a digest in one allocation, the string.
func hexString(d [16]byte) string {
	var h [32]byte
	hex.Encode(h[:], d[:])
	return string(h[:])
}

// appendQueryEncoding appends the encoding of q, numbering its binders
// from 0.
func appendQueryEncoding(b []byte, q Query) []byte {
	var env [16]binder
	b, _ = encodeQuery(b, env[:0], 0, q)
	return b
}

// appendUpdateEncoding appends the encoding of u, numbering its
// binders from 0.
func appendUpdateEncoding(b []byte, u Update) []byte {
	var env [16]binder
	b, _ = encodeUpdate(b, env[:0], 0, u)
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendVar encodes a variable reference. env lists the binders in
// scope, innermost last, so the innermost binder of a name wins.
func appendVar(b []byte, env []binder, name string) []byte {
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].name == name {
			return binary.AppendUvarint(append(b, tagBound), env[i].num)
		}
	}
	return appendString(append(b, tagFree), name)
}

// encodeQuery appends the encoding of q. next is the number the next
// binder met in traversal order gets; the returned number is next after
// q. A binder takes its number before its binding expression is
// encoded, as the printer names it before printing that expression, and
// is in scope only in its body. encodeQuery and encodeUpdate each
// recurse only into themselves: a helper in the recursion would make
// escape analysis move the caller's stack buffer to the heap.
func encodeQuery(b []byte, env []binder, next uint64, q Query) ([]byte, uint64) {
	switch n := q.(type) {
	case Empty:
		return append(b, tagEmpty), next
	case StringLit:
		return appendString(append(b, tagString), n.Value), next
	case Var:
		return appendVar(b, env, n.Name), next
	case Step:
		b = appendVar(append(b, tagStep), env, n.Var)
		b = binary.AppendUvarint(b, uint64(n.Axis))
		b = binary.AppendUvarint(b, uint64(n.Test.Kind))
		if n.Test.Kind == TagTest {
			b = appendString(b, n.Test.Tag)
		}
		return b, next
	case Sequence:
		// The items in the order flattenSeq lists them: a stack of the
		// subtrees still to visit, left subtree on top.
		b = append(b, tagSeq)
		var pending [16]Query
		stack := append(pending[:0], n.Right, n.Left)
		for len(stack) > 0 {
			item := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s, ok := item.(Sequence); ok {
				stack = append(stack, s.Right, s.Left)
				continue
			}
			b, next = encodeQuery(b, env, next, item)
		}
		return append(b, tagEnd), next
	case Element:
		return encodeQuery(appendString(append(b, tagElement), n.Tag), env, next, n.Content)
	case For:
		num := next
		b, next = encodeQuery(append(b, tagFor), env, next+1, n.In)
		return encodeQuery(b, append(env, binder{n.Var, num}), next, n.Return)
	case Let:
		num := next
		b, next = encodeQuery(append(b, tagLet), env, next+1, n.Bind)
		return encodeQuery(b, append(env, binder{n.Var, num}), next, n.Return)
	case If:
		b, next = encodeQuery(append(b, tagIf), env, next, n.Cond)
		b, next = encodeQuery(b, env, next, n.Then)
		return encodeQuery(b, env, next, n.Else)
	default:
		panic(&guard.InternalError{Value: "xquery: fingerprint: unknown query node"})
	}
}

// encodeUpdate is encodeQuery for updates.
func encodeUpdate(b []byte, env []binder, next uint64, u Update) ([]byte, uint64) {
	switch n := u.(type) {
	case UEmpty:
		return append(b, tagUEmpty), next
	case USeq:
		b = append(b, tagUSeq)
		var pending [16]Update
		stack := append(pending[:0], n.Right, n.Left)
		for len(stack) > 0 {
			item := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s, ok := item.(USeq); ok {
				stack = append(stack, s.Right, s.Left)
				continue
			}
			b, next = encodeUpdate(b, env, next, item)
		}
		return append(b, tagEnd), next
	case UFor:
		num := next
		b, next = encodeQuery(append(b, tagUFor), env, next+1, n.In)
		return encodeUpdate(b, append(env, binder{n.Var, num}), next, n.Body)
	case ULet:
		num := next
		b, next = encodeQuery(append(b, tagULet), env, next+1, n.Bind)
		return encodeUpdate(b, append(env, binder{n.Var, num}), next, n.Body)
	case UIf:
		b, next = encodeQuery(append(b, tagUIf), env, next, n.Cond)
		b, next = encodeUpdate(b, env, next, n.Then)
		return encodeUpdate(b, env, next, n.Else)
	case Delete:
		return encodeQuery(append(b, tagDelete), env, next, n.Target)
	case Rename:
		b, next = encodeQuery(append(b, tagRename), env, next, n.Target)
		return appendString(b, n.As), next
	case Insert:
		b, next = encodeQuery(append(b, tagInsert), env, next, n.Source)
		return encodeQuery(binary.AppendUvarint(b, uint64(n.Pos)), env, next, n.Target)
	case Replace:
		b, next = encodeQuery(append(b, tagReplace), env, next, n.Target)
		return encodeQuery(b, env, next, n.Source)
	default:
		panic(&guard.InternalError{Value: "xquery: fingerprint: unknown update node"})
	}
}
