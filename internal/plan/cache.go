package plan

import (
	"sort"

	"xqindep/internal/cdag"
	"xqindep/internal/lru"
	"xqindep/internal/xquery"
)

// Cache holds two tiers. The plan tier maps (schema, pair) to a
// prepared plan: a bounded LRU keyed by (schema fingerprint, pair
// digest). Verify runs on every hit, so a resident that fails its
// content checksum is dropped and rebuilt instead of served. A hit
// allocates nothing and holds the lock only for a constant-size check.
//
// The update tier maps (schema, update) to the update side a cold build
// inferred (cdag.UpdateSide), so the builds of one update's pairs infer
// it once instead of once per pair. It holds updateTierSize residents,
// keyed by (schema fingerprint, update digest). A build adopts the
// resident when it fits the build's engine: inferred under a depth
// bound at least the pair's, with the same row width. Otherwise the
// build infers the update on its own engine, and its side replaces the
// resident when it was inferred deeper. Plan hits never reach the tier.
//
// A nil *Cache degenerates to an uncached cold build, with no tier.
// The package keeps no cache: each holder owns the one it passes.
type Cache struct {
	c *lru.Cache[key, *CompiledExpr]
	u *lru.Cache[sideKey, *cdag.UpdateSide]
}

// key is a plan's identity: the schema fingerprint and the pair
// digest, held as an array so a lookup hashes it in place.
type key struct {
	schemaFP string
	pair     [16]byte
}

// keyOf returns the key of the prepared pair's plan under the schema
// fingerprint. It digests the two side digests (xquery.PairKey) and
// allocates nothing.
func keyOf(schemaFP string, q *xquery.PreparedQuery, u *xquery.PreparedUpdate) key {
	return key{schemaFP, xquery.PairKey(q, u)}
}

// sideKey is an update side's identity: the schema fingerprint and the
// update digest (xquery.UpdateDigest).
type sideKey struct {
	schemaFP string
	update   [16]byte
}

// updateTierSize is the update tier's capacity: one resident. Figure
// 3.a's pass (and the cold-fig3a workload that replays it) and Figure
// 3.c's re-check of fixed views both send one update's pairs back to
// back, so one resident serves every pair after an update's first
// few. One resident is also what the memory allows: the largest XMark
// side retains 13,824 B of slabs and markings and 23 of the 31 stay
// under 1 KiB, while cold-fig3a's 5% live-heap bound leaves about
// 56 KiB. Requests that interleave updates miss and infer per pair, as
// a build without the tier does.
const updateTierSize = 1

// NewCache returns a cache holding at most max plans (minimum 1) and
// one update side.
func NewCache(max int) *Cache {
	return &Cache{
		c: lru.New[key, *CompiledExpr](max, (*CompiledExpr).Verify),
		u: lru.New[sideKey, *cdag.UpdateSide](updateTierSize, nil),
	}
}

// updateSide returns the update side e adopts for the prepared update
// u: the tier's resident under u's digest when it fits e, or else one
// inferred on e from u's normalized AST, which replaces the resident
// when it is deeper. A nil cache has no tier: the side is inferred on e
// and kept by no one.
func (pc *Cache) updateSide(schemaFP string, u *xquery.PreparedUpdate, e *cdag.Engine) *cdag.UpdateSide {
	if pc == nil {
		return e.InferUpdate(u.Norm)
	}
	k := sideKey{schemaFP, u.Digest}
	if s, ok := pc.u.Lookup(k, func(s *cdag.UpdateSide) bool { return s.Fits(e) }); ok {
		return s
	}
	s := e.InferUpdate(u.Norm)
	pc.u.Put(k, s, s.Deeper)
	return s
}

// get returns the resident plan under k, building and caching one on
// first sight. The build closure may abort via guard (budget overrun,
// injected fault) — nothing is cached in that case. The returned bool
// reports warm provenance: true only for a verified hit; a request
// that loses a build race to a concurrent one reports cold, since it
// paid the cold cost.
func (pc *Cache) get(k key, build func() *CompiledExpr) (*CompiledExpr, bool) {
	if pc == nil {
		return build(), false
	}
	ce, warm, _ := pc.c.Get(k, func() (*CompiledExpr, error) { return build(), nil })
	return ce, warm
}

// PurgeSchema drops every resident plan and update side inferred under
// the schema fingerprint, returning how many plans were dropped. The
// quarantine path uses it after an audit disagreement: a verdict or an
// update side cached under a suspect schema must not outlive the
// suspicion, so containment purges both tiers alongside the
// compiled-schema cache and the next request re-infers from a freshly
// compiled artifact.
func (pc *Cache) PurgeSchema(schemaFP string) int {
	if pc == nil {
		return 0
	}
	pc.u.Purge(func(k sideKey, _ *cdag.UpdateSide) bool { return k.schemaFP == schemaFP })
	return pc.c.Purge(func(k key, _ *CompiledExpr) bool { return k.schemaFP == schemaFP })
}

// CacheStats is a point-in-time snapshot of a plan cache, exposed by
// the daemon's /statz endpoint. The embedded counters are the plan
// tier's; Update holds the update tier's.
type CacheStats struct {
	lru.Stats
	Update lru.Stats `json:"update"`
	// Schemas summarises resident plans per schema fingerprint, sorted
	// by fingerprint.
	Schemas []SchemaPlanStat `json:"schemas,omitempty"`
}

// SchemaPlanStat counts the resident plans of one schema.
type SchemaPlanStat struct {
	Fingerprint string `json:"fingerprint"`
	Plans       int    `json:"plans"`
}

// Stats returns a snapshot of the cache counters and residents.
func (pc *Cache) Stats() CacheStats {
	if pc == nil {
		return CacheStats{}
	}
	st := CacheStats{Stats: pc.c.Stats(), Update: pc.u.Stats()}
	perSchema := make(map[string]int)
	pc.c.Range(func(k key, _ *CompiledExpr) bool {
		perSchema[k.schemaFP]++
		return true
	})
	for fp, n := range perSchema {
		st.Schemas = append(st.Schemas, SchemaPlanStat{Fingerprint: fp, Plans: n})
	}
	sort.Slice(st.Schemas, func(i, j int) bool {
		return st.Schemas[i].Fingerprint < st.Schemas[j].Fingerprint
	})
	return st
}

// TierStats returns the counters of the plan tier and of the update
// tier, without the per-schema summary Stats walks the residents for.
func (pc *Cache) TierStats() (plans, updates lru.Stats) {
	if pc == nil {
		return lru.Stats{}, lru.Stats{}
	}
	return pc.c.Stats(), pc.u.Stats()
}

// Residents returns the resident plans in LRU order, most-recently-hit
// first (test support: the chaos suite sweeps them with Verify to
// assert no injected corruption ever reached the cache).
func (pc *Cache) Residents() []*CompiledExpr {
	if pc == nil {
		return nil
	}
	var out []*CompiledExpr
	pc.c.Range(func(_ key, ce *CompiledExpr) bool {
		out = append(out, ce)
		return true
	})
	return out
}

// DefaultCacheSize is the resident-plan bound used when a caller asks
// for a cache without sizing it. 4096 plans comfortably hold the full
// XMark view×update matrix (36×31 = 1116) per schema.
const DefaultCacheSize = 4096
