package plan

import (
	"encoding/hex"
	"sort"

	"xqindep/internal/lru"
)

// Cache is the (schema, pair) → plan tier: a bounded LRU of prepared
// plans keyed by (schema fingerprint, pair digest).
// Verify runs on every hit, so a resident that fails its content
// checksum is dropped and rebuilt instead of served. A hit allocates
// nothing and holds the lock only for a constant-size check. A nil
// *Cache degenerates to an uncached cold build.
type Cache struct {
	c *lru.Cache[planKey, *CompiledExpr]
}

// planKey is a resident's identity: the schema fingerprint and the
// pair digest, held as an array so a lookup hashes it in place.
type planKey struct {
	schemaFP string
	pair     [16]byte
}

// NewCache returns a cache holding at most max plans (minimum 1).
func NewCache(max int) *Cache {
	return &Cache{c: lru.New[planKey, *CompiledExpr](max, (*CompiledExpr).Verify)}
}

// Get returns the resident plan for the schema fingerprint and the
// printed pair fingerprint (xquery.FingerprintPair), building and
// caching one on first sight. The build closure may abort via guard
// (budget overrun, injected fault) — nothing is cached in that case.
// The returned bool reports warm provenance: true only for a verified
// hit; a request that loses a build race to a concurrent one reports
// cold, since it paid the cold cost. A pairFP that is not a printed
// pair fingerprint names no resident: the plan is built and not cached.
func (pc *Cache) Get(schemaFP, pairFP string, build func() *CompiledExpr) (*CompiledExpr, bool) {
	var pair [16]byte
	if len(pairFP) != hex.EncodedLen(len(pair)) {
		return build(), false
	}
	if _, err := hex.Decode(pair[:], []byte(pairFP)); err != nil {
		return build(), false
	}
	return pc.get(planKey{schemaFP, pair}, build)
}

// get is Get under a decoded key.
func (pc *Cache) get(key planKey, build func() *CompiledExpr) (*CompiledExpr, bool) {
	if pc == nil {
		return build(), false
	}
	ce, warm, _ := pc.c.Get(key, func() (*CompiledExpr, error) { return build(), nil })
	return ce, warm
}

// PurgeSchema drops every resident plan inferred under the schema
// fingerprint, returning how many were dropped. The quarantine path
// uses it after an audit disagreement: a verdict cached under a
// suspect schema must not outlive the suspicion, so containment
// purges the plan cache alongside the compiled-schema cache and the
// next request re-infers from a freshly compiled artifact.
func (pc *Cache) PurgeSchema(schemaFP string) int {
	if pc == nil {
		return 0
	}
	return pc.c.Purge(func(k planKey, _ *CompiledExpr) bool { return k.schemaFP == schemaFP })
}

// CacheStats is a point-in-time snapshot of a plan cache, exposed by
// the daemon's /statz endpoint.
type CacheStats struct {
	lru.Stats
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
	st := CacheStats{Stats: pc.c.Stats()}
	perSchema := make(map[string]int)
	pc.c.Range(func(k planKey, _ *CompiledExpr) bool {
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

// Residents returns the resident plans in LRU order, most-recently-hit
// first (test support: the chaos suite sweeps them with Verify to
// assert no injected corruption ever reached the cache).
func (pc *Cache) Residents() []*CompiledExpr {
	if pc == nil {
		return nil
	}
	var out []*CompiledExpr
	pc.c.Range(func(_ planKey, ce *CompiledExpr) bool {
		out = append(out, ce)
		return true
	})
	return out
}

// DefaultCacheSize is the resident-plan bound used when a caller asks
// for a cache without sizing it. 4096 plans comfortably hold the full
// XMark view×update matrix (36×31 = 1116) per schema.
const DefaultCacheSize = 4096

// defaultCache is the process-wide plan cache shared by core and the
// CLIs when no explicit cache is configured.
var defaultCache = NewCache(DefaultCacheSize)

// Shared returns the process-wide plan cache.
func Shared() *Cache { return defaultCache }
