// Package lru is the module's one bounded cache: a hit-ordered
// least-recently-used memo that every cache tier (the schema member's
// bytes as sent → parsed schema, fingerprint → compiled schema,
// (schema, pair) → plan, (schema, update) → update side, and the audit
// lane's oracle documents) is an instance of.
//
// Eviction is deterministic — the least-recently-hit resident goes
// first — so purge→rebuild behaviour is reproducible under chaos
// schedules. Builds run outside the lock, so a slow build never blocks
// hits on other keys; when two builds of one key race, the first result
// cached wins and every caller shares it.
package lru

import "sync"

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran a build, including those that
	// found a resident failing verification or one Lookup's fits
	// rejected.
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Purges counts residents dropped by Purge (quarantine containment)
	// only: Put replacing a resident is neither a purge nor an eviction.
	Purges int64 `json:"purges"`
	// VerifyFailures counts hits whose resident failed verification and
	// was dropped and rebuilt instead of served.
	VerifyFailures int64 `json:"verify_failures"`
	Resident       int64 `json:"resident"`
}

// entry is one resident; entries form a circular list through the
// cache's root, most recently hit first.
type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
}

// Cache is a bounded LRU from K to V, safe for concurrent use. The
// verify function, Lookup's fits, Put's replace, Purge's predicate and
// Range's callback run under the cache lock: they must be quick, must
// not block and must not call back into the cache.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	verify func(V) error
	m      map[K]*entry[K, V]
	// root.next is the most recently hit resident, root.prev the next
	// eviction victim.
	root entry[K, V]
	st   Stats
}

// New returns a cache holding at most max residents (minimum 1). A
// non-nil verify is run on every hit: a resident it rejects is dropped
// and rebuilt instead of served.
func New[K comparable, V any](max int, verify func(V) error) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	c := &Cache[K, V]{max: max, verify: verify, m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the resident value for key, building and caching one on
// a miss. The bool reports a verified hit. build runs outside the lock;
// when it fails (or panics) nothing is cached. When a concurrent build
// of the same key was cached first, Get returns that resident instead
// of its own result and still reports a miss, since it paid for a
// build. A hit allocates nothing.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, bool, error) {
	if v, ok := c.Lookup(key, nil); ok {
		return v, true, nil
	}
	v, err := build()
	if err != nil {
		return v, false, err
	}
	return c.insert(key, v), false, nil
}

// Lookup returns the verified resident for key when fits accepts it (a
// nil fits accepts any), counting the hit or the miss. A resident fits
// rejects stays cached: the caller builds a value of its own and may
// offer it with Put. A hit allocates nothing.
func (c *Cache[K, V]) Lookup(key K, fits func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serve(c.m[key], fits)
}

// Probe is Lookup for a caller that goes on to Get when it finds
// nothing: it counts a hit, but neither a miss nor a resident fits
// rejects, so the Get that follows counts the request once. A resident
// that fails verification is dropped and counted as a verify failure,
// as in Lookup. A hit allocates nothing.
func (c *Cache[K, V]) Probe(key K, fits func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(c.m[key], fits)
}

// GetBytes is Get for a string-keyed cache, looked up by the bytes of
// the key. A hit indexes the map with string(key), which the compiler
// does without converting, so it copies and allocates nothing and
// keeps no reference to key. Only a miss stores a copy of key, so key
// may live in a buffer that is reused once GetBytes returns.
func GetBytes[V any](c *Cache[string, V], key []byte, build func() (V, error)) (V, bool, error) {
	if v, ok := lookupBytes(c, key); ok {
		return v, true, nil
	}
	v, err := build()
	if err != nil {
		return v, false, err
	}
	return c.insert(string(key), v), false, nil
}

// lookupBytes is Lookup by the bytes of the key, accepting any
// verified resident.
func lookupBytes[V any](c *Cache[string, V], key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serve(c.m[string(key)], nil)
}

// serve counts a lookup that found e (nil: no resident) and returns
// e's value when it verifies and fits. The caller holds c.mu.
func (c *Cache[K, V]) serve(e *entry[K, V], fits func(V) bool) (V, bool) {
	v, ok := c.hit(e, fits)
	if !ok {
		c.st.Misses++
	}
	return v, ok
}

// hit returns e's value, counting the hit, when e is a resident that
// verifies and fits; a resident failing verification is dropped. It
// counts no miss. The caller holds c.mu.
func (c *Cache[K, V]) hit(e *entry[K, V], fits func(V) bool) (V, bool) {
	if e != nil {
		switch {
		case c.verify != nil && c.verify(e.val) != nil:
			c.st.VerifyFailures++
			c.remove(e)
		case fits == nil || fits(e.val):
			c.st.Hits++
			c.unlink(e)
			c.pushFront(e)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// insert caches v under key unless a racing build got there first, in
// which case the resident wins; it returns the value now resident.
func (c *Cache[K, V]) insert(key K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil {
		c.unlink(e)
		c.pushFront(e)
		return e.val
	}
	c.add(key, v)
	return v
}

// Put caches v under key. A resident already under key keeps its
// place and is replaced only when replace(resident) holds.
func (c *Cache[K, V]) Put(key K, v V, replace func(resident V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil {
		if replace(e.val) {
			e.val = v
		}
		return
	}
	c.add(key, v)
}

// add caches v under a key with no resident, evicting the least
// recently hit residents to make room.
func (c *Cache[K, V]) add(key K, v V) {
	for len(c.m) >= c.max {
		c.remove(c.root.prev)
		c.st.Evictions++
	}
	e := &entry[K, V]{key: key, val: v}
	c.m[key] = e
	c.pushFront(e)
}

// Purge drops every resident for which pred holds and returns how many
// it dropped.
func (c *Cache[K, V]) Purge(pred func(K, V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.root.next; e != &c.root; {
		next := e.next
		if pred(e.key, e.val) {
			c.remove(e)
			n++
		}
		e = next
	}
	c.st.Purges += int64(n)
	return n
}

// Range calls f on each resident, most recently hit first, until f
// returns false.
func (c *Cache[K, V]) Range(f func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.root.next; e != &c.root; e = e.next {
		if !f(e.key, e.val) {
			return
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Resident = int64(len(c.m))
	return st
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
}
