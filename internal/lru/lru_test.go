package lru

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func keys(c *Cache[string, int]) []string {
	var out []string
	c.Range(func(k string, _ int) bool {
		out = append(out, k)
		return true
	})
	return out
}

func get(t *testing.T, c *Cache[string, int], k string, v int) (int, bool) {
	t.Helper()
	got, hit, err := c.Get(k, func() (int, error) { return v, nil })
	if err != nil {
		t.Fatalf("Get(%q): %v", k, err)
	}
	return got, hit
}

// TestEvictionOrder pins the deterministic eviction order: the
// least-recently-hit resident goes first, and a hit refreshes recency.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3, nil)
	for i, k := range []string{"a", "b", "c"} {
		if _, hit := get(t, c, k, i); hit {
			t.Fatalf("first Get(%q) reported a hit", k)
		}
	}
	if _, hit := get(t, c, "a", -1); !hit {
		t.Fatal("resident missed")
	}
	if got, want := keys(c), []string{"a", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after hit = %v, want %v", got, want)
	}
	get(t, c, "d", 3)
	if got, want := keys(c), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after eviction = %v, want %v", got, want)
	}
	get(t, c, "b", 1)
	if got, want := keys(c), []string{"b", "d", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after rebuilding the victim = %v, want %v", got, want)
	}
	want := Stats{Hits: 1, Misses: 5, Evictions: 2, Resident: 3}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestLookupFitsAndPut: a resident Lookup's fits rejects is a miss
// and stays cached; Put replaces a resident only when asked, which is
// neither a purge nor an eviction, and puts a new key in the LRU slot.
func TestLookupFitsAndPut(t *testing.T) {
	c := New[string, int](1, nil)
	atLeast := func(n int) func(int) bool { return func(v int) bool { return v >= n } }
	deeper := func(v int) func(int) bool { return func(old int) bool { return v > old } }
	if _, ok := c.Lookup("u", atLeast(3)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("u", 3, deeper(3))
	if v, ok := c.Lookup("u", atLeast(2)); !ok || v != 3 {
		t.Fatalf("Lookup of a fitting resident = %d, %v", v, ok)
	}
	if _, ok := c.Lookup("u", atLeast(5)); ok {
		t.Fatal("a resident fits rejects was served")
	}
	c.Put("u", 2, deeper(2))
	if v, _ := c.Lookup("u", nil); v != 3 {
		t.Fatalf("Put replaced the resident with a shallower value: %d", v)
	}
	c.Put("u", 5, deeper(5))
	if v, _ := c.Lookup("u", nil); v != 5 {
		t.Fatalf("Put kept the resident over a deeper value: %d", v)
	}
	c.Put("w", 1, deeper(1))
	if got, want := keys(c), []string{"w"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("residents after a new key = %v, want %v", got, want)
	}
	want := Stats{Hits: 3, Misses: 2, Evictions: 1, Resident: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestPurge(t *testing.T) {
	c := New[string, int](8, nil)
	for i, k := range []string{"a1", "b1", "a2", "b2"} {
		get(t, c, k, i)
	}
	n := c.Purge(func(k string, _ int) bool { return k[0] == 'a' })
	if n != 2 {
		t.Fatalf("Purge dropped %d, want 2", n)
	}
	if got, want := keys(c), []string{"b2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	if n := c.Purge(func(k string, _ int) bool { return k == "a1" }); n != 0 {
		t.Fatalf("purging an absent key dropped %d", n)
	}
	if _, hit := get(t, c, "a1", 0); hit {
		t.Fatal("purged key served as a hit")
	}
	if st := c.Stats(); st.Purges != 2 || st.Resident != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestVerifyOnHit checks that a resident failing verification is
// dropped, rebuilt and counted, never served.
func TestVerifyOnHit(t *testing.T) {
	bad := map[int]bool{}
	c := New[string, int](4, func(v int) error {
		if bad[v] {
			return errors.New("corrupt")
		}
		return nil
	})
	get(t, c, "k", 1)
	bad[1] = true
	got, hit := get(t, c, "k", 2)
	if hit || got != 2 {
		t.Fatalf("corrupt resident: got %d hit %v, want a rebuilt 2", got, hit)
	}
	if got, hit := get(t, c, "k", 3); !hit || got != 2 {
		t.Fatalf("rebuilt resident: got %d hit %v, want a hit on 2", got, hit)
	}
	want := Stats{Hits: 1, Misses: 2, VerifyFailures: 1, Resident: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestFailedBuildsCacheNothing covers both ways a build can fail: an
// error is returned to the caller, a panic unwinds through Get; either
// way nothing is cached and the lock is free.
func TestFailedBuildsCacheNothing(t *testing.T) {
	c := New[string, int](4, nil)
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("build error = %v, want %v", err, boom)
	}
	func() {
		defer func() { _ = recover() }()
		c.Get("k", func() (int, error) { panic("abort") })
	}()
	if st := c.Stats(); st.Resident != 0 || st.Misses != 2 {
		t.Fatalf("failed builds left state behind: %+v", st)
	}
	if _, hit := get(t, c, "k", 1); hit {
		t.Fatal("failed build cached")
	}
}

// TestFirstResultWins has a second build of the same key finish while
// the first is still running: the first result cached is what both
// callers get, and both report a miss.
func TestFirstResultWins(t *testing.T) {
	c := New[string, int](4, nil)
	got, hit, err := c.Get("k", func() (int, error) {
		if _, hit := get(t, c, "k", 1); hit {
			t.Error("inner build reported a hit")
		}
		return 2, nil
	})
	if err != nil || hit || got != 1 {
		t.Fatalf("losing build: got %d hit %v err %v, want the resident 1 as a miss", got, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Resident != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentGetsShareOneValue(t *testing.T) {
	c := New[string, *int](2, nil)
	var wg sync.WaitGroup
	got := make([]*int, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _ := c.Get("k", func() (*int, error) { return new(int), nil })
			got[i] = v
			c.Get("other", func() (*int, error) { return new(int), nil })
		}(i)
	}
	wg.Wait()
	for _, v := range got[1:] {
		if v != got[0] {
			t.Fatal("concurrent Gets returned distinct values")
		}
	}
	if st := c.Stats(); st.Hits+st.Misses != 32 || st.Resident != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRangeStopsEarly(t *testing.T) {
	c := New[string, int](4, nil)
	for i, k := range []string{"a", "b", "c"} {
		get(t, c, k, i)
	}
	var seen []string
	c.Range(func(k string, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if want := []string{"c", "b"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("Range visited %v, want %v", seen, want)
	}
}

func TestHitAllocatesNothing(t *testing.T) {
	type key struct{ a, b string }
	c := New[key, *int](4, func(*int) error { return nil })
	k := key{"schema", "pair"}
	c.Get(k, func() (*int, error) { return new(int), nil })
	cold := func() (*int, error) {
		t.Fatal("hit ran the build")
		return nil, nil
	}
	if n := testing.AllocsPerRun(100, func() { c.Get(k, cold) }); n != 0 {
		t.Fatalf("hit allocates %v times, want 0", n)
	}
}

// GetBytes finds a resident by the bytes of its key without allocating,
// and a miss keys the new resident by a copy: overwriting the bytes it
// was built from leaves the resident where it was.
func TestGetBytesHitAllocatesNothing(t *testing.T) {
	c := New[string, *int](4, nil)
	buf := []byte("schema A")
	GetBytes(c, buf, func() (*int, error) { return new(int), nil })
	cold := func() (*int, error) {
		t.Fatal("hit ran the build")
		return nil, nil
	}
	if n := testing.AllocsPerRun(100, func() { GetBytes(c, buf, cold) }); n != 0 {
		t.Fatalf("GetBytes hit allocates %v times, want 0", n)
	}
	copy(buf, "schema B")
	if _, hit, _ := GetBytes(c, buf, func() (*int, error) { return new(int), nil }); hit {
		t.Fatal("schema B hit the resident built for schema A")
	}
	if _, hit, _ := GetBytes(c, []byte("schema A"), cold); !hit {
		t.Fatal("schema A's resident lost its key when its bytes were overwritten")
	}
	if st := c.Stats(); st.Hits != 102 || st.Misses != 2 || st.Resident != 2 {
		t.Fatalf("stats = %+v, want 102 hits, 2 misses, 2 resident", st)
	}
}
