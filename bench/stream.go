package main

import (
	"math/rand"
	"sync"
)

// passStream is warm-matrix's request stream: whole shuffled passes
// over n pairs, each pass a fresh seeded permutation. Every client
// draws from the one shared stream, so the requests sent depend on the
// seed alone and not on how the clients interleave.
type passStream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	seq  int
	perm []int
}

func newPassStream(seed int64, n int) *passStream {
	return &passStream{rng: rand.New(rand.NewSource(seed)), n: n}
}

// next returns the sequence number of the next draw and its pair
// index, or ok=false once the sequence number reaches end (end < 0
// never does).
func (s *passStream) next(end int) (seq, idx int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if end >= 0 && s.seq >= end {
		return 0, 0, false
	}
	if s.seq%s.n == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	seq = s.seq
	s.seq++
	return seq, s.perm[seq%s.n], true
}

// coldOrder returns the update order of each cold-fig3a pass: pass p
// visits updates in the p-th permutation drawn from the seed.
type coldOrder struct {
	rng *rand.Rand
	n   int
}

func newColdOrder(seed int64, updates int) *coldOrder {
	return &coldOrder{rng: rand.New(rand.NewSource(seed)), n: updates}
}

func (c *coldOrder) pass() []int { return c.rng.Perm(c.n) }
