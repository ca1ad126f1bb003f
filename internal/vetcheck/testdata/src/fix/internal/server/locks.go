// Firing and non-firing fixtures for lockdiscipline: double lock,
// unlock of a cold mutex, blocking operations under a lock, a leak
// past return, interprocedural re-acquisition, a seeded two-lock
// order inversion, and sync.Cond waits under their own lock and others.
package server

import "sync"

type Gate struct {
	mu sync.Mutex
	ch chan int
}

func doubleLock(g *Gate) {
	g.mu.Lock()
	g.mu.Lock() // want "acquired while already held"
	g.mu.Unlock()
}

func unlockCold(g *Gate) {
	g.mu.Unlock() // want "unlocked but not provably held"
}

func sendUnderLock(g *Gate) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- 1 // want "channel send while holding"
}

func recvUnderLock(g *Gate) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want "channel receive while holding"
}

// A select with a default never blocks: the enqueue idiom is legal
// under a lock.
func trySendUnderLock(g *Gate) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.ch <- 1:
	default:
	}
}

func leak(g *Gate, c bool) {
	g.mu.Lock() // want "may still be held at return"
	if c {
		g.mu.Unlock()
	}
}

// Releasing on every path (including early return) is clean.
func branchRelease(g *Gate, c bool) {
	g.mu.Lock()
	if c {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
}

// Re-acquisition through a callee, caught by the interprocedural
// may-acquire summary.
func outer(g *Gate) {
	g.mu.Lock()
	defer g.mu.Unlock()
	inner(g) // want "may re-acquire"
}

func inner(g *Gate) {
	g.mu.Lock()
	g.mu.Unlock()
}

// Two functions taking the same pair of locks in opposite orders: a
// cycle in the module-wide acquisition-order graph.
type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func lockAB(p *pair) {
	p.a.Lock()
	p.b.Lock() // want "lock-order inversion"
	p.b.Unlock()
	p.a.Unlock()
}

func lockBA(p *pair) {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// A sync.Cond's Wait releases the Cond's own L while it blocks, so
// waiting with only that lock held is the condition-variable idiom,
// not a hazard. idle's L is bound by sync.NewCond and ready's by an
// assignment to L; loose's L is never bound in the module.
type condBox struct {
	mu      sync.Mutex
	other   sync.Mutex
	idle    *sync.Cond
	loose   *sync.Cond
	ready   sync.Cond
	pending int
}

func newCondBox() *condBox {
	b := &condBox{}
	b.idle = sync.NewCond(&b.mu)
	b.ready.L = &b.mu
	return b
}

func waitOwnLock(b *condBox) {
	b.mu.Lock()
	for b.pending > 0 {
		b.idle.Wait()
	}
	for b.pending < 0 {
		b.ready.Wait()
	}
	b.mu.Unlock()
}

// Wait releases mu only: the other lock stays held while it blocks.
func waitOtherLock(b *condBox) {
	b.other.Lock()
	b.mu.Lock()
	for b.pending > 0 {
		b.idle.Wait() // want "blocking point while holding internal/server.condBox.other: waits on a sync.Cond"
	}
	b.mu.Unlock()
	b.other.Unlock()
}

// With L unresolved, the Wait is judged against every held lock.
func waitUnresolved(b *condBox) {
	b.mu.Lock()
	for b.pending > 0 {
		b.loose.Wait() // want "blocking point while holding internal/server.condBox.mu: waits on a sync.Cond"
	}
	b.mu.Unlock()
}
