package simnet

import "sync"

// Gate implements conservative time-window synchronization for groups of
// concurrent actors that each carry their own virtual clock (closed-loop
// clients, MapReduce workers).
//
// Without it, wall-clock scheduling leaks into virtual time: the Go
// scheduler may run one actor's entire operation loop before another
// actor starts, so the first actor pushes every shared resource's
// busy-until watermark far into the virtual future and the late actor
// queues behind all of it — phantom serialization that has nothing to do
// with modeled contention. A Gate bounds the skew: an actor whose clock
// is more than the window ahead of the slowest participant blocks (in
// wall time) until the others catch up, so resource timelines see an
// interleaving consistent with virtual time.
//
// The actor with the minimum clock is never blocked, so progress is
// always possible; a zero-participant gate admits everyone.
type Gate struct {
	window Duration

	mu     sync.Mutex
	cond   *sync.Cond
	clocks map[*GateHandle]Time
}

// NewGate returns a gate enforcing the given maximum skew window. A
// non-positive window is treated as zero (lockstep to the resolution of
// single operations).
func NewGate(window Duration) *Gate {
	g := &Gate{window: window, clocks: make(map[*GateHandle]Time)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// GateHandle is one actor's membership in a gate.
type GateHandle struct {
	g *Gate
}

// Join registers a new actor starting at the given virtual time.
func (g *Gate) Join(at Time) *GateHandle {
	h := &GateHandle{g: g}
	g.mu.Lock()
	g.clocks[h] = at
	g.mu.Unlock()
	g.cond.Broadcast()
	return h
}

// minLocked returns the minimum clock over participants. Callers hold
// g.mu and guarantee at least one participant.
func (g *Gate) minLocked() Time {
	first := true
	var m Time
	for _, t := range g.clocks {
		if first || t < m {
			m = t
			first = false
		}
	}
	return m
}

// Advance reports the actor's clock and blocks while it is more than the
// window ahead of the slowest participant.
//
//gengar:hotpath
func (h *GateHandle) Advance(now Time) {
	g := h.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.clocks[h]; !ok {
		return // left already; nothing to pace against
	}
	g.clocks[h] = now
	g.cond.Broadcast()
	for {
		if _, ok := g.clocks[h]; !ok {
			return
		}
		if now <= g.minLocked().Add(g.window) {
			return
		}
		g.cond.Wait()
	}
}

// Leave removes the actor; remaining participants blocked on it wake up.
func (h *GateHandle) Leave() {
	g := h.g
	g.mu.Lock()
	delete(g.clocks, h)
	g.mu.Unlock()
	g.cond.Broadcast()
}
