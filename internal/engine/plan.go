package engine

import (
	"encoding/binary"
	"slices"

	"gengar/internal/cache"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

// MaybePlan runs a promotion round when an epoch has passed: either
// PlanEvery of engine time since the last round, or the sketch's total
// observed weight doubling (so a burst of fresh access information is
// acted on even when little time has elapsed).
//
// The round itself (hotness.Policy.Rebalance) reads the sketch's heap
// tops under e.mu and costs O(objects that move). Only a round that
// moves something goes on to the proxy flusher: executePlan runs with
// every flush worker quiesced, so a copy install can never race a
// write-through of the same object. With a stable hot set most rounds
// end here, having touched nothing but the sketch.
func (e *Engine) MaybePlan(at simnet.Time) {
	if e.placer == nil {
		return // mount has not enabled promotion
	}
	e.mu.Lock()
	total := e.sketch.Total()
	elapsed := !e.planned || at.Sub(e.lastPlan) >= e.cfg.Hotness.PlanEvery
	grown := total >= 2*e.lastPlanWeight && total > 0
	// Never plan without fresh access information, and one round at a
	// time: the one in flight owns the promote and demote lists.
	if e.newWeight == 0 || (!elapsed && !grown) || !e.planning.CompareAndSwap(false, true) {
		e.mu.Unlock()
		return
	}
	e.planned = true
	e.lastPlan = at
	e.lastPlanWeight = total
	e.newWeight = 0
	e.mu.Unlock()
	defer e.planning.Store(false)

	// Capacity-aware planning: the placer reports the aggregate DRAM the
	// plan may budget copies against — the local arena alone for a local
	// placer, local plus live peers' advertised arenas for a peer placer.
	// Queried outside e.mu (the placer may consult link state with its
	// own locking), and re-read each round so the budget tracks peers
	// joining and dying: a shrunk budget demotes the overflow, which
	// releases the dead peer's copies.
	pol := e.policy
	if b := e.placer.CopyBudget(); b > 0 {
		pol.BudgetBytes = b
	}
	e.mu.Lock()
	e.promote, e.demote = pol.Rebalance(e.sketch, e.CopyFootprint, e.promote[:0], e.demote[:0])
	e.mu.Unlock()
	if len(e.promote)+len(e.demote) > 0 {
		// Best-effort: if the flusher is closing, skip the round. The
		// task is bound once in New and reads the instant from planAt,
		// which this round owns like promote and demote.
		e.planAt = at
		_ = e.flusher.Submit(e.planTask)
	}
}

// CopyFootprint returns the DRAM arena bytes a promoted copy of the
// object actually consumes: its 16-byte header plus data, rounded to the
// arena's 64-byte granules (cache.CopyFootprint). Budgeting the
// footprint rather than the object size keeps plans honest: a plan that
// fits the budget fits the arena, so promotion and demotion do not
// thrash at its edge.
func (e *Engine) CopyFootprint(base region.GAddr) int64 {
	return cache.CopyFootprint(e.objIdx.sizeOf(base))
}

// executePlan carries out the round MaybePlan computed into e.promote
// and e.demote, at instant at. It must only run on the flusher
// goroutine. Demotions go first, so that the arena space they release
// is there for the round's promotions; a round that does both bumps the
// remap epoch twice. Its batches and the copy image reuse engine
// scratch (rounds are exclusive), so a swap allocates only the remap
// entries it publishes.
//
//gengar:hotpath
func (e *Engine) executePlan(at simnet.Time) {
	e.released = e.dropCopies(e.demote, e.released[:0])
	if len(e.promote) == 0 {
		return
	}
	e.adds = e.adds[:0]
	for _, base := range e.promote {
		if loc, ok := e.installCopy(at, base); ok {
			e.adds = append(e.adds, cache.RemapAdd{Addr: base, Loc: loc})
			e.promotions.Inc()
		}
	}
	e.remap.Apply(e.adds, nil, nil)
	if len(e.adds) == len(e.promote) {
		return
	}
	// The sketch already counts every planned promotion as resident;
	// take back the ones that did not happen. e.adds lists the ones that
	// did, in promote order.
	e.mu.Lock()
	done := e.adds
	for _, base := range e.promote {
		if len(done) > 0 && done[0].Addr == base {
			done = done[1:]
			continue
		}
		e.sketch.ClearResident(base)
	}
	e.mu.Unlock()
}

// installCopy places a DRAM copy of the object at base and fills it
// from the authoritative NVM data, building the copy image in the
// engine's scratch buffer. It reports false when the object was freed
// since the round was computed, the arena is full, or the copy could
// not be written; the next round tries again.
//
//gengar:hotpath
func (e *Engine) installCopy(at simnet.Time, base region.GAddr) (cache.Location, bool) {
	size := e.objIdx.sizeOf(base)
	if size <= 0 {
		return cache.Location{}, false
	}
	loc, err := e.placer.PlaceCopy(size)
	if err != nil {
		return cache.Location{}, false
	}
	n := int(cache.CopyHeaderBytes + size)
	e.copyBuf = slices.Grow(e.copyBuf[:0], n)
	payload := e.copyBuf[:n]
	binary.BigEndian.PutUint64(payload[cache.CopyGenOff:], loc.Gen)
	binary.BigEndian.PutUint64(payload[cache.CopySeqOff:], 0)
	tRead, err := e.nvm.Read(at, base.Offset(), payload[cache.CopyHeaderBytes:])
	if err == nil {
		_, err = e.placer.InstallCopy(tRead, loc, payload)
	}
	if err != nil {
		e.placer.Release(loc)
		return cache.Location{}, false
	}
	return loc, true
}

// dropCopies removes the remap entries of bases and releases whatever
// locations the table still held for them, which it appends to released
// and returns. Apply serializes concurrent callers, so exactly one
// receives (and releases) each location. A promotion round passes the
// engine's scratch; any other caller runs beside a round and passes a
// buffer of its own.
func (e *Engine) dropCopies(bases []region.GAddr, released []cache.Location) []cache.Location {
	n := len(released)
	released = e.remap.Apply(nil, bases, released)
	for _, loc := range released[n:] {
		e.releaseCopy(loc)
		e.demotions.Inc()
	}
	return released
}

// writeCopy routes a copy update through the placer (which knows whether
// the copy is local or on a peer). Without a placer the engine never has
// promoted copies, so this is unreachable; it degrades to a no-op.
func (e *Engine) writeCopy(at simnet.Time, loc cache.Location, delta int64, data []byte) (simnet.Time, error) {
	if e.placer == nil {
		return at, nil
	}
	return e.placer.WriteCopy(at, loc, delta, data)
}

// releaseCopy returns a demoted copy's arena space through the placer.
func (e *Engine) releaseCopy(loc cache.Location) {
	if e.placer == nil {
		return
	}
	e.placer.Release(loc)
}
