//go:build !race

// Allocation gate for the promotion planner. The race detector
// instruments allocations, so this runs only in normal builds; the same
// calls run under -race in plan_test.go.

package engine

import (
	"testing"

	"gengar/internal/cache"
)

// TestPlanRoundAllocs pins a digest and the promotion round it triggers
// at zero allocations when the round has nothing to move, with the
// sketch full (4096 counters) and 2048 copies resident: no sorted copy
// of the sketch, no promoted-set map, no remap clone, no closure for the
// flusher.
func TestPlanRoundAllocs(t *testing.T) {
	s := newPlanStream(t, 2048, func(e *Engine) Placer { return NewLocalPlacer(e) })
	epoch := s.eng.Stats().RemapEpoch
	if avg := testing.AllocsPerRun(2000, func() { s.digest() }); avg != 0 {
		t.Fatalf("digest + steady-state round: %.2f allocs, want 0", avg)
	}
	if got := s.eng.Stats().RemapEpoch; got != epoch {
		t.Fatalf("a stationary stream moved copies (epoch %d -> %d)", epoch, got)
	}
}

// TestPlanSwapAllocs: one steady-state round that demotes one object and
// promotes another — quiesced on the flusher the way MaybePlan submits
// it — allocates only the remap entry it publishes. The remap batch, the
// demoted locations and the copy image are engine scratch, and the
// quiesce reuses its park task, wait group and resume channel.
func TestPlanSwapAllocs(t *testing.T) {
	eng, addrs := newPlanEngine(t, 256, 2, 3)
	var clk planClock
	fillCache(t, eng, &clk, addrs, 2)
	in, out := addrs[2], addrs[1]
	swap := func() {
		eng.promote = append(eng.promote[:0], in)
		eng.demote = append(eng.demote[:0], out)
		eng.planAt = clk.next()
		if err := eng.flusher.Submit(eng.planTask); err != nil {
			t.Fatal(err)
		}
		in, out = out, in
	}
	swap()
	before := eng.Stats()
	const runs = 200
	if avg := testing.AllocsPerRun(runs, swap); avg > 1 {
		t.Fatalf("a one-in one-out swap: %.2f allocs, want at most the 1 remap entry it publishes", avg)
	}
	after := eng.Stats()
	// AllocsPerRun makes one warm-up call before the measured runs.
	if moved := after.Promotions - before.Promotions; moved != runs+1 || after.Demotions-before.Demotions != runs+1 {
		t.Fatalf("%d promotions, %d demotions in %d swaps", moved, after.Demotions-before.Demotions, runs+1)
	}
	if after.Promoted != 2 || after.BufferUsed != 2*cache.CopyFootprint(1024) {
		t.Fatalf("after the swaps: %+v", after)
	}
}
