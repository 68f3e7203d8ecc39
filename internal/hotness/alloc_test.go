//go:build !race

// Allocation gates for staging, the sketch and the planner. The race
// detector instruments allocations, so these run only in normal builds;
// the same calls run under -race in hotness_test.go.

package hotness

import (
	"testing"

	"gengar/internal/region"
)

// TestObserveAllocs pins staging an access at zero allocations, the
// digests it triggers included, once the buffers and the fold scratch
// have grown.
func TestObserveAllocs(t *testing.T) {
	s := NewStaging(64)
	var digests int
	send := func(e []Entry) { digests += len(e) }
	i := int64(0)
	observe := func() {
		i++
		s.Observe(ga((i%16)*64), i%3 == 0, send)
	}
	for j := 0; j < 64; j++ {
		observe()
	}
	if avg := testing.AllocsPerRun(20*64, observe); avg != 0 {
		t.Fatalf("Observe: %.2f allocs/op, want 0", avg)
	}
	if digests == 0 {
		t.Fatal("no digest fired inside the measured loop")
	}
}

// TestAddAllocs pins Add at zero allocations once the sketch is full,
// across halvings: a counter that ages out is kept and handed to the
// next key that needs one.
func TestAddAllocs(t *testing.T) {
	const k = 256
	s := NewSpaceSaving(k)
	i := int64(0)
	add := func() {
		// A rotating hot set over a long cold tail: steals, in-place
		// increments, and (every 4096 adds) a halving that drops the
		// tail's counters.
		i++
		if i%4 == 0 {
			s.Add(ga((i%4096)*64), 1)
		} else {
			s.Add(ga((i%64)*64), 1)
		}
	}
	for s.Len() < k {
		add()
	}
	if avg := testing.AllocsPerRun(20*DecayWeightPerCounter*k, add); avg != 0 {
		t.Fatalf("Add on a full sketch: %.2f allocs/op, want 0", avg)
	}
}

// TestRebalanceSteadyStateAllocs pins a promotion round that moves
// nothing at zero allocations.
func TestRebalanceSteadyStateAllocs(t *testing.T) {
	s, p, stream := steadySketch()
	var promote, demote [16]region.GAddr
	avg := testing.AllocsPerRun(200, func() {
		stream()
		if pr, de := p.Rebalance(s, sizeConst(64), promote[:0], demote[:0]); len(pr)+len(de) != 0 {
			t.Fatalf("stable stream moved +%v -%v", pr, de)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state round: %.2f allocs, want 0", avg)
	}
}
