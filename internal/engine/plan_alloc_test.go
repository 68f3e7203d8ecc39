//go:build !race

// Allocation gate for the promotion planner. The race detector
// instruments allocations, so this runs only in normal builds; the same
// calls run under -race in plan_test.go.

package engine

import "testing"

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
