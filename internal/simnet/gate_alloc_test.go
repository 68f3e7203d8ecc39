//go:build !race

package simnet

import "testing"

// TestGateAdvanceAllocatesNothing: every paced actor reports its clock
// once per op, so a report must not allocate.
func TestGateAdvanceAllocatesNothing(t *testing.T) {
	g := NewGate(Duration(1) << 60)
	hs := []*GateHandle{g.Join(0), g.Join(0), g.Join(0)}
	var now Time
	if a := testing.AllocsPerRun(200, func() {
		now++
		hs[int(now)%len(hs)].Advance(now)
	}); a != 0 {
		t.Fatalf("GateHandle.Advance allocates %.2f times per call", a)
	}
}
