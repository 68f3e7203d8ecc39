//go:build !race

// Allocation gate for the gmalloc/gfree control path. The race detector
// instruments allocations, so this runs only in normal builds; the same
// calls run under -race in objindex_test.go.

package engine

import "testing"

// TestMallocFreeAllocs pins Malloc+Free of an unpromoted object at zero
// allocations with thousands of objects live: the object index flips a
// tag in place, the remap table sees an empty delta and publishes no new
// version, and the slab allocator flips a bit.
func TestMallocFreeAllocs(t *testing.T) {
	eng, _ := newLiveEngine(t, 4096)
	epoch := eng.Remap().Epoch()
	avg := testing.AllocsPerRun(1000, func() {
		a, err := eng.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Free(a); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Malloc+Free: %.1f allocs/op with 4096 live objects, want 0", avg)
	}
	if got := eng.Remap().Epoch(); got != epoch {
		t.Fatalf("remap epoch moved %d -> %d with nothing promoted", epoch, got)
	}
}
