//go:build !race

package proxy

import (
	"runtime"
	"testing"
)

// TestCoalesceAllocFree pins the zero-allocation contract of the
// coalescing flush path: once the batch scratch has grown to its
// high-water mark, sorting, run discovery, and run assembly allocate
// nothing per batch. Race-mode coverage of the same entry points lives
// in coalesce_test.go (see raceguard_test.go).
func TestCoalesceAllocFree(t *testing.T) {
	b := &flushBatch{}
	sweep := func() {
		b.reset()
		for i := 0; i < 32; i++ {
			// Overlapping pattern: 128-byte records every 96 bytes, so
			// every run merges several records.
			off := int64((i % 8) * 96)
			b.add(record{nvmOff: off, size: 128, stagedAt: 1})
			p := b.payload(128)
			for j := range p {
				p[j] = byte(i)
			}
			b.off = append(b.off, len(b.data)-128)
		}
		b.sortByNVMOff()
		for lo := 0; lo < len(b.idx); {
			hi, runOff, runEnd := b.runSpan(lo)
			b.assembleRun(lo, hi, runOff, runEnd)
			lo = hi
		}
	}
	sweep() // grow every scratch slice to its high-water mark
	if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
		t.Fatalf("coalescing allocates %v allocs per batch on the flush path, want 0", allocs)
	}
}

// TestEnqueueAllocFree pins the hand-off of a staged record to its flush
// worker, and the worker's two calls back into the writer, at zero
// allocations: the worker channel carries a concrete item type, so the
// send does not box the record, and the sweep that applies it runs on
// warm scratch. Race-mode coverage of enqueue is every Stage test in
// proxy_test.go.
func TestEnqueueAllocFree(t *testing.T) {
	h := newHarness(t, 8, 256, nil)
	w := h.writer
	rec := record{w: w, addr: gaddr(0), size: 128, stagedAt: 1}
	cycle := func() {
		rec.seq++
		w.pendMu.Lock()
		w.free-- // the slot the worker will hand back
		w.pendMu.Unlock()
		if err := h.engine.enqueue(rec); err != nil {
			t.Fatal(err)
		}
		for { // until the record is applied and the worker idle again
			w.pendMu.Lock()
			done := w.flushed == rec.seq+1
			w.pendMu.Unlock()
			if done {
				break
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ { // grow the worker's batch scratch
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("enqueue→flush: %v allocs per record, want 0", allocs)
	}
	if got := w.FreeSlots(); got != 8 {
		t.Fatalf("FreeSlots = %d after every record was copied out, want 8", got)
	}
}

// TestSubmitAllocFree pins a quiesce at zero allocations: the park task
// each worker runs, the wait group counting them in and the channel that
// resumes them are the engine's, made once. Race-mode coverage of Submit
// is in coalesce_test.go and proxy_test.go.
func TestSubmitAllocFree(t *testing.T) {
	h := newHarness(t, 8, 256, nil)
	var ran int
	task := func() { ran++ }
	submit := func() {
		if err := h.engine.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
		t.Fatalf("Submit: %v allocs per quiesce, want 0", allocs)
	}
	if ran != 201 {
		t.Fatalf("task ran %d times in 201 Submits", ran)
	}
}
