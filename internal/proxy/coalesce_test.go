package proxy

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gengar/internal/simnet"
)

// stageQuiesced stages records while the flush workers are parked
// inside an exclusive task, so every record is queued before any worker
// wakes — the whole set drains as one coalescable batch. At most the
// worker queue depth (8) records fit without blocking the task.
func stageQuiesced(t *testing.T, h *harness, reqs []StageReq) {
	t.Helper()
	err := h.engine.Submit(func() {
		for _, r := range reqs {
			if _, err := h.writer.Stage(0, r.Addr, r.NvmOff, r.Data); err != nil {
				t.Errorf("Stage: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceAdjacentMergesToOneWrite(t *testing.T) {
	h := newHarness(t, 16, 256+slotHeaderBytes, nil)
	reqs := []StageReq{
		{Addr: gaddr(0), NvmOff: 0, Data: bytes.Repeat([]byte{'a'}, 64)},
		{Addr: gaddr(64), NvmOff: 64, Data: bytes.Repeat([]byte{'b'}, 64)},
		{Addr: gaddr(128), NvmOff: 128, Data: bytes.Repeat([]byte{'c'}, 64)},
	}
	stageQuiesced(t, h, reqs)
	h.writer.Drain()
	st := h.engine.Stats()
	if st.Flushed != 3 {
		t.Fatalf("flushed %d, want 3", st.Flushed)
	}
	if st.NVMWrites != 1 || st.Coalesced != 2 {
		t.Fatalf("adjacent records not merged: %d NVM writes, %d coalesced", st.NVMWrites, st.Coalesced)
	}
	if st.BytesFlushed != 192 {
		t.Fatalf("BytesFlushed = %d, want 192", st.BytesFlushed)
	}
	got := make([]byte, 192)
	if err := h.nvm.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)...), bytes.Repeat([]byte{'c'}, 64)...)
	if !bytes.Equal(got, want) {
		t.Fatal("merged NVM content differs from sequential flushes")
	}
}

func TestCoalesceOverlapOutOfOrderLastWins(t *testing.T) {
	// Overlapping ranges staged in descending-offset order: the merged
	// write must apply staging order, not offset order, wherever they
	// overlap — byte-identical to flushing each record on its own.
	h := newHarness(t, 16, 256+slotHeaderBytes, nil)
	reqs := []StageReq{
		{Addr: gaddr(100), NvmOff: 100, Data: bytes.Repeat([]byte{'X'}, 100)}, // [100,200)
		{Addr: gaddr(50), NvmOff: 50, Data: bytes.Repeat([]byte{'Y'}, 100)},   // [50,150): wins on [100,150)
		{Addr: gaddr(0), NvmOff: 0, Data: bytes.Repeat([]byte{'Z'}, 80)},      // [0,80):   wins on [50,80)
	}
	shadow := make([]byte, 200)
	for _, r := range reqs {
		copy(shadow[r.NvmOff:], r.Data)
	}
	stageQuiesced(t, h, reqs)
	h.writer.Drain()
	st := h.engine.Stats()
	if st.NVMWrites != 1 || st.Coalesced != 2 {
		t.Fatalf("overlapping records not merged: %d NVM writes, %d coalesced", st.NVMWrites, st.Coalesced)
	}
	if st.BytesFlushed != 200 {
		t.Fatalf("BytesFlushed = %d, want the 200-byte union", st.BytesFlushed)
	}
	got := make([]byte, 200)
	if err := h.nvm.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("merged NVM content differs from sequential flushes")
	}
}

func TestCoalescePropertyByteIdentical(t *testing.T) {
	// Property: for random batches of overlapping, adjacent, and
	// out-of-order records, the coalesced persist leaves NVM exactly as
	// sequential per-record flushes would.
	const region = 2048
	h := newHarness(t, 16, 256+slotHeaderBytes, nil)
	shadow := make([]byte, region)
	rng := rand.New(rand.NewSource(0xC0A1E5CE))
	for round := 0; round < 25; round++ {
		reqs := make([]StageReq, 8)
		for i := range reqs {
			size := 1 + rng.Intn(128)
			off := int64(rng.Intn(region - size))
			data := make([]byte, size)
			rng.Read(data)
			reqs[i] = StageReq{Addr: gaddr(off), NvmOff: off, Data: data}
			copy(shadow[off:], data)
		}
		stageQuiesced(t, h, reqs)
		h.writer.Drain()
		got := make([]byte, region)
		if err := h.nvm.ReadRaw(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("round %d: merged NVM content diverged from sequential flushes", round)
		}
	}
	st := h.engine.Stats()
	if st.Flushed != 25*8 {
		t.Fatalf("flushed %d, want %d", st.Flushed, 25*8)
	}
	// Random 128-byte ranges in a 2 KiB region overlap constantly; the
	// merge ratio over the whole run must beat 1.
	if st.NVMWrites >= st.Flushed {
		t.Fatalf("no merging happened: %d NVM writes for %d records", st.NVMWrites, st.Flushed)
	}
}

func TestRunMergingUnit(t *testing.T) {
	// Drive the batch scratch directly: sort, span, assemble — the exact
	// entry points the alloc gate (flush_alloc_test.go) measures.
	b := &flushBatch{}
	b.reset()
	recs := []struct {
		off  int64
		data string
	}{
		{40, "AAAAAAAAAA"}, // [40,50)
		{0, "BBBBBBBBBB"},  // [0,10)
		{45, "CCCCCCCCCC"}, // [45,55): overlaps first, staged later
		{10, "DDDDDDDDDD"}, // [10,20): adjacent to second
	}
	shadow := make([]byte, 55)
	for i := range shadow {
		shadow[i] = '.'
	}
	for _, r := range recs {
		b.add(record{nvmOff: r.off, size: len(r.data)})
		copy(b.payload(len(r.data)), r.data)
		b.off = append(b.off, len(b.data)-len(r.data))
		copy(shadow[r.off:], r.data)
	}
	b.sortByNVMOff()
	if want := []int{1, 3, 0, 2}; len(b.idx) != len(want) {
		t.Fatalf("idx = %v", b.idx)
	} else {
		for i, w := range want {
			if b.idx[i] != w {
				t.Fatalf("idx = %v, want %v", b.idx, want)
			}
		}
	}
	// First run: [0,20) — records 1 and 3 touch.
	hi, runOff, runEnd := b.runSpan(0)
	if hi != 2 || runOff != 0 || runEnd != 20 {
		t.Fatalf("run 1 = [%d,%d) span %d", runOff, runEnd, hi)
	}
	b.assembleRun(0, hi, runOff, runEnd)
	if string(b.run) != string(shadow[0:20]) {
		t.Fatalf("run 1 bytes %q", b.run)
	}
	// Second run: [40,55) — records 0 and 2 overlap, 2 staged later wins.
	hi2, runOff, runEnd := b.runSpan(hi)
	if hi2 != 4 || runOff != 40 || runEnd != 55 {
		t.Fatalf("run 2 = [%d,%d) span %d", runOff, runEnd, hi2)
	}
	b.assembleRun(hi, hi2, runOff, runEnd)
	if string(b.run) != string(shadow[40:55]) {
		t.Fatalf("run 2 bytes %q, want %q", b.run, shadow[40:55])
	}
}

func TestFlushVsReadStress(t *testing.T) {
	// Race-mode stress: flushers coalescing overlapping records while
	// foreground readers hammer the same NVM ranges.
	h := newHarness(t, 32, 256+slotHeaderBytes, nil)
	const writers, readers, iters = 2, 2, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(w)}, 96)
			for i := 0; i < iters; i++ {
				off := int64((i % 8) * 64) // heavy overlap across iterations
				if _, err := h.writer.Stage(0, gaddr(off), off, data); err != nil {
					t.Errorf("Stage: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			at := simnet.Time(0)
			for i := 0; i < iters; i++ {
				end, err := h.nvm.Read(at, int64((i%8)*64), buf)
				if err != nil {
					t.Errorf("Read: %v", err)
					return
				}
				at = end.Add(simnet.Duration(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	h.writer.Drain()
	if st := h.engine.Stats(); st.Flushed != writers*iters {
		t.Fatalf("flushed %d, want %d", st.Flushed, writers*iters)
	}
}
