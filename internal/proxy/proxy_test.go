package proxy

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gengar/internal/hmem"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

type harness struct {
	fabric *rdma.Fabric
	nvm    *hmem.Device
	ramDev *hmem.Device
	engine *Engine
	writer *Writer
	qp     *rdma.QP
}

func newHarness(t *testing.T, slots, slotSize int, cacheApply CacheApply) *harness {
	t.Helper()
	f, err := rdma.NewFabric(simnet.LinkModel{
		PerOp:       600 * time.Nanosecond,
		Propagation: 300 * time.Nanosecond,
		BytesPerSec: 12.5e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cn, _ := f.AddNode("client")
	sn, _ := f.AddNode("server")
	nvm, err := hmem.NewDevice("nvm", 1<<20, hmem.OptaneProfile())
	if err != nil {
		t.Fatal(err)
	}
	ramDev, err := hmem.NewDevice("ring-dram", 1<<20, hmem.DRAMProfile())
	if err != nil {
		t.Fatal(err)
	}
	mr, err := sn.RegisterMR(ramDev, 0, ramDev.Size(), rdma.AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{RingDev: ramDev, NVM: nvm, CPU: simnet.NewResource("cpu"), CacheApply: cacheApply})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	cq, sq := cn.NewQP(), sn.NewQP()
	if err := cq.Connect(sq); err != nil {
		t.Fatal(err)
	}
	ring := Ring{
		ID:       1,
		Handle:   mr.Handle(),
		Base:     0,
		DevBase:  0,
		Slots:    slots,
		SlotSize: slotSize,
	}
	w, err := NewWriter(eng, cq, ring)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return &harness{fabric: f, nvm: nvm, ramDev: ramDev, engine: eng, writer: w, qp: cq}
}

func gaddr(off int64) region.GAddr { return region.MustGAddr(1, off) }

func TestNewEngineValidation(t *testing.T) {
	nvm, _ := hmem.NewDevice("nvm", 1<<12, hmem.OptaneProfile())
	dram, _ := hmem.NewDevice("dram", 1<<12, hmem.DRAMProfile())
	cpu := simnet.NewResource("cpu")
	if _, err := NewEngine(Config{NVM: nvm, CPU: cpu}); err == nil {
		t.Fatal("nil ring device accepted")
	}
	if _, err := NewEngine(Config{RingDev: nvm, NVM: nvm, CPU: cpu}); err == nil {
		t.Fatal("NVM ring device accepted")
	}
	if _, err := NewEngine(Config{RingDev: dram, NVM: nvm}); err == nil {
		t.Fatal("nil cpu accepted")
	}
}

func TestRingValidate(t *testing.T) {
	if err := (Ring{Slots: 0, SlotSize: 100}).Validate(); err == nil {
		t.Fatal("zero slots accepted")
	}
	if err := (Ring{Slots: 4, SlotSize: slotHeaderBytes}).Validate(); err == nil {
		t.Fatal("header-only slot accepted")
	}
	r := Ring{Slots: 4, SlotSize: 64}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.MaxPayload() != 64-slotHeaderBytes {
		t.Fatalf("MaxPayload = %d", r.MaxPayload())
	}
}

func TestStageFlushesToNVM(t *testing.T) {
	h := newHarness(t, 8, 4096+slotHeaderBytes, nil)
	payload := bytes.Repeat([]byte{0xAB}, 128)
	stagedAt, err := h.writer.Stage(0, gaddr(256), 256, payload)
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	if stagedAt <= 0 {
		t.Fatal("stage charged no time")
	}
	appliedAt := h.writer.Drain()
	if appliedAt < stagedAt {
		t.Fatalf("applied %v before staged %v", appliedAt, stagedAt)
	}
	got := make([]byte, 128)
	if err := h.nvm.ReadRaw(256, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("NVM content mismatch after flush")
	}
	st := h.engine.Stats()
	if st.Staged != 1 || st.Flushed != 1 || st.BytesFlushed != 128 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FlushLag.Count != 1 || st.FlushLag.Mean <= 0 {
		t.Fatalf("flush lag: %+v", st.FlushLag)
	}
}

func TestStageFasterThanDirectNVMWrite(t *testing.T) {
	// The headline claim of the proxy: staged ack << direct NVM write+ack.
	h := newHarness(t, 8, 4096+slotHeaderBytes, nil)
	payload := make([]byte, 4096)

	stagedAt, err := h.writer.Stage(0, gaddr(0), 0, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Direct write path to NVM for comparison, same fabric parameters.
	sn, _ := h.fabric.Node("server")
	nvmMR, err := sn.RegisterMR(h.nvm, 0, h.nvm.Size(), rdma.AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	cn, _ := h.fabric.Node("client")
	cq, sq := cn.NewQP(), sn.NewQP()
	if err := cq.Connect(sq); err != nil {
		t.Fatal(err)
	}
	directEnd, err := cq.Write(0, payload, rdma.RemoteAddr{Region: nvmMR.Handle(), Offset: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if stagedAt >= directEnd {
		t.Fatalf("staged %v not faster than direct %v", stagedAt, directEnd)
	}
}

func TestFIFOOrderSameAddress(t *testing.T) {
	// Two writes to the same range must apply in order: last wins.
	h := newHarness(t, 8, 1024, nil)
	if _, err := h.writer.Stage(0, gaddr(0), 0, []byte("first-value")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.writer.Stage(0, gaddr(0), 0, []byte("secondvalue")); err != nil {
		t.Fatal(err)
	}
	h.writer.Drain()
	got := make([]byte, 11)
	if err := h.nvm.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "secondvalue" {
		t.Fatalf("NVM = %q, want last write", got)
	}
}

// patterned returns n bytes no two slot-sized pieces of which are equal.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/251)
	}
	return b
}

// checkChunked asserts that the oversized record data, staged at
// offset off, took ⌈len/MaxPayload⌉ slots, reads back through the
// overlay while pending and is byte-identical in NVM once flushed.
func checkChunked(t *testing.T, h *harness, off int64, data []byte, stagedBefore int64) {
	t.Helper()
	maxPayload := h.writer.Ring().MaxPayload()
	want := int64((len(data) + maxPayload - 1) / maxPayload)
	if st := h.engine.Stats(); st.Staged-stagedBefore != want {
		t.Fatalf("%d-byte record took %d slots, want %d", len(data), st.Staged-stagedBefore, want)
	}
	h.writer.Drain()
	got := make([]byte, len(data))
	if err := h.nvm.ReadRaw(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("NVM content differs from the oversized record after flush")
	}
	if st := h.engine.Stats(); st.Flushed != st.Staged {
		t.Fatalf("flushed %d of %d staged", st.Flushed, st.Staged)
	}
}

func TestOversizedStageIsChunked(t *testing.T) {
	h := newHarness(t, 4, 64, nil)
	maxPayload := h.writer.Ring().MaxPayload()
	// One past a slot, an exact multiple, and a record wider than the
	// whole ring (more pieces than slots: it must wait out its own
	// backpressure, not deadlock).
	for _, n := range []int{maxPayload + 1, 2 * maxPayload, 9*maxPayload + 17} {
		before := h.engine.Stats().Staged
		data := patterned(n)
		if _, err := h.writer.Stage(0, gaddr(128), 128, data); err != nil {
			t.Fatalf("stage %d bytes: %v", n, err)
		}
		checkChunked(t, h, 128, data, before)
	}
}

func TestReadYourWrites(t *testing.T) {
	h := newHarness(t, 8, 1024, nil)
	if err := h.nvm.WriteRaw(0, bytes.Repeat([]byte{'o'}, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.writer.Stage(0, gaddr(8), 8, []byte("NEW!")); err != nil {
		t.Fatal(err)
	}
	// Simulate a read of [0,16) that raced the flush: server returned old
	// bytes; the pending overlay must surface the staged write.
	buf := bytes.Repeat([]byte{'o'}, 16)
	if h.writer.PendingCount() == 0 {
		// Flush may already have completed; ApplyPending is then a no-op
		// and the data is in NVM — either way the write is visible.
		h.writer.Drain()
		got := make([]byte, 4)
		if err := h.nvm.ReadRaw(8, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "NEW!" {
			t.Fatal("write lost")
		}
		return
	}
	if !h.writer.ApplyPending(gaddr(0), buf) {
		t.Fatal("overlay did not apply")
	}
	if string(buf) != "oooooooo"+"NEW!"+"oooo" {
		t.Fatalf("overlay result %q", buf)
	}
}

func TestApplyPendingDisjoint(t *testing.T) {
	h := newHarness(t, 8, 1024, nil)
	if _, err := h.writer.Stage(0, gaddr(4096), 4096, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if h.writer.ApplyPending(gaddr(0), buf) {
		t.Fatal("disjoint overlay applied")
	}
	// Different server: no overlay.
	if h.writer.ApplyPending(region.MustGAddr(2, 4096), buf) {
		t.Fatal("cross-server overlay applied")
	}
	h.writer.Drain()
}

func TestBackpressureRingFull(t *testing.T) {
	// A tiny ring with a slow NVM: staging more records than slots must
	// still complete (blocking, not failing), and all records flush.
	h := newHarness(t, 2, 4096+slotHeaderBytes, nil)
	payload := make([]byte, 4096)
	var now simnet.Time
	for i := 0; i < 10; i++ {
		end, err := h.writer.Stage(now, gaddr(int64(i)*4096), int64(i)*4096, payload)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	h.writer.Drain()
	if st := h.engine.Stats(); st.Flushed != 10 {
		t.Fatalf("flushed %d, want 10", st.Flushed)
	}
	if h.writer.PendingCount() != 0 {
		t.Fatal("pending not drained")
	}
}

func TestCacheApplyHookCalled(t *testing.T) {
	var mu sync.Mutex
	var calls []region.GAddr
	hook := func(at simnet.Time, addr region.GAddr, data []byte) simnet.Time {
		mu.Lock()
		calls = append(calls, addr)
		mu.Unlock()
		return at.Add(time.Microsecond)
	}
	h := newHarness(t, 4, 1024, hook)
	if _, err := h.writer.Stage(0, gaddr(64), 64, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	applied := h.writer.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || calls[0] != gaddr(64) {
		t.Fatalf("hook calls: %v", calls)
	}
	if applied <= 0 {
		t.Fatal("applied time not propagated")
	}
}

func TestStageAfterClose(t *testing.T) {
	h := newHarness(t, 4, 1024, nil)
	h.writer.Close()
	if _, err := h.writer.Stage(0, gaddr(0), 0, []byte("x")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("stage after close: %v", err)
	}
	h.writer.Close() // idempotent
}

func TestEngineCloseDrainsBacklog(t *testing.T) {
	h := newHarness(t, 8, 1024, nil)
	for i := 0; i < 5; i++ {
		if _, err := h.writer.Stage(0, gaddr(int64(i)*64), int64(i)*64, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.engine.Close()
	if st := h.engine.Stats(); st.Flushed != 5 {
		t.Fatalf("close did not drain: %+v", st)
	}
	// Staging after engine close fails.
	if _, err := h.writer.Stage(0, gaddr(0), 0, []byte("x")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("stage after engine close: %v", err)
	}
}

func TestConcurrentStagers(t *testing.T) {
	h := newHarness(t, 16, 1024, nil)
	const goroutines, per = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off := int64(g*per+i) * 64
				if _, err := h.writer.Stage(0, gaddr(off), off, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("Stage: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h.writer.Drain()
	if st := h.engine.Stats(); st.Flushed != goroutines*per {
		t.Fatalf("flushed %d, want %d", st.Flushed, goroutines*per)
	}
	// Verify every record landed.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			got := make([]byte, 2)
			if err := h.nvm.ReadRaw(int64(g*per+i)*64, got); err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(g) || got[1] != byte(i) {
				t.Fatalf("record %d/%d corrupted: %v", g, i, got)
			}
		}
	}
}

func TestRingSlotContainsRealBytes(t *testing.T) {
	// The staged record must actually be present in server DRAM (it got
	// there via a real RDMA WRITE).
	h := newHarness(t, 4, 1024, nil)
	if _, err := h.writer.Stage(0, gaddr(128), 128, []byte("ringdata")); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, slotHeaderBytes+8)
	if err := h.ramDev.ReadRaw(0, hdr); err != nil {
		t.Fatal(err)
	}
	if string(hdr[slotHeaderBytes:]) != "ringdata" {
		t.Fatalf("ring slot payload %q", hdr[slotHeaderBytes:])
	}
	h.writer.Drain()
}

func TestSubmitQuiescesWorkers(t *testing.T) {
	h := newHarness(t, 8, 1024, nil)
	// Stage a few records, then run an exclusive task: when it runs, the
	// previously-enqueued records may or may not have flushed, but no
	// flush may be concurrent with it; afterwards everything drains.
	for i := 0; i < 4; i++ {
		if _, err := h.writer.Stage(0, gaddr(int64(i)*64), int64(i)*64, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ran := false
	if err := h.engine.Submit(func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Submit returned before the task ran")
	}
	if err := h.engine.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st := h.engine.Stats(); st.Flushed != 4 {
		t.Fatalf("flushed %d after barrier", st.Flushed)
	}
	h.engine.Close()
	if err := h.engine.Submit(func() {}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Submit after close: %v", err)
	}
	if err := h.engine.Barrier(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Barrier after close: %v", err)
	}
}

func TestSubmitMutualExclusionWithFlushes(t *testing.T) {
	// Property: a task never observes a flush in progress. The hook
	// flips a flag around each flush; the task asserts it is clear.
	var inFlush atomic.Bool
	var violations atomic.Int64
	hook := func(at simnet.Time, addr region.GAddr, data []byte) simnet.Time {
		inFlush.Store(true)
		defer inFlush.Store(false)
		return at
	}
	h := newHarness(t, 64, 1024, hook)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := h.writer.Stage(0, gaddr(int64(i%16)*64), int64(i%16)*64, []byte{1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := h.engine.Submit(func() {
			if inFlush.Load() {
				violations.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	h.writer.Drain()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d tasks overlapped a flush", v)
	}
}

func TestStageMultiFlushesToNVM(t *testing.T) {
	h := newHarness(t, 8, 4096+slotHeaderBytes, nil)
	reqs := make([]StageReq, 4)
	for i := range reqs {
		off := int64(i) * 256
		reqs[i] = StageReq{Addr: gaddr(off), NvmOff: off, Data: bytes.Repeat([]byte{byte('a' + i)}, 64)}
	}
	stagedAt, err := h.writer.StageMulti(0, reqs)
	if err != nil {
		t.Fatalf("StageMulti: %v", err)
	}
	if stagedAt <= 0 {
		t.Fatal("batch charged no time")
	}
	appliedAt := h.writer.Drain()
	if appliedAt < stagedAt {
		t.Fatalf("applied %v before staged %v", appliedAt, stagedAt)
	}
	got := make([]byte, 64)
	for i := range reqs {
		if err := h.nvm.ReadRaw(int64(i)*256, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reqs[i].Data) {
			t.Fatalf("record %d: NVM content mismatch after flush", i)
		}
	}
	if st := h.engine.Stats(); st.Staged != 4 || st.Flushed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStageMultiCheaperThanSequential(t *testing.T) {
	// A k-record burst staged as one chain should cost far less than k
	// sequential stages — one doorbell and one overlapped round trip
	// instead of k.
	const k = 8
	payload := make([]byte, 256)
	mk := func() []StageReq {
		reqs := make([]StageReq, k)
		for i := range reqs {
			off := int64(i) * 256
			reqs[i] = StageReq{Addr: gaddr(off), NvmOff: off, Data: payload}
		}
		return reqs
	}

	hb := newHarness(t, 32, 4096+slotHeaderBytes, nil)
	batchEnd, err := hb.writer.StageMulti(0, mk())
	if err != nil {
		t.Fatal(err)
	}

	hs := newHarness(t, 32, 4096+slotHeaderBytes, nil)
	var now simnet.Time
	for _, r := range mk() {
		end, err := hs.writer.Stage(now, r.Addr, r.NvmOff, r.Data)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	if simnet.Duration(batchEnd)*2 > simnet.Duration(now) {
		t.Fatalf("batch %v not <1/2 of sequential %v", simnet.Duration(batchEnd), simnet.Duration(now))
	}
}

func TestStageMultiReadYourWrites(t *testing.T) {
	h := newHarness(t, 8, 1024, nil)
	if err := h.nvm.WriteRaw(0, bytes.Repeat([]byte{'o'}, 32)); err != nil {
		t.Fatal(err)
	}
	reqs := []StageReq{
		{Addr: gaddr(8), NvmOff: 8, Data: []byte("NEW!")},
		{Addr: gaddr(12), NvmOff: 12, Data: []byte("MORE")},
	}
	if _, err := h.writer.StageMulti(0, reqs); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{'o'}, 16)
	if h.writer.PendingCount() > 0 {
		if !h.writer.ApplyPending(gaddr(0), buf) {
			t.Fatal("overlay did not apply")
		}
		if string(buf) != "oooooooo"+"NEW!"+"MORE" {
			t.Fatalf("overlay result %q", buf)
		}
	}
	h.writer.Drain()
	got := make([]byte, 8)
	if err := h.nvm.ReadRaw(8, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "NEW!MORE" {
		t.Fatalf("NVM after drain = %q", got)
	}
}

func TestStageMultiLargerThanRing(t *testing.T) {
	// A burst wider than the ring must chunk into ring-sized chains
	// (blocking on backpressure, not deadlocking) and flush everything
	// in FIFO order.
	h := newHarness(t, 2, 4096+slotHeaderBytes, nil)
	const k = 9
	reqs := make([]StageReq, k)
	for i := range reqs {
		off := int64(i) * 4096
		reqs[i] = StageReq{Addr: gaddr(off), NvmOff: off, Data: []byte{byte(i)}}
	}
	// Same-address pair at the end: last must win.
	reqs[k-1] = StageReq{Addr: gaddr(0), NvmOff: 0, Data: []byte{0xFF}}
	if _, err := h.writer.StageMulti(0, reqs); err != nil {
		t.Fatal(err)
	}
	h.writer.Drain()
	if st := h.engine.Stats(); st.Flushed != k {
		t.Fatalf("flushed %d, want %d", st.Flushed, k)
	}
	var got [1]byte
	if err := h.nvm.ReadRaw(0, got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF {
		t.Fatalf("NVM[0] = %#x, want last write", got[0])
	}
}

func TestStageMultiValidation(t *testing.T) {
	h := newHarness(t, 8, 64, nil)
	// Empty burst is a no-op.
	if end, err := h.writer.StageMulti(7, nil); err != nil || end != 7 {
		t.Fatalf("empty burst: %v %v", end, err)
	}
	// An empty record takes no slot.
	if _, err := h.writer.StageMulti(0, []StageReq{{Addr: gaddr(0)}}); err != nil || h.engine.Stats().Staged != 0 {
		t.Fatalf("empty record: %v, staged %d", err, h.engine.Stats().Staged)
	}
	// An oversized record inside a burst is cut into slots in place: the
	// small record ahead of it lands first, the one behind it last. With
	// the flushers held, all six pieces are pending and the overlay alone
	// must already show the burst applied in order.
	big := patterned(3*h.writer.Ring().MaxPayload() + 5)
	reqs := []StageReq{
		{Addr: gaddr(64), NvmOff: 64, Data: []byte("--before")},
		{Addr: gaddr(64), NvmOff: 64, Data: big},
		{Addr: gaddr(64 + 8), NvmOff: 64 + 8, Data: []byte("after")},
	}
	want := append([]byte(nil), big...)
	copy(want[8:], "after")
	release := holdFlushers(t, h.engine)
	if _, err := h.writer.StageMulti(0, reqs); err != nil {
		t.Fatalf("oversize burst: %v", err)
	}
	overlay := make([]byte, len(big))
	if n := h.writer.PendingCount(); n != 6 {
		t.Fatalf("%d pieces pending, want 6", n)
	}
	if h.writer.ApplyPending(gaddr(64), overlay); !bytes.Equal(overlay, want) {
		t.Fatal("pending overlay differs from the burst applied in order")
	}
	release()
	checkChunked(t, h, 64, want, 2) // discounting the two small records
}

// holdFlushers parks every flush worker inside Engine.Submit until the
// returned release is called, so staged records stay pending.
func holdFlushers(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- e.Submit(func() { close(held); <-free }) }()
	<-held
	return func() {
		close(free)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestReservePendingSlidesBeforeGrowing pins the pending set's storage
// rule: entries popped off the front leave room that the next stage
// reclaims by sliding the live entries back to the array's start, and
// the array is replaced only when the live entries really fill it.
func TestReservePendingSlidesBeforeGrowing(t *testing.T) {
	w := &Writer{}
	stage := func(n int) {
		w.reservePending(n)
		for i := 0; i < n; i++ {
			if len(w.pending) == cap(w.pending) {
				t.Fatalf("append would reallocate after reservePending(%d)", n)
			}
			w.pending = append(w.pending, pendingWrite{seq: w.nextSeq})
			w.nextSeq++
		}
	}
	check := func(first uint64, n int) {
		t.Helper()
		if len(w.pending) != n {
			t.Fatalf("%d pending, want %d", len(w.pending), n)
		}
		for i, p := range w.pending {
			if p.seq != first+uint64(i) {
				t.Fatalf("pending[%d] is seq %d, want %d", i, p.seq, first+uint64(i))
			}
		}
	}
	stage(4) // array of 8
	array := &w.pendStore[:1][0]
	w.pending = w.pending[3:] // the flusher applied 0..2
	stage(4)                  // fits the tail exactly
	w.pending = w.pending[4:] // 3..6 applied; 7 is live at the array's end
	stage(2)                  // tail exhausted, array 3/8 full: slide
	check(7, 3)
	if &w.pending[0] != array {
		t.Fatal("live entries did not slide back to the start of the array")
	}
	if stale := w.pendStore[:8][7]; stale.seq != 0 {
		t.Fatalf("moved entry left behind at the array's end: %+v", stale)
	}
	stage(10) // 13 live: the array must grow
	check(7, 13)
	if &w.pending[0] == array {
		t.Fatal("13 entries in an array of 8")
	}
}

// TestSlotConservation holds the writer's slot accounting to its one
// invariant — every slot taken comes back — on a ring small enough that
// every chain waits for the flusher: concurrent stagers with chains
// shorter and longer than the ring, each reading its own write back
// through Pin/ApplyPending/Unpin, beside Drain callers. A lost slot, a
// lost wake-up or a watermark that skips a record shows as a hang, a
// stale read, or a count that is off at the end.
func TestSlotConservation(t *testing.T) {
	const slots, stagers, rounds, recLen = 4, 4, 40, 32
	h := newHarness(t, slots, recLen+slotHeaderBytes, nil)
	w := h.writer
	var wg sync.WaitGroup
	for g := 0; g < stagers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := int64(g) * 4096 // each stager owns its own addresses
			for i := 0; i < rounds; i++ {
				n := 1 + rng.Intn(2*slots+2) // 1..10 records: up to and beyond the ring
				reqs := make([]StageReq, n)
				for j := range reqs {
					off := base + int64(j)*recLen
					reqs[j] = StageReq{Addr: gaddr(off), NvmOff: off, Data: bytes.Repeat([]byte{byte(i), byte(j)}, recLen/2)}
				}
				if _, err := w.StageMulti(0, reqs); err != nil {
					t.Errorf("StageMulti: %v", err)
					return
				}
				// Read the last record back the way both mounts do.
				last := reqs[n-1]
				got := make([]byte, recLen)
				w.Pin()
				err := h.nvm.ReadRaw(last.NvmOff, got)
				w.ApplyPending(last.Addr, got)
				w.Unpin()
				if err != nil || !bytes.Equal(got, last.Data) {
					t.Errorf("stager %d round %d: read back %v (err %v), want %v", g, i, got[:2], err, last.Data[:2])
					return
				}
				if i%8 == 0 {
					w.Drain()
				}
			}
		}(g)
	}
	wg.Wait()
	w.Drain()
	if free, pend := w.FreeSlots(), w.PendingCount(); free != slots || pend != 0 {
		t.Fatalf("after drain: %d free slots (want %d), %d pending (want 0)", free, slots, pend)
	}
	if hw := w.OccupancyHighWater(); hw != slots {
		t.Fatalf("occupancy high water %d on a ring that was kept full, want %d", hw, slots)
	}
}

// TestSlotConservationAcrossEngineClose cuts a chain part-way: the
// engine closes while the chain's ninth enqueue is blocked on a full
// worker queue, so records 1-9 are in flight and the tenth is refused.
// The nine are applied by Close's drain, the tail's pending entries and
// slots are handed back, and the writer ends whole.
func TestSlotConservationAcrossEngineClose(t *testing.T) {
	const slots, chain, queued = 16, 12, 8 // queued: a worker channel's capacity
	h := newHarness(t, slots, 32+slotHeaderBytes, nil)
	w, e := h.writer, h.engine

	parked, release := make(chan struct{}), make(chan struct{})
	go func() { _ = e.Submit(func() { close(parked); <-release }) }()
	<-parked // every flush worker now waits for release

	reqs := make([]StageReq, chain)
	for j := range reqs {
		reqs[j] = StageReq{Addr: gaddr(int64(j) * 32), NvmOff: int64(j) * 32, Data: make([]byte, 32)}
	}
	staged := make(chan error, 1)
	go func() {
		_, err := w.StageMulti(0, reqs)
		staged <- err
	}()
	for e.Stats().Staged != queued+1 { // the ninth is past the closed check, blocked in its send
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for isClosed := false; !isClosed; time.Sleep(100 * time.Microsecond) {
		e.mu.Lock()
		isClosed = e.closed
		e.mu.Unlock()
	}
	close(release)

	if err := <-staged; !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("StageMulti across the close: %v", err)
	}
	<-closed
	w.Drain()
	if free, pend := w.FreeSlots(), w.PendingCount(); free != slots || pend != 0 {
		t.Fatalf("%d free slots (want %d), %d pending (want 0)", free, slots, pend)
	}
	if st := e.Stats(); st.Staged != queued+1 || st.Flushed != queued+1 {
		t.Fatalf("staged %d, flushed %d, want %d each", st.Staged, st.Flushed, queued+1)
	}
}
