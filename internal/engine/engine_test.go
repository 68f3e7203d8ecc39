package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gengar/internal/config"
	"gengar/internal/hotness"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	eng, err := New(Config{ID: 1, Name: "eng-test", Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// planBarrier waits until every plan submitted to the flusher so far has
// executed (Submit preserves order).
func planBarrier(t *testing.T, eng *Engine) {
	t.Helper()
	done := make(chan struct{})
	if err := eng.Flusher().Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestEngineMallocFree(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Malloc(0); err == nil {
		t.Fatal("zero-byte malloc accepted")
	}
	a, err := eng.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a == region.NilGAddr || a.Server() != 1 {
		t.Fatalf("bad address %v", a)
	}
	st := eng.Stats()
	if st.Objects != 1 || st.Mallocs != 1 {
		t.Fatalf("after malloc: %+v", st)
	}
	if err := eng.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := eng.Free(a); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double free: %v", err)
	}
	st = eng.Stats()
	if st.Objects != 0 || st.Frees != 1 {
		t.Fatalf("after free: %+v", st)
	}
}

func TestEngineObjectSpanAndAdopt(t *testing.T) {
	eng := newTestEngine(t)
	a, err := eng.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	base, size, ok := eng.ObjectSpan(region.MustGAddr(1, a.Offset()+100), 8)
	if !ok || base != a || size < 1024 {
		t.Fatalf("span: %v %d %v", base, size, ok)
	}
	if _, _, ok := eng.ObjectSpan(region.MustGAddr(1, 1<<30), 8); ok {
		t.Fatal("span of unallocated range")
	}

	// AdoptObject registers a reserved range as live (the restore path).
	if err := eng.Pool().Reserve(1<<20, 2048); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdoptObject(1<<20, 2048); err != nil {
		t.Fatal(err)
	}
	base, _, ok = eng.ObjectSpan(region.MustGAddr(1, 1<<20), 2048)
	if !ok || base.Offset() != 1<<20 {
		t.Fatalf("adopted span: %v %v", base, ok)
	}
}

func TestEngineReadWriteNVM(t *testing.T) {
	eng := newTestEngine(t)
	a, err := eng.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("nv"), 64)
	if _, err := eng.WriteNVM(0, a, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	_, src, err := eng.ReadAt(0, a, buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.Hit() {
		t.Fatal("unpromoted read reported a cache hit")
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read back wrong bytes")
	}
	if st := eng.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestEnginePromotionServesCacheReads(t *testing.T) {
	eng := newTestEngine(t)
	eng.SetPlacer(NewLocalPlacer(eng))
	a, err := eng.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if _, err := eng.WriteNVM(0, a, data); err != nil {
		t.Fatal(err)
	}

	// A heavy digest promotes the object on the first plan.
	epoch0 := eng.Remap().Epoch()
	eng.Digest(simnet.Time(time.Millisecond), []hotness.Entry{{Addr: a, Reads: 100}})
	planBarrier(t, eng)

	st := eng.Stats()
	if st.Promoted != 1 || st.Promotions != 1 {
		t.Fatalf("after digest: %+v", st)
	}
	if eng.Remap().Epoch() == epoch0 {
		t.Fatal("remap epoch did not advance on promotion")
	}

	buf := make([]byte, 128)
	_, src, err := eng.ReadAt(0, region.MustGAddr(1, a.Offset()+64), buf)
	if err != nil {
		t.Fatal(err)
	}
	if src != ReadHitLocal {
		t.Fatalf("promoted read missed the cache: src=%v", src)
	}
	if !bytes.Equal(buf, data[64:64+128]) {
		t.Fatal("cache read returned wrong bytes")
	}
	if st := eng.Stats(); st.Hits != 1 {
		t.Fatalf("hit counter: %+v", st)
	}

	// A direct NVM write refreshes the copy: the next cache read sees it.
	patch := bytes.Repeat([]byte{0xCD}, 128)
	if _, err := eng.WriteNVM(0, region.MustGAddr(1, a.Offset()+64), patch); err != nil {
		t.Fatal(err)
	}
	if _, src, err = eng.ReadAt(0, region.MustGAddr(1, a.Offset()+64), buf); err != nil || !src.Hit() {
		t.Fatalf("read after write-through: src=%v err=%v", src, err)
	}
	if !bytes.Equal(buf, patch) {
		t.Fatal("write-through did not refresh the copy")
	}

	// Freeing the object demotes the copy and releases its arena space.
	if err := eng.Free(a); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Promoted != 0 || st.Demotions != 1 || st.BufferUsed != 0 {
		t.Fatalf("after free: %+v", st)
	}
}

func TestEngineNoPlacerNeverPromotes(t *testing.T) {
	eng := newTestEngine(t)
	a, err := eng.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	eng.Digest(simnet.Time(time.Millisecond), []hotness.Entry{{Addr: a, Reads: 100}})
	planBarrier(t, eng)
	if st := eng.Stats(); st.Promoted != 0 || st.Promotions != 0 {
		t.Fatalf("promotion without a placer: %+v", st)
	}
}

func TestEngineRingLeases(t *testing.T) {
	eng := newTestEngine(t)
	slots, slotSize := eng.RingGeometry()
	ringSize := int64(slots) * int64(slotSize)
	want := eng.RingDev().Size() / ringSize

	var bases []int64
	for {
		base, err := eng.OpenRing()
		if err != nil {
			if !errors.Is(err, ErrRingSpaceExhausted) {
				t.Fatal(err)
			}
			break
		}
		bases = append(bases, base)
	}
	if int64(len(bases)) != want {
		t.Fatalf("leased %d rings, device fits %d", len(bases), want)
	}

	// Returned rings are reused.
	if err := eng.CloseRing(bases[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseRing(bases[0]); err == nil {
		t.Fatal("double close accepted")
	}
	if err := eng.CloseRing(ringSize / 2); err == nil {
		t.Fatal("misaligned close accepted")
	}
	base, err := eng.OpenRing()
	if err != nil {
		t.Fatal(err)
	}
	if base != bases[0] {
		t.Fatalf("reopened ring at %d, want recycled %d", base, bases[0])
	}
}

func TestEngineLeaseReleaseBumpsVersion(t *testing.T) {
	eng := newTestEngine(t)
	a, err := eng.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	v0 := eng.Version(a)
	if err := eng.Leases().Lock(9, a, false, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if eng.Version(a) != v0 {
		t.Fatal("version bumped before release")
	}
	if err := eng.Leases().UnlockExclusive(9, a); err != nil {
		t.Fatal(err)
	}
	if got := eng.Version(a); got != v0+1 {
		t.Fatalf("version after exclusive release: %d, want %d", got, v0+1)
	}
	// Shared leases never bump.
	if err := eng.Leases().Lock(9, a, true, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := eng.Leases().UnlockShared(9, a); err != nil {
		t.Fatal(err)
	}
	if got := eng.Version(a); got != v0+1 {
		t.Fatalf("version after shared release: %d", got)
	}
}

func TestEngineClockless(t *testing.T) {
	eng := newTestEngine(t)
	if eng.Now() != 0 {
		t.Fatal("clockless engine reported nonzero Now")
	}
}

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock()
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond)
	t1 := c.Now()
	if t1 <= t0 {
		t.Fatalf("wall clock did not advance: %v -> %v", t0, t1)
	}
}
