package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/region"
	"gengar/internal/server"
)

// testConfig returns a small, fast-epoch configuration for integration
// tests.
func testConfig() config.Cluster {
	cfg := config.Default()
	cfg.Servers = 2
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.RingBytes = 1 << 23
	cfg.LockSlots = 1 << 10
	cfg.Hotness.DigestEvery = 8
	cfg.Hotness.PlanEvery = time.Microsecond
	cfg.Hotness.MinWeight = 2
	return cfg
}

func newTestCluster(t *testing.T, cfg config.Cluster) *server.Cluster {
	t.Helper()
	c, err := server.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func connect(t *testing.T, c *server.Cluster, name string) *Client {
	t.Helper()
	cl, err := Connect(c, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// settle waits for all pending flushes and plans across the cluster and
// refreshes the client's remap views.
func settle(t *testing.T, c *server.Cluster, cl *Client, addr region.GAddr) {
	t.Helper()
	for _, s := range c.Registry().Servers() {
		if err := s.Engine().Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SyncView(addr); err != nil {
		t.Fatal(err)
	}
}

func TestConnectClose(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	if cl.ID() == 0 || cl.Name() != "u1" {
		t.Fatalf("identity: %d %q", cl.ID(), cl.Name())
	}
	cl.Close()
	if _, err := cl.Malloc(64); !errors.Is(err, ErrClosed) {
		t.Fatalf("malloc after close: %v", err)
	}
	if err := cl.Read(region.MustGAddr(1, 64), make([]byte, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestMallocRoundRobin(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	servers := make(map[uint16]bool)
	for i := 0; i < 4; i++ {
		addr, err := cl.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if addr.IsNil() {
			t.Fatal("nil address from malloc")
		}
		servers[addr.Server()] = true
	}
	if len(servers) != 2 {
		t.Fatalf("round robin touched %d servers, want 2", len(servers))
	}
}

func TestMallocOnAndFree(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, err := cl.MallocOn(2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if addr.Server() != 2 {
		t.Fatalf("homed on %d, want 2", addr.Server())
	}
	if err := cl.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl.Free(addr); err == nil {
		t.Fatal("double free accepted")
	}
	if _, err := cl.MallocOn(99, 64); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("malloc on phantom server: %v", err)
	}
}

func TestMallocErrors(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	if _, err := cl.Malloc(-1); err == nil {
		t.Fatal("negative malloc accepted")
	}
	if _, err := cl.Malloc(1 << 30); err == nil {
		t.Fatal("oversized malloc accepted")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, err := cl.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("gengar-"), 100) // 700 bytes
	if err := cl.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := cl.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := cl.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ReadLatency.Count != 1 || st.ReadLatency.Mean <= 0 {
		t.Fatalf("read latency: %+v", st.ReadLatency)
	}
}

func TestReadYourWritesImmediate(t *testing.T) {
	// With the proxy, a read issued immediately after a write must see
	// the write even if it has not flushed yet.
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(64)
	for i := 0; i < 20; i++ {
		val := []byte{byte(i), byte(i + 1)}
		if err := cl.Write(addr, val); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 2)
		if err := cl.Read(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("iteration %d: read %v, want %v", i, got, val)
		}
	}
}

func TestSubRangeReadWrite(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(256)
	if err := cl.Write(addr, bytes.Repeat([]byte{'a'}, 256)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(addr.Add(100), []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := cl.Read(addr.Add(99), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aXYZa" {
		t.Fatalf("sub-range read %q", got)
	}
}

func TestLargeWriteChunksThroughProxy(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	size := int64(3*cfg.Proxy.RingSlotSize + 100)
	addr, err := cl.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := cl.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := cl.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked write corrupted data")
	}
}

func TestCachePromotionServesReads(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	addr, err := cl.MallocOn(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 1024)
	if err := cl.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	// Hammer the object so it becomes hot and gets promoted.
	for i := 0; i < 32; i++ {
		if err := cl.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, addr)
	settle(t, c, cl, addr) // second pass picks up the bumped epoch

	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Fatal("hot object never promoted")
	}
	before := cl.Stats().CacheHits
	if err := cl.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cached read returned wrong data")
	}
	if cl.Stats().CacheHits != before+1 {
		t.Fatalf("read did not hit cache (hits %d -> %d)", before, cl.Stats().CacheHits)
	}
}

func TestCacheCoherentAfterProxiedWrite(t *testing.T) {
	// Write-through: after promotion, a proxied write followed by drain
	// must be visible via the cached copy.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	addr, _ := cl.MallocOn(1, 512)
	if err := cl.Write(addr, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, addr)
	settle(t, c, cl, addr)

	// A second client (no pending-write overlay) must see the new value
	// through the cache after the writer's lock release.
	cl2 := connect(t, c, "u2")
	if err := cl.LockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(addr, bytes.Repeat([]byte{2}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := cl.UnlockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl2.SyncView(addr); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := cl2.LockShared(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if err := cl2.UnlockShared(addr); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 2 {
			t.Fatalf("byte %d = %d, want 2 (stale cache copy)", i, b)
		}
	}
}

func TestStaleGenerationFallback(t *testing.T) {
	// Tiny buffer: one promoted object at a time. Promote A, capture the
	// view, then make B hot so A is demoted and its slot reused; reading
	// A through the stale view must detect the reuse and fall back.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.DRAMBufferBytes = 1 << 10 // fits one 512 B copy (576 B with its header), not two
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")

	a, _ := cl.Malloc(512)
	b, _ := cl.Malloc(512)
	if err := cl.Write(a, bytes.Repeat([]byte{'A'}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(b, bytes.Repeat([]byte{'B'}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, a)
	settle(t, c, cl, a)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted != 1 {
		t.Skipf("promotion did not land (promoted=%d)", srv.Stats().Promoted)
	}

	// Second client hammers B far harder so the planner displaces A.
	cl2 := connect(t, c, "u2")
	for i := 0; i < 256; i++ {
		if err := cl2.Read(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl2, b)
	settle(t, c, cl2, b)

	// cl's view still maps A; the slot now holds B's copy.
	if err := cl.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != 'A' {
			t.Fatalf("stale-view read returned wrong byte %q at %d", buf[i], i)
		}
	}
}

// TestStaleViewInsideNewerCopy: the buffer arena packs copies at any
// 64-byte granule, so a demoted copy's offset can fall strictly inside a
// newer, larger copy instead of on its header. A one-sided read through
// a view that still names the old copy then compares the newer copy's
// data bytes with its generation; they differ, and the read falls back
// to NVM.
func TestStaleViewInsideNewerCopy(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	cfg.DRAMBufferBytes = 4 * cache.CopyGranule // A's copy (2 granules) or B's (3), not both
	c := newTestCluster(t, cfg)
	srv, _ := c.Registry().ByID(1)
	bufp := srv.Core().BufferPool()
	// A filler in granule 0 puts A's copy at granules 1-2.
	filler, err := bufp.Place(cache.CopyGranule)
	if err != nil || filler != 0 {
		t.Fatalf("filler at %d: %v", filler, err)
	}
	cl := connect(t, c, "u1")
	a, _ := cl.Malloc(64)
	b, _ := cl.Malloc(128)
	if err := cl.Write(a, bytes.Repeat([]byte{'A'}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(b, bytes.Repeat([]byte{'B'}, 128)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 32; i++ {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, a)
	settle(t, c, cl, a)
	old, ok := srv.Core().Remap().Lookup(a)
	if !ok || old.Off != cache.CopyGranule {
		t.Fatalf("A's copy: %+v (promoted %v), want it at granule 1", old, ok)
	}
	// Free granule 0 and fill granule 3: the next placement wraps to the
	// arena's start, so B's copy covers granules 0-2, A's old header
	// among them.
	if err := bufp.Release(filler); err != nil {
		t.Fatal(err)
	}
	if off, err := bufp.Place(cache.CopyGranule); err != nil || off != 3*cache.CopyGranule {
		t.Fatalf("tail filler at %d: %v", off, err)
	}

	// A second client makes B far hotter, so the planner displaces A.
	cl2 := connect(t, c, "u2")
	big := make([]byte, 128)
	for i := 0; i < 256; i++ {
		if err := cl2.Read(b, big); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl2, b)
	settle(t, c, cl2, b)
	if _, still := srv.Core().Remap().Lookup(a); still {
		t.Fatal("A was not demoted")
	}
	if loc, ok := srv.Core().Remap().Lookup(b); !ok || loc.Off != 0 || old.Off <= loc.Off || old.Off >= loc.Off+cache.CopyFootprint(loc.Size) {
		t.Fatalf("B's copy %+v (promoted %v) does not cover A's old header at %d", loc, ok, old.Off)
	}

	// cl's view still maps A to the offset that is now inside B's copy.
	stale := cl.staleGen.Load()
	if err := cl.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{'A'}, 64)) {
		t.Fatalf("stale-view read returned %q", buf)
	}
	if cl.staleGen.Load() == stale {
		t.Fatal("the read through the stale view was not detected as stale")
	}
}

// TestDemotedCopyFailsStaleView: a demoted copy's slot that nobody
// reuses still holds the object's old bytes. A client whose view still
// names it must not read them: the release zeroes the generation, so
// the read — here under a shared lock, after another client's locked
// write completed — falls back to NVM and sees the write.
func TestDemotedCopyFailsStaleView(t *testing.T) {
	// Two servers, so a copy may land on either arena; each home budgets
	// one 512 B copy (576 B), not two.
	cfg := testConfig()
	cfg.DRAMBufferBytes = 1 << 10
	c := newTestCluster(t, cfg)
	s1, _ := c.Registry().ByID(1)
	cl := connect(t, c, "u1")
	a, _ := cl.MallocOn(1, 512)
	b, _ := cl.MallocOn(1, 512)
	if err := cl.Write(a, bytes.Repeat([]byte{'A'}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, a)
	settle(t, c, cl, a)
	old, ok := s1.Core().Remap().Lookup(a)
	if !ok || old.Node != s1.Node().ID() {
		t.Fatalf("A's copy: %+v (promoted %v), want it on server 1", old, ok)
	}
	// A filler on server 1 leaves server 2 the most free arena, so B's
	// copy goes there and A's slot is released but never reused.
	if _, err := s1.Core().BufferPool().Place(cache.CopyGranule); err != nil {
		t.Fatal(err)
	}
	cl2 := connect(t, c, "u2")
	for i := 0; i < 256; i++ {
		if err := cl2.Read(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl2, b)
	settle(t, c, cl2, b)
	if _, still := s1.Core().Remap().Lookup(a); still {
		t.Fatal("A was not demoted")
	}
	if loc, ok := s1.Core().Remap().Lookup(b); !ok || loc.Node == old.Node {
		t.Fatalf("B's copy %+v (promoted %v) reused A's arena", loc, ok)
	}

	if err := cl2.LockExclusive(a); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Write(a, bytes.Repeat([]byte{'Z'}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := cl2.UnlockExclusive(a); err != nil {
		t.Fatal(err)
	}
	settle(t, c, cl2, a)
	// cl's view still maps A to its released slot.
	if err := cl.LockShared(a); err != nil {
		t.Fatal(err)
	}
	if err := cl.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if err := cl.UnlockShared(a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{'Z'}, 512)) {
		t.Fatalf("a read after the locked write completed returned %q..., want Z", buf[:8])
	}
}

func TestDirectModeRoundtrip(t *testing.T) {
	// NVM-direct baseline: no cache, no proxy.
	c := newTestCluster(t, func() config.Cluster {
		cfg := testConfig()
		cfg.Features = config.Features{}
		return cfg
	}())
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(256)
	data := bytes.Repeat([]byte{7}, 256)
	if err := cl.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := cl.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("direct mode roundtrip mismatch")
	}
	if st := cl.Stats(); st.CacheHits != 0 {
		t.Fatal("direct mode hit a cache")
	}
}

// TestCacheOffSendsNoDigest: with the cache off no server plans, so a
// client stages nothing and sends no digest — not every DigestEvery
// accesses, and not at SyncView or SyncAllViews either.
func TestCacheOffSendsNoDigest(t *testing.T) {
	cfg := testConfig()
	cfg.Features = config.Features{Proxy: true}
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	addr, err := cl.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	for i := 0; i < 4*cfg.Hotness.DigestEvery; i++ {
		if err := cl.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SyncView(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAllViews(); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Registry().Servers() {
		if d := s.Stats().Digests; d != 0 {
			t.Errorf("server %d: %d digests from a cache-off client", s.ID(), d)
		}
	}
}

func TestNoProxyCacheStaysCoherent(t *testing.T) {
	// Ablation: cache on, proxy off. Direct writes must refresh promoted
	// copies via the write-through RPC.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Features = config.Features{Cache: true, Proxy: false}
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(512)
	if err := cl.Write(addr, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, addr)
	settle(t, c, cl, addr)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Skip("promotion did not land")
	}
	if err := cl.Write(addr, bytes.Repeat([]byte{9}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != 9 {
			t.Fatalf("stale cached byte at %d after direct write", i)
		}
	}
	if cl.Stats().CacheHits == 0 {
		t.Fatal("reads never hit the cache; coherence path untested")
	}
}

func TestCrossClientVisibilityWithLocks(t *testing.T) {
	c := newTestCluster(t, testConfig())
	w := connect(t, c, "writer")
	r := connect(t, c, "reader")
	addr, err := w.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		val := bytes.Repeat([]byte{byte(round + 1)}, 128)
		if err := w.LockExclusive(addr); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(addr, val); err != nil {
			t.Fatal(err)
		}
		if err := w.UnlockExclusive(addr); err != nil {
			t.Fatal(err)
		}
		if err := r.LockShared(addr); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 128)
		if err := r.Read(addr, got); err != nil {
			t.Fatal(err)
		}
		if err := r.UnlockShared(addr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("round %d: reader saw stale data", round)
		}
	}
}

func TestVersionBumpsOnUnlock(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(64)
	v0, err := cl.Version(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := cl.UnlockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	v1, err := cl.Version(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Seqlock discipline: +1 at lock (odd), +1 at unlock (even again).
	if v1 != v0+2 {
		t.Fatalf("version %d -> %d, want +2", v0, v1)
	}
	if v1%2 != 0 {
		t.Fatalf("version %d odd after unlock", v1)
	}
}

func TestReadOptimistic(t *testing.T) {
	c := newTestCluster(t, testConfig())
	w := connect(t, c, "writer")
	r := connect(t, c, "reader")
	addr, err := w.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 128)
	if err := w.LockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	// While the writer holds the lock, an optimistic read must NOT
	// return torn data — it retries and eventually reports contention.
	got := make([]byte, 128)
	if err := r.ReadOptimistic(addr, got); !errors.Is(err, ErrContended) {
		t.Fatalf("optimistic read during write: %v", err)
	}
	if err := w.UnlockExclusive(addr); err != nil {
		t.Fatal(err)
	}
	// After the unlock it succeeds and sees the committed value.
	if err := r.ReadOptimistic(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("optimistic read returned stale data")
	}
	if err := r.ReadOptimistic(region.MustGAddr(99, 64), got); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("optimistic read of unknown server: %v", err)
	}
	r.Close()
	if err := r.ReadOptimistic(addr, got); !errors.Is(err, ErrClosed) {
		t.Fatalf("optimistic read after close: %v", err)
	}
}

func TestUnknownServerAddress(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	bad := region.MustGAddr(77, 64)
	if err := cl.Read(bad, make([]byte, 4)); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("read: %v", err)
	}
	if err := cl.Write(bad, []byte("x")); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("write: %v", err)
	}
	if err := cl.LockExclusive(bad); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("lock: %v", err)
	}
	if err := cl.Free(bad); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("free: %v", err)
	}
}

func TestClockAdvances(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(64)
	t0 := cl.Now()
	if err := cl.Write(addr, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	t1 := cl.Now()
	if !t1.After(t0) {
		t.Fatalf("clock did not advance: %v -> %v", t0, t1)
	}
	if err := cl.Read(addr, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if !cl.Now().After(t1) {
		t.Fatal("clock did not advance on read")
	}
}

func TestFreeDemotesPromotedObject(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	addr, _ := cl.Malloc(512)
	if err := cl.Write(addr, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, addr)
	settle(t, c, cl, addr)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Skip("promotion did not land")
	}
	if err := cl.Free(addr); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Promoted != 0 {
		t.Fatalf("promoted count %d after free", st.Promoted)
	}
	if st.BufferUsed != 0 {
		t.Fatalf("buffer bytes %d leaked after free", st.BufferUsed)
	}
}

func TestAdvanceToAndFrontier(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	t0 := cl.Now()
	cl.AdvanceTo(t0 + 1000)
	if cl.Now() != t0+1000 {
		t.Fatalf("AdvanceTo: %v", cl.Now())
	}
	cl.AdvanceTo(t0) // never backwards
	if cl.Now() != t0+1000 {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	// Another client's op pushes the fabric frontier past this clock.
	cl2 := connect(t, c, "u2")
	addr, _ := cl2.Malloc(64)
	for i := 0; i < 50; i++ {
		if err := cl2.Write(addr, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	cl.AdvanceToFrontier()
	if cl.Now() < cl2.Now() {
		t.Fatalf("frontier sync: %v < %v", cl.Now(), cl2.Now())
	}
}

func TestSyncAllViewsRefreshesEveryServer(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	// Make one hot object per server.
	buf := make([]byte, 512)
	var addrs []region.GAddr
	for sid := uint16(1); sid <= 2; sid++ {
		a, err := cl.MallocOn(sid, 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(a, buf); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 0; i < 32; i++ {
		for _, a := range addrs {
			if err := cl.Read(a, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range c.Registry().Servers() {
		if err := s.Engine().Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SyncAllViews(); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Registry().Servers() {
		if err := s.Engine().Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SyncAllViews(); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().CacheHits
	for _, a := range addrs {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Stats().CacheHits - before; got != int64(len(addrs)) {
		t.Fatalf("hits after SyncAllViews = %d, want %d", got, len(addrs))
	}
	cl.Close()
	if err := cl.SyncAllViews(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SyncAllViews after close: %v", err)
	}
	if err := cl.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after close: %v", err)
	}
}

func TestStatsHitRate(t *testing.T) {
	s := Stats{CacheHits: 3, CacheMiss: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %f", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty HitRate")
	}
}

func TestReadMulti(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	const k = 6
	addrs := make([]region.GAddr, k)
	bufs := make([][]byte, k)
	for i := range addrs {
		a, err := cl.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(a, bytes.Repeat([]byte{byte(i + 1)}, 128)); err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		bufs[i] = make([]byte, 128)
	}
	t0 := cl.Now()
	if err := cl.ReadMulti(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	batched := cl.Now().Sub(t0)
	for i, b := range bufs {
		for _, v := range b {
			if v != byte(i+1) {
				t.Fatalf("entry %d corrupted: %d", i, v)
			}
		}
	}
	// Sequential baseline for the same reads costs much more.
	t1 := cl.Now()
	for i := range addrs {
		if err := cl.Read(addrs[i], bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sequential := cl.Now().Sub(t1)
	if sequential < 2*batched {
		t.Fatalf("batch %v not well below sequential %v", batched, sequential)
	}
	// Validation and edge cases.
	if err := cl.ReadMulti(addrs[:2], bufs[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := cl.ReadMulti(nil, nil); err != nil {
		t.Fatalf("empty multi-read: %v", err)
	}
	if err := cl.ReadMulti([]region.GAddr{region.MustGAddr(88, 64)}, bufs[:1]); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("unknown server: %v", err)
	}
	cl.Close()
	if err := cl.ReadMulti(addrs, bufs); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

func TestReadMultiReadsYourWrites(t *testing.T) {
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	a, _ := cl.Malloc(64)
	b, _ := cl.Malloc(64)
	if err := cl.Write(a, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(b, bytes.Repeat([]byte{2}, 64)); err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := cl.ReadMulti([]region.GAddr{a, b}, bufs); err != nil {
		t.Fatal(err)
	}
	if bufs[0][0] != 1 || bufs[1][0] != 2 {
		t.Fatal("multi-read missed own staged writes")
	}
}

func TestReadMultiHitsCache(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	a, _ := cl.MallocOn(1, 512)
	want := bytes.Repeat([]byte{0x77}, 512)
	if err := cl.Write(a, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, a)
	settle(t, c, cl, a)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Skip("promotion did not land")
	}
	before := cl.Stats().CacheHits
	bufs := [][]byte{make([]byte, 512)}
	if err := cl.ReadMulti([]region.GAddr{a}, bufs); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().CacheHits != before+1 {
		t.Fatal("multi-read did not use the cache")
	}
	if !bytes.Equal(bufs[0], want) {
		t.Fatal("cached multi-read wrong data")
	}
}
