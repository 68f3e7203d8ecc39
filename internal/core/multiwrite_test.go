package core

import (
	"bytes"
	"errors"
	"testing"

	"gengar/internal/config"
	"gengar/internal/region"
)

func TestWriteMulti(t *testing.T) {
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
		addrs[i] = a
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 128)
	}
	t0 := cl.Now()
	if err := cl.WriteMulti(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	batched := cl.Now().Sub(t0)
	got := make([]byte, 128)
	for i := range addrs {
		if err := cl.Read(addrs[i], got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Fatalf("entry %d wrong data after batched write", i)
		}
	}
	// Sequential baseline for the same writes costs much more.
	t1 := cl.Now()
	for i := range addrs {
		if err := cl.Write(addrs[i], bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sequential := cl.Now().Sub(t1)
	if sequential < 2*batched {
		t.Fatalf("batch %v not well below sequential %v", batched, sequential)
	}
	// Validation and edge cases.
	if err := cl.WriteMulti(addrs[:2], bufs[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := cl.WriteMulti(nil, nil); err != nil {
		t.Fatalf("empty multi-write: %v", err)
	}
	if err := cl.WriteMulti([]region.GAddr{region.MustGAddr(88, 64)}, bufs[:1]); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("unknown server: %v", err)
	}
	cl.Close()
	if err := cl.WriteMulti(addrs, bufs); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

func TestWriteMultiReadYourWrites(t *testing.T) {
	// A batched staged burst must be immediately visible to the client's
	// own reads, before any flush.
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	a, _ := cl.Malloc(64)
	b, _ := cl.Malloc(64)
	if err := cl.WriteMulti(
		[]region.GAddr{a, b},
		[][]byte{bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)},
	); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := cl.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("read missed own batched staged write to a")
	}
	if err := cl.Read(b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatal("read missed own batched staged write to b")
	}
}

func TestWriteMultiChunksLargeWrites(t *testing.T) {
	// Entries larger than a ring slot chunk through the ring like Write.
	c := newTestCluster(t, testConfig())
	cl := connect(t, c, "u1")
	size := int64(3*testConfig().Proxy.RingSlotSize + 17)
	a, err := cl.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := cl.WriteMulti([]region.GAddr{a}, [][]byte{data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := cl.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("chunked batched write corrupted data")
	}
}

func TestWriteMultiDirectCoalescesFences(t *testing.T) {
	// Direct path (no proxy, no cache): one chain to one server must pay
	// one persist fence, not k.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Features = config.Features{}
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	const k = 8
	addrs := make([]region.GAddr, k)
	bufs := make([][]byte, k)
	for i := range addrs {
		a, err := cl.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 128)
	}
	if err := cl.WriteMulti(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	if got := cl.coalescedFences.Load(); got != k-1 {
		t.Fatalf("coalesced fences = %d, want %d", got, k-1)
	}
	got := make([]byte, 128)
	for i := range addrs {
		if err := cl.Read(addrs[i], got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Fatalf("entry %d wrong data after direct batched write", i)
		}
	}
}

func TestWriteMultiDirectCacheStaysCoherent(t *testing.T) {
	// Ablation: cache on, proxy off. A batched direct write must refresh
	// promoted copies via one batched write-through RPC per chain.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Features = config.Features{Cache: true, Proxy: false}
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	hot, _ := cl.Malloc(512)
	cold, _ := cl.Malloc(512)
	if err := cl.Write(hot, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(cold, bytes.Repeat([]byte{2}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(hot, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, hot)
	settle(t, c, cl, hot)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Skip("promotion did not land")
	}
	rpcsBefore := cl.coalescedRPCs.Load()
	if err := cl.WriteMulti(
		[]region.GAddr{hot, cold},
		[][]byte{bytes.Repeat([]byte{9}, 512), bytes.Repeat([]byte{8}, 512)},
	); err != nil {
		t.Fatal(err)
	}
	if got := cl.coalescedRPCs.Load(); got != rpcsBefore+1 {
		t.Fatalf("coalesced write-through RPCs = %d, want %d", got, rpcsBefore+1)
	}
	hitsBefore := cl.Stats().CacheHits
	if err := cl.Read(hot, buf); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().CacheHits == hitsBefore {
		t.Skip("read not served by the copy; coherence path untested")
	}
	for i := range buf {
		if buf[i] != 9 {
			t.Fatalf("stale cached byte at %d after batched direct write", i)
		}
	}
}

func TestReadMultiStaleGenerationBatchedRetry(t *testing.T) {
	// Same displacement dance as TestStaleGenerationFallback, but the
	// stale read goes through ReadMulti: the follow-up fetch must take the
	// batched per-node retry chain and still return A's bytes.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.DRAMBufferBytes = 1 << 10 // fits one 512B copy
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

	// cl's view still maps A; the slot now holds B's copy. Both entries
	// of the vectored read hit the stale copy and retry in one chain.
	staleBefore := cl.staleGen.Load()
	bufs := [][]byte{make([]byte, 512), make([]byte, 512)}
	if err := cl.ReadMulti([]region.GAddr{a, a}, bufs); err != nil {
		t.Fatal(err)
	}
	if got := cl.staleGen.Load(); got < staleBefore+2 {
		t.Skipf("stale path not taken (stale retries %d -> %d)", staleBefore, got)
	}
	for e, bf := range bufs {
		for i := range bf {
			if bf[i] != 'A' {
				t.Fatalf("stale-view batched read entry %d returned %q at %d", e, bf[i], i)
			}
		}
	}
}
