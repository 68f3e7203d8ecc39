package engine

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gengar/internal/config"
	"gengar/internal/hotness"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

// newBenchEngine builds a one-server engine with a local placer and one
// promoted 4 KiB object, returning the engine and the object's address.
// The promotion is verified before the caller starts timing.
func newBenchEngine(b *testing.B) (*Engine, region.GAddr) {
	b.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	eng, err := New(Config{ID: 1, Name: "eng-bench", Cluster: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	eng.SetPlacer(NewLocalPlacer(eng))

	a, err := eng.Malloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 4096)
	if _, err := eng.WriteNVM(0, a, data); err != nil {
		b.Fatal(err)
	}
	eng.Digest(simnet.Time(time.Millisecond), []hotness.Entry{{Addr: a, Reads: 100}})
	done := make(chan struct{})
	if err := eng.Flusher().Submit(func() { close(done) }); err != nil {
		b.Fatal(err)
	}
	<-done

	buf := make([]byte, 128)
	if _, src, err := eng.ReadAt(0, a, buf); err != nil || !src.Hit() {
		b.Fatalf("warm-up read: src=%v err=%v", src, err)
	}
	return eng, a
}

// BenchmarkReadHitParallel measures the server-mediated cache-hit read
// path under goroutine fan-in — the per-op cost every TCP connection
// pays once the object is promoted. Run with -cpu=1,4,16 to see the
// contention profile; recorded before the seqlock change so the speedup
// is differential, not asserted.
func BenchmarkReadHitParallel(b *testing.B) {
	eng, a := newBenchEngine(b)
	addr := region.MustGAddr(1, a.Offset()+64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 128)
		for pb.Next() {
			if _, src, err := eng.ReadAt(0, addr, buf); err != nil || !src.Hit() {
				b.Errorf("read src=%v err=%v", src, err)
				return
			}
		}
	})
}

// liveSizes are the live-object counts the control-path benchmarks run
// at: gmalloc/gfree and address resolution must cost the same whether
// the server holds a thousand objects or sixty-four thousand.
var liveSizes = []int{1 << 10, 8 << 10, 64 << 10}

// newLiveEngine builds an engine over a 256 MiB pool (gengard's default)
// holding live 1 KiB objects, none promoted.
func newLiveEngine(tb testing.TB, live int) (*Engine, []region.GAddr) {
	tb.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 256 << 20
	eng, err := New(Config{ID: 1, Name: "eng-live", Cluster: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	addrs := make([]region.GAddr, live)
	for i := range addrs {
		if addrs[i], err = eng.Malloc(1024); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, addrs
}

// mallocFree runs n Malloc+Free pairs of a 1 KiB object.
func mallocFree(tb testing.TB, eng *Engine, n int) {
	for i := 0; i < n; i++ {
		a, err := eng.Malloc(1024)
		if err != nil {
			tb.Fatal(err)
		}
		if err := eng.Free(a); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkMallocFree measures one gmalloc+gfree pair against a server
// already holding live objects.
func BenchmarkMallocFree(b *testing.B) {
	for _, live := range liveSizes {
		b.Run(fmt.Sprintf("live=%dk", live>>10), func(b *testing.B) {
			eng, _ := newLiveEngine(b, live)
			b.ReportAllocs()
			b.ResetTimer()
			mallocFree(b, eng, b.N)
		})
	}
}

// BenchmarkFindContaining measures resolving an interior address to its
// object — the lookup every mediated read, write and digest entry makes.
func BenchmarkFindContaining(b *testing.B) {
	for _, live := range liveSizes {
		b.Run(fmt.Sprintf("live=%dk", live>>10), func(b *testing.B) {
			eng, addrs := newLiveEngine(b, live)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A stride coprime to the count walks the whole set, so
				// the lookups do not all sit in one cache line.
				a := addrs[i*7919%len(addrs)]
				if base, _, ok := eng.ObjectSpan(a.Add(512), 64); !ok || base != a {
					b.Fatalf("ObjectSpan(%v) = %v,%v", a, base, ok)
				}
			}
		})
	}
}

// TestMallocFreeFlatInLiveObjects is the scaling gate: Malloc+Free with
// 64k live objects must cost within 3x of the same pair with 1k (the
// copy-on-write index it replaced was 122x, results/e19.objindex.txt).
// Best of five short rounds per size, so one scheduling hiccup does not
// decide it.
func TestMallocFreeFlatInLiveObjects(t *testing.T) {
	cost := func(live int) time.Duration {
		eng, _ := newLiveEngine(t, live)
		const pairs = 2000
		mallocFree(t, eng, pairs) // settle slab and chunk allocation
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			mallocFree(t, eng, pairs)
			best = min(best, time.Since(start))
		}
		return best / pairs
	}
	small, large := cost(liveSizes[0]), cost(liveSizes[len(liveSizes)-1])
	t.Logf("Malloc+Free: %v at live=1k, %v at live=64k", small, large)
	if large > 3*small {
		t.Fatalf("Malloc+Free costs %v with 64k live objects, %v with 1k: more than 3x", large, small)
	}
}
