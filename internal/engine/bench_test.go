package engine

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"gengar/internal/cache"
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

// promotedSizes are the resident-set sizes the planner benchmarks run
// at: a promotion round must cost the same whether 64 copies are held or
// 2048.
var promotedSizes = []int{64, 2048}

// planStream is a stationary access stream for the planner benchmarks:
// a sketch of 4096 counters, all in use, over 4096 live 1 KiB objects of
// which the first `promoted` are hot (three quarters of the weight,
// spread evenly) and fill the arena. One round is one digest of 32
// reads, stamped one PlanEvery after the last, so every digest runs a
// promotion round. Aging balances the weight the stream adds: a hot
// object settles around 0.75*65536/promoted, a cold one around
// 0.25*65536/(4096-promoted) — above MinWeight, never enough to
// displace — so with a constant budget no round has anything to move.
type planStream struct {
	eng       *Engine
	hot, cold []region.GAddr
	round     int
	entries   []hotness.Entry
}

const planSketchK = 4096

// copyBudget sizes a planner test for exactly `copies` promoted 1 KiB
// objects: the plan budget is copies copy footprints, and the arena is
// the smallest power of two (the config's rule) that holds them. The
// arena alone would hold more — 64 footprints round up to a 128 KiB
// arena of 120 — so the tests pin the budget instead.
func copyBudget(copies int) (budget, arena int64) {
	budget = int64(copies) * cache.CopyFootprint(1024)
	return budget, 1 << bits.Len64(uint64(budget-1))
}

func newPlanStream(tb testing.TB, promoted int, placer func(*Engine) Placer) *planStream {
	tb.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 256 << 20
	budget, arena := copyBudget(promoted)
	cfg.DRAMBufferBytes = arena
	cfg.Hotness.SketchK = planSketchK
	eng, err := New(Config{ID: 1, Name: "eng-plan", Cluster: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	eng.policy.BudgetBytes = budget
	eng.SetPlacer(placer(eng))
	addrs := make([]region.GAddr, planSketchK)
	for i := range addrs {
		if addrs[i], err = eng.Malloc(1024); err != nil {
			tb.Fatal(err)
		}
	}
	s := &planStream{eng: eng, hot: addrs[:promoted], cold: addrs[promoted:], entries: make([]hotness.Entry, 32)}
	// Two aging periods settle the counts; the arena fills 16 copies a
	// round on the way.
	for i := 0; i < 2*16*planSketchK/64; i++ {
		s.digest()
	}
	if st := eng.Stats(); st.Promoted != promoted {
		tb.Fatalf("warm-up left %d of %d copies: %+v", st.Promoted, promoted, st)
	}
	return s
}

// digest lands the stream's next round: 24 reads of hot objects, 8 of
// cold ones, each walking its set in order.
func (s *planStream) digest() {
	for j := range s.entries {
		set, n := s.hot, 24*s.round+j
		if j >= 24 {
			set, n = s.cold, 8*s.round+j
		}
		s.entries[j] = hotness.Entry{Addr: set[n%len(set)], Reads: 1}
	}
	s.round++
	s.eng.Digest(simnet.Time(s.round)*simnet.Time(time.Millisecond), s.entries)
}

// flipPlacer is a local placer whose copy budget alternates between the
// whole arena and 16 copies less, round by round: every round then has
// exactly 16 objects to move — the coldest 16 out, and the same 16, now
// the strongest challengers, back in — and the stream stays stationary.
type flipPlacer struct {
	*LocalPlacer
	arena int64
	calls int
}

func (p *flipPlacer) CopyBudget() int64 {
	p.calls++
	return p.arena - int64(p.calls%2)*16*cache.CopyFootprint(1024)
}

// BenchmarkPlanRound measures one digest of 32 reads plus the promotion
// round it triggers, with the sketch full at 4096 counters: rounds that
// have nothing to move (steady), and rounds that move 16 copies
// (churn16: flusher quiesced, copies installed or released, remap table
// updated).
func BenchmarkPlanRound(b *testing.B) {
	for _, promoted := range promotedSizes {
		b.Run(fmt.Sprintf("promoted=%d/steady", promoted), func(b *testing.B) {
			s := newPlanStream(b, promoted, func(e *Engine) Placer { return NewLocalPlacer(e) })
			before := s.eng.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.digest()
			}
			b.StopTimer()
			if after := s.eng.Stats(); after.RemapEpoch != before.RemapEpoch {
				b.Fatalf("steady rounds moved copies: %+v -> %+v", before, after)
			}
		})
		b.Run(fmt.Sprintf("promoted=%d/churn16", promoted), func(b *testing.B) {
			s := newPlanStream(b, promoted, func(e *Engine) Placer {
				budget, _ := copyBudget(promoted)
				return &flipPlacer{LocalPlacer: NewLocalPlacer(e), arena: budget}
			})
			before := s.eng.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.digest()
			}
			b.StopTimer()
			after := s.eng.Stats()
			moved := after.Promotions - before.Promotions + after.Demotions - before.Demotions
			if moved < int64(15*b.N) || moved > int64(17*b.N) {
				b.Fatalf("%d copies moved in %d rounds, want 16 a round", moved, b.N)
			}
		})
	}
}

// BenchmarkRemapApply measures one remap-table batch of 16 promotions
// and 16 demotions against a table already holding `entries` copies.
func BenchmarkRemapApply(b *testing.B) {
	for _, entries := range promotedSizes {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			rt := cache.NewRemapTable()
			fp := cache.CopyFootprint(1024)
			base := func(i int) region.GAddr { return region.MustGAddr(1, int64(i)*1024) }
			// Objects [lo, lo+entries) are promoted; each batch slides the
			// window by 16.
			fill := make([]cache.RemapAdd, entries)
			for i := range fill {
				fill[i] = cache.RemapAdd{Addr: base(i), Loc: cache.Location{Off: int64(i) * fp, Size: 1024, Gen: 1}}
			}
			rt.Apply(fill, nil, nil)
			add := make([]cache.RemapAdd, 16)
			remove := make([]region.GAddr, 16)
			var released []cache.Location
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := 16 * i
				for j := 0; j < 16; j++ {
					remove[j] = base(lo + j)
					add[j] = cache.RemapAdd{Addr: base(lo + entries + j), Loc: cache.Location{Off: int64(lo+j) * fp, Size: 1024, Gen: uint64(i + 2)}}
				}
				if released = rt.Apply(add, remove, released[:0]); len(released) != 16 {
					b.Fatalf("batch %d released %d copies", i, len(released))
				}
			}
			b.StopTimer()
			if rt.Len() != entries {
				b.Fatalf("table holds %d entries, want %d", rt.Len(), entries)
			}
		})
	}
}

// TestPlanRoundFlatInPromoted is the planner's scaling gate: a digest
// plus its promotion round with 2048 copies resident must cost within
// 2x of the same with 64 (the sort-based planner it replaced was O(sketch)
// + O(promoted) a round, results/e19.planner.txt). Best of five short
// runs per size, so one scheduling hiccup does not decide it.
func TestPlanRoundFlatInPromoted(t *testing.T) {
	cost := func(promoted int) time.Duration {
		s := newPlanStream(t, promoted, func(e *Engine) Placer { return NewLocalPlacer(e) })
		const rounds = 2000
		epoch := s.eng.Stats().RemapEpoch
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 5; run++ {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				s.digest()
			}
			best = min(best, time.Since(start))
		}
		if got := s.eng.Stats().RemapEpoch; got != epoch {
			t.Fatalf("promoted=%d: a stationary stream moved copies (epoch %d -> %d)", promoted, epoch, got)
		}
		return best / rounds
	}
	small, large := cost(promotedSizes[0]), cost(promotedSizes[1])
	t.Logf("digest + round: %v at promoted=64, %v at promoted=2048", small, large)
	if large > 2*small {
		t.Fatalf("a round costs %v with 2048 copies resident, %v with 64: more than 2x", large, small)
	}
}
