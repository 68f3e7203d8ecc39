package engine

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/hotness"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

// newPlanEngine builds an engine with a local placer, a sketch of k
// counters and a plan budget of exactly `copies` promoted 1 KiB objects
// (copyBudget), with n live 1 KiB objects each stamped with its index.
func newPlanEngine(tb testing.TB, k int, copies int64, n int) (*Engine, []region.GAddr) {
	tb.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 256 << 20
	budget, arena := copyBudget(int(copies))
	cfg.DRAMBufferBytes = arena
	cfg.Hotness.SketchK = k
	eng, err := New(Config{ID: 1, Name: "eng-plan", Cluster: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	eng.policy.BudgetBytes = budget
	eng.SetPlacer(NewLocalPlacer(eng))
	addrs := make([]region.GAddr, n)
	for i := range addrs {
		if addrs[i], err = eng.Malloc(1024); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.WriteNVM(0, addrs[i], stamped(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, addrs
}

// stamped is object i's content: its index in every 8-byte word.
func stamped(i int) []byte {
	b := make([]byte, 1024)
	for off := 0; off < len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], uint64(i))
	}
	return b
}

// planClock hands out instants one PlanEvery apart, so every digest
// stamped with the next one is due a promotion round.
type planClock simnet.Time

func (c *planClock) next() simnet.Time {
	*c += planClock(time.Millisecond)
	return simnet.Time(*c)
}

// fillCache digests reads of addrs[:resident] until all of them hold a
// copy, and returns the entries of one such digest: replayed, they keep
// the resident set exactly where it is.
func fillCache(tb testing.TB, eng *Engine, clk *planClock, addrs []region.GAddr, resident int) []hotness.Entry {
	tb.Helper()
	hot := make([]hotness.Entry, resident)
	for i := range hot {
		hot[i] = hotness.Entry{Addr: addrs[i], Reads: 8}
	}
	for round := 0; eng.Stats().Promoted < resident; round++ {
		if round > 2*resident {
			tb.Fatalf("only %d of %d objects promoted after %d rounds", eng.Stats().Promoted, resident, round)
		}
		eng.Digest(clk.next(), hot)
	}
	return hot
}

// TestPlanRoundWithoutChangeTouchesOnlyTheSketch: once the resident set
// matches the hot set, a round leaves the remap epoch alone and never
// goes to the flusher. The test holds every flush worker (and the
// flusher's task lock) inside a Submit of its own while the rounds run:
// a round that tried to quiesce the workers would never return. (The
// race-mode twin of TestPlanRoundAllocs.)
func TestPlanRoundWithoutChangeTouchesOnlyTheSketch(t *testing.T) {
	s := newPlanStream(t, 64, func(e *Engine) Placer { return NewLocalPlacer(e) })
	before := s.eng.Stats()

	done := make(chan struct{})
	go func() {
		_ = s.eng.Flusher().Submit(func() {
			for i := 0; i < 500; i++ {
				s.digest()
			}
			close(done)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a round that changes nothing waited for the flush workers")
	}
	after := s.eng.Stats()
	if after.RemapEpoch != before.RemapEpoch || after.Promotions != before.Promotions || after.Demotions != before.Demotions {
		t.Fatalf("stable rounds moved copies: %+v -> %+v", before, after)
	}
	if after.Digests != before.Digests+500 {
		t.Fatalf("digests %d -> %d, want +500", before.Digests, after.Digests)
	}
}

// TestFreeClearsResidency: freeing a promoted object releases its copy
// and takes it out of the planner's resident set, so its bytes are
// budgeted to the next challenger.
func TestFreeClearsResidency(t *testing.T) {
	eng, addrs := newPlanEngine(t, 256, 2, 3)
	var clk planClock
	fillCache(t, eng, &clk, addrs, 2)
	if n := eng.sketch.Residents(); n != 2 {
		t.Fatalf("sketch counts %d residents, want 2", n)
	}
	if err := eng.Free(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if n, st := eng.sketch.Residents(), eng.Stats(); n != 1 || st.Promoted != 1 || st.BufferUsed != cache.CopyFootprint(1024) {
		t.Fatalf("after free: %d residents, %+v", n, st)
	}
	// The budget holds two copies: the third object gets the freed
	// bytes without displacing the survivor.
	for i := 0; i < 4; i++ {
		eng.Digest(clk.next(), []hotness.Entry{{Addr: addrs[2], Reads: 8}, {Addr: addrs[1], Reads: 8}})
	}
	if _, ok := eng.Remap().Lookup(addrs[2]); !ok || eng.Stats().Promoted != 2 {
		t.Fatalf("freed budget not reused: %+v", eng.Stats())
	}
}

// TestAgingIgnoresTimestamps: what the sketch remembers depends on the
// accesses digested, not on the instants they are stamped with. A key
// at 1 % of the stream stays at or above MinWeight (and promoted) across
// 50 halvings whether the mount's clock stands still, runs backwards or
// jumps an hour per digest.
func TestAgingIgnoresTimestamps(t *testing.T) {
	const k = 256 // resolves keys above 1/256 of the stream
	clocks := map[string]func(i int) simnet.Time{
		"frozen":    func(int) simnet.Time { return 0 },
		"backwards": func(i int) simnet.Time { return simnet.Time(time.Hour) - simnet.Time(i)*simnet.Time(time.Microsecond) },
		"hourly":    func(i int) simnet.Time { return simnet.Time(i) * simnet.Time(time.Hour) },
	}
	weights := make(map[string]uint64)
	for name, clock := range clocks {
		eng, addrs := newPlanEngine(t, k, 8, 400)
		hot, cold := addrs[0], addrs[1:]
		// One digest = 99 reads spread over the cold objects and one of
		// the hot one: weight 200, 1 % of it hot.
		digests := 50 * hotness.DecayWeightPerCounter * k / 200
		entries := make([]hotness.Entry, 0, 100)
		for i := 0; i < digests; i++ {
			entries = append(entries[:0], hotness.Entry{Addr: hot, Reads: 1})
			for j := 0; j < 99; j++ {
				entries = append(entries, hotness.Entry{Addr: cold[(99*i+j)%len(cold)], Reads: 1})
			}
			eng.Digest(clock(i), entries)
			if i > digests/50 && eng.sketch.Estimate(hot) < eng.cfg.Hotness.MinWeight {
				t.Fatalf("%s clock: hot key at weight %d after digest %d", name, eng.sketch.Estimate(hot), i)
			}
		}
		weights[name] = eng.sketch.Estimate(hot)
		if _, ok := eng.Remap().Lookup(hot); !ok && name != "frozen" {
			// (A frozen clock is due one round only, the first.)
			t.Fatalf("%s clock: hot key not promoted: %+v", name, eng.Stats())
		}
	}
	if weights["frozen"] != weights["backwards"] || weights["frozen"] != weights["hourly"] {
		t.Fatalf("the sketch aged by the clock: final weights %v", weights)
	}
}

// TestReadersVersusPlanner: four readers on ReadAt against a planner
// that keeps swapping the resident set (every round promotes and
// demotes, so copies are installed, released and their slots reused the
// whole time). A read, hit or miss, always returns the object's own
// bytes; the remap Snapshot is always one epoch's table, never more copies
// than the arena holds.
func TestReadersVersusPlanner(t *testing.T) {
	const copies, objects = 16, 64
	eng, addrs := newPlanEngine(t, 256, copies, objects)
	rounds := 600
	if testing.Short() {
		rounds = 150
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var hits atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 1024)
			for i := r; !stop.Load(); i += 7 {
				obj := i % objects
				_, src, err := eng.ReadAt(0, addrs[obj], buf)
				if err != nil {
					t.Errorf("read of object %d: %v", obj, err)
					return
				}
				if !bytes.Equal(buf, stamped(obj)) {
					t.Errorf("read of object %d (source %d) returned object %d's bytes", obj, src, binary.LittleEndian.Uint64(buf))
					return
				}
				if src.Hit() {
					hits.Add(1)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			epoch, snap := eng.Remap().Snapshot()
			if len(snap) > copies {
				t.Errorf("snapshot at epoch %d holds %d copies, arena holds %d", epoch, len(snap), copies)
				return
			}
			for base, loc := range snap {
				if loc.Size != 1024 || eng.objIdx.sizeOf(base) != 1024 {
					t.Errorf("snapshot at epoch %d maps %v to %+v", epoch, base, loc)
					return
				}
			}
		}
	}()

	// The planner: a hot window of `copies` objects that slides by four
	// per round, digested hard enough to displace the incumbents.
	var clk planClock
	entries := make([]hotness.Entry, copies)
	for round := 0; round < rounds; round++ {
		for j := range entries {
			entries[j] = hotness.Entry{Addr: addrs[(4*round+j)%objects], Reads: uint64(64 * (round + 1))}
		}
		eng.Digest(clk.next(), entries)
	}
	stop.Store(true)
	wg.Wait()
	st := eng.Stats()
	if st.Promotions < int64(rounds) || st.Demotions < int64(rounds)/2 || hits.Load() == 0 {
		t.Fatalf("the planner hardly moved (or no read ever hit): %d hits, %+v", hits.Load(), st)
	}
}
