package hotness

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"gengar/internal/region"
)

func ga(off int64) region.GAddr { return region.MustGAddr(1, off) }

// TestStaging pins the staging contract: a digest fires exactly at the
// Nth observation, carries per-object read/write counts in first-seen
// order, keeps observations made while it is in flight for the next
// digest, and an empty flush sends nothing.
func TestStaging(t *testing.T) {
	a, b, c := ga(64), ga(128), ga(192)
	type step struct {
		obs    []Obs // observed in order
		during []Obs // observed from inside the digest this step sends
		flush  bool  // then flushed
		want   [][]Entry
	}
	for _, tc := range []struct {
		name  string
		every int
		steps []step
	}{
		{"fires exactly at N", 3, []step{
			{obs: []Obs{{a, false}, {b, true}}},
			{obs: []Obs{{a, true}}, want: [][]Entry{{{a, 1, 1}, {b, 0, 1}}}},
			{obs: []Obs{{a, false}, {a, false}}},
		}},
		{"first-seen order, not weight or address", 4, []step{
			{obs: []Obs{{c, true}, {a, false}, {b, false}, {a, false}},
				want: [][]Entry{{{c, 0, 1}, {a, 2, 0}, {b, 1, 0}}}},
		}},
		{"observations during a digest wait for the next", 2, []step{
			{obs: []Obs{{a, false}, {b, false}}, during: []Obs{{c, false}, {c, true}, {a, false}},
				want: [][]Entry{{{a, 1, 0}, {b, 1, 0}}}},
			{obs: []Obs{{b, false}}, want: [][]Entry{{{c, 1, 1}, {a, 1, 0}, {b, 1, 0}}}},
		}},
		{"flush sends what is staged, and nothing when empty", 8, []step{
			{flush: true},
			{obs: []Obs{{b, true}, {a, false}}, flush: true, want: [][]Entry{{{b, 0, 1}, {a, 1, 0}}}},
			{flush: true},
		}},
	} {
		s := NewStaging(tc.every)
		for i, st := range tc.steps {
			var got [][]Entry
			send := func(e []Entry) {
				got = append(got, append([]Entry(nil), e...))
				for _, o := range st.during {
					s.Observe(o.Addr, o.Write, func([]Entry) { t.Errorf("%s step %d: a second digest while one is in flight", tc.name, i) })
				}
			}
			for _, o := range st.obs {
				s.Observe(o.Addr, o.Write, send)
			}
			if st.flush {
				if sent := s.Flush(send); sent != (len(st.want) > 0) {
					t.Errorf("%s step %d: Flush reported sent=%v", tc.name, i, sent)
				}
			}
			if !reflect.DeepEqual(got, st.want) {
				t.Errorf("%s step %d: digests %v, want %v", tc.name, i, got, st.want)
			}
		}
	}
}

// TestStagingConcurrent races observers against the digests they
// trigger: every observation lands in exactly one digest, and digests
// never overlap (send's counters are plain ints, so an overlap is a data
// race under -race).
func TestStagingConcurrent(t *testing.T) {
	const goroutines, each = 8, 1000
	s := NewStaging(7)
	var reads, writes, digests uint64
	send := func(e []Entry) {
		digests++
		for _, ent := range e {
			reads += ent.Reads
			writes += ent.Writes
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Observe(ga(int64(i%5)*64), g%2 == 0, send)
			}
		}(g)
	}
	wg.Wait()
	s.Flush(send)
	if reads+writes != goroutines*each || writes != goroutines/2*each || len(s.buf) != 0 {
		t.Fatalf("%d reads + %d writes in %d digests, %d left staged; want %d each",
			reads, writes, digests, len(s.buf), goroutines/2*each)
	}
}

// TestStagingBoundedChunk: a huge interval ("never digest") allocates a
// fixed chunk up front, not the interval, and grows by append past it.
func TestStagingBoundedChunk(t *testing.T) {
	for _, c := range []struct{ every, wantCap int }{
		{8, 8},
		{1 << 30, maxStagingChunk},
	} {
		s := NewStaging(c.every)
		if cap(s.buf) != c.wantCap || cap(s.spare) != c.wantCap {
			t.Errorf("every=%d: capacities %d/%d, want %d", c.every, cap(s.buf), cap(s.spare), c.wantCap)
		}
	}
	s := NewStaging(1 << 30)
	for i := 0; i < 2*maxStagingChunk; i++ {
		s.Observe(ga(64), false, func([]Entry) { t.Fatal("digest before the interval") })
	}
	if len(s.buf) != 2*maxStagingChunk {
		t.Fatalf("staged %d, want %d", len(s.buf), 2*maxStagingChunk)
	}
}

func TestSpaceSavingExactWhenSmall(t *testing.T) {
	s := NewSpaceSaving(10)
	for i := 0; i < 5; i++ {
		s.Add(ga(int64(i)*64), uint64(i+1))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	top := s.Top(2)
	if len(top) != 2 || top[0].Addr != ga(4*64) || top[0].Count != 5 || top[0].Err != 0 {
		t.Fatalf("Top: %+v", top)
	}
	if s.Estimate(ga(0)) != 1 || s.Estimate(ga(999*64)) != 0 {
		t.Fatal("Estimate wrong")
	}
	if s.Total() != 1+2+3+4+5 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestSpaceSavingZeroWeightIgnored(t *testing.T) {
	s := NewSpaceSaving(4)
	s.Add(ga(0), 0)
	if s.Len() != 0 || s.Total() != 0 {
		t.Fatal("zero weight recorded")
	}
}

func TestSpaceSavingEviction(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Add(ga(64), 10)
	s.Add(ga(128), 5)
	s.Add(ga(192), 1) // evicts ga(128) (min), inherits count 5
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Estimate(ga(128)) != 0 {
		t.Fatal("evicted key still present")
	}
	top := s.Top(-1)
	if top[1].Addr != ga(192) || top[1].Count != 6 || top[1].Err != 5 {
		t.Fatalf("stolen counter: %+v", top[1])
	}
}

func TestSpaceSavingHeavyHitterGuarantee(t *testing.T) {
	// Property: any key with true frequency > total/k survives in the
	// sketch, for random streams.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.2, 1, 1023)
		// One aging period (DecayWeightPerCounter*k) is longer than the
		// stream: the guarantee is about counts, not about aged ones.
		const k = 256
		s := NewSpaceSaving(k)
		exact := make(map[region.GAddr]uint64)
		var total uint64
		for i := 0; i < DecayWeightPerCounter*k-1; i++ {
			// Zipf: low offsets much more frequent.
			obj := int64(zipf.Uint64())
			addr := ga(obj * 64)
			s.Add(addr, 1)
			exact[addr]++
			total++
		}
		for addr, cnt := range exact {
			if cnt > total/k {
				got := s.Estimate(addr)
				if got == 0 || got < cnt {
					return false // must be present and never underestimate
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSavingDecay(t *testing.T) {
	s := NewSpaceSaving(8)
	s.Add(ga(64), 8)
	s.Add(ga(128), 1)
	s.halve()
	if s.Estimate(ga(64)) != 4 {
		t.Fatalf("decayed count = %d", s.Estimate(ga(64)))
	}
	if s.Len() != 1 {
		t.Fatalf("count-1 entry not dropped: Len = %d", s.Len())
	}
	if s.Total() != 4 {
		t.Fatalf("Total after decay = %d", s.Total())
	}
}

// halvings counts the sketch's agings so far, for tests that feed it a
// stream and need to know how old the sketch is.
type halvings struct {
	s    *SpaceSaving
	n    int
	last uint64
}

func (h *halvings) observe() int {
	if h.s.sinceDecay < h.last {
		h.n++
	}
	h.last = h.s.sinceDecay
	return h.n
}

func TestSketchAgesPerWeight(t *testing.T) {
	// A key at 1 % of the stream settles at 1 % of one aging period
	// (DecayWeightPerCounter*k = 4096 here, so ~41 after a halving, ~82
	// before): it never drops below MinWeight however long the stream,
	// and the sketch's total stays bounded by two periods.
	const k = 256
	s := NewSpaceSaving(k)
	age := halvings{s: s}
	hot := ga(0)
	for i := 0; age.observe() < 50; i++ {
		if i%100 == 0 {
			s.Add(hot, 1)
		} else {
			s.Add(ga(int64(1+i%1000)*64), 1)
		}
		if age.n > 0 && s.Estimate(hot) < DefaultPolicy(0).MinWeight {
			t.Fatalf("hot key at weight %d after %d halvings", s.Estimate(hot), age.n)
		}
		if s.Total() > 2*DecayWeightPerCounter*k {
			t.Fatalf("total %d after %d halvings: the sketch is not aging", s.Total(), age.n)
		}
	}
	if got := s.Estimate(hot); got < 30 || got > 90 {
		t.Fatalf("hot key settled at %d, want about 41..82", got)
	}
}

func TestUnseenKeyAgesOut(t *testing.T) {
	// A key that is no longer accessed loses one bit per halving: gone
	// after at most ceil(log2(count))+1 of them, its counter recycled.
	const k, count = 64, 1000 // ceil(log2(1000)) = 10
	s := NewSpaceSaving(k)
	age := halvings{s: s}
	stale := ga(0)
	s.Add(stale, count)
	s.sinceDecay, age.last = 0, 0 // the key's own weight does not start the clock
	for i := 0; age.observe() < 11; i++ {
		if age.n == 9 && s.Estimate(stale) == 0 {
			t.Fatalf("key of weight %d gone after only 9 halvings", count)
		}
		s.Add(ga(int64(1+i%32)*64), 1)
	}
	if s.Estimate(stale) != 0 || s.Len() != 32 || len(s.free) != 1 {
		t.Fatalf("after 11 halvings: weight %d, %d counters held, %d free", s.Estimate(stale), s.Len(), len(s.free))
	}
}

func TestRebalanceSteadyStateMovesNothing(t *testing.T) {
	// The race-mode twin of TestRebalanceSteadyStateAllocs: a full
	// sketch, a full budget, a stream that keeps the order — round after
	// round, nothing to do.
	s, p, stream := steadySketch()
	for i := 0; i < 200; i++ {
		stream()
		if promote, demote := p.Rebalance(s, sizeConst(64), nil, nil); len(promote)+len(demote) != 0 {
			t.Fatalf("round %d of a stable stream: +%v -%v", i, promote, demote)
		}
	}
	if s.Residents() != 32 || s.residentBytes != 32*64 {
		t.Fatalf("%d residents holding %d bytes, want 32 and %d", s.Residents(), s.residentBytes, 32*64)
	}
}

// steadySketch returns a full 128-counter sketch whose 32 hottest keys
// fill the policy's budget, and a function that replays one round's
// worth of the stream that made it so.
func steadySketch() (*SpaceSaving, Policy, func()) {
	s := NewSpaceSaving(128)
	p := Policy{BudgetBytes: 32 * 64, MinWeight: 4, Hysteresis: 1.5, MaxChurn: 16}
	stream := func() {
		for i := int64(0); i < 128; i++ {
			s.Add(ga(i*64), uint64(1+(128-i)/8))
		}
	}
	for i := 0; i < 64; i++ {
		stream()
		p.Rebalance(s, sizeConst(64), nil, nil)
	}
	return s, p, stream
}

func TestNewSpaceSavingClampsK(t *testing.T) {
	s := NewSpaceSaving(0)
	s.Add(ga(64), 1)
	s.Add(ga(128), 1)
	if s.Len() != 1 {
		t.Fatalf("k=0 sketch Len = %d, want 1", s.Len())
	}
}

func sizeConst(n int64) func(region.GAddr) int64 {
	return func(region.GAddr) int64 { return n }
}

func TestPolicyPlanBudget(t *testing.T) {
	s := NewSpaceSaving(16)
	for i := int64(0); i < 8; i++ {
		s.Add(ga(i*64), uint64(20-i)) // ga(0) hottest
	}
	p := Policy{BudgetBytes: 3 * 64, MinWeight: 1}
	promote, demote := p.Plan(s, sizeConst(64), nil)
	if len(promote) != 3 || len(demote) != 0 {
		t.Fatalf("promote=%v demote=%v", promote, demote)
	}
	want := map[region.GAddr]bool{ga(0): true, ga(64): true, ga(128): true}
	for _, a := range promote {
		if !want[a] {
			t.Fatalf("unexpected promotion %v", a)
		}
	}
}

func TestPolicyPlanStable(t *testing.T) {
	// With everything already promoted and unchanged hotness, Plan is a
	// no-op.
	s := NewSpaceSaving(16)
	s.Add(ga(0), 50)
	s.Add(ga(64), 40)
	promoted := map[region.GAddr]bool{ga(0): true, ga(64): true}
	p := DefaultPolicy(128)
	promote, demote := p.Plan(s, sizeConst(64), promoted)
	if len(promote) != 0 || len(demote) != 0 {
		t.Fatalf("stable plan changed: +%v -%v", promote, demote)
	}
}

func TestPolicyHysteresisProtectsIncumbent(t *testing.T) {
	s := NewSpaceSaving(16)
	s.Add(ga(0), 100)  // incumbent
	s.Add(ga(64), 110) // challenger, only 10% hotter
	promoted := map[region.GAddr]bool{ga(0): true}
	p := Policy{BudgetBytes: 64, MinWeight: 1, Hysteresis: 1.25}
	promote, demote := p.Plan(s, sizeConst(64), promoted)
	if len(promote) != 0 || len(demote) != 0 {
		t.Fatalf("hysteresis failed: +%v -%v", promote, demote)
	}
	// A 50% hotter challenger does displace.
	s.Add(ga(64), 40) // now 150
	promote, demote = p.Plan(s, sizeConst(64), promoted)
	if len(promote) != 1 || promote[0] != ga(64) || len(demote) != 1 || demote[0] != ga(0) {
		t.Fatalf("displacement failed: +%v -%v", promote, demote)
	}
}

func TestPolicyMinWeightFilters(t *testing.T) {
	s := NewSpaceSaving(16)
	s.Add(ga(0), 2)
	p := Policy{BudgetBytes: 1 << 20, MinWeight: 4}
	promote, _ := p.Plan(s, sizeConst(64), nil)
	if len(promote) != 0 {
		t.Fatalf("cold object promoted: %v", promote)
	}
}

func TestPolicyDemotesVanishedObjects(t *testing.T) {
	// A promoted object that was freed (sizeOf <= 0) must be demoted.
	s := NewSpaceSaving(16)
	s.Add(ga(0), 100)
	promoted := map[region.GAddr]bool{ga(0): true}
	p := Policy{BudgetBytes: 1 << 20, MinWeight: 1}
	promote, demote := p.Plan(s, sizeConst(-1), promoted)
	if len(promote) != 0 || len(demote) != 1 || demote[0] != ga(0) {
		t.Fatalf("vanished object: +%v -%v", promote, demote)
	}
}

func TestPolicySkipsOversizedKeepsPacking(t *testing.T) {
	// A huge hot object that exceeds remaining budget is skipped, and a
	// smaller colder one still fits.
	s := NewSpaceSaving(16)
	s.Add(ga(0), 100)   // size 1024 (too big)
	s.Add(ga(4096), 50) // size 64
	sizes := map[region.GAddr]int64{ga(0): 1024, ga(4096): 64}
	p := Policy{BudgetBytes: 128, MinWeight: 1}
	promote, _ := p.Plan(s, func(a region.GAddr) int64 { return sizes[a] }, nil)
	if len(promote) != 1 || promote[0] != ga(4096) {
		t.Fatalf("packing: %v", promote)
	}
}

func TestPolicyPlanDeterministicProperty(t *testing.T) {
	// Property: Plan is deterministic — same inputs, same outputs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() *SpaceSaving {
			r := rand.New(rand.NewSource(seed))
			s := NewSpaceSaving(16)
			for i := 0; i < 100; i++ {
				s.Add(ga(int64(r.Intn(32))*64), uint64(r.Intn(10)+1))
			}
			return s
		}
		promoted := map[region.GAddr]bool{ga(int64(rng.Intn(32)) * 64): true}
		p := DefaultPolicy(512)
		p1, d1 := p.Plan(build(), sizeConst(64), promoted)
		p2, d2 := p.Plan(build(), sizeConst(64), promoted)
		if len(p1) != len(p2) || len(d1) != len(d2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
