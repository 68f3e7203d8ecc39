package cache

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"gengar/internal/alloc"
	"gengar/internal/hmem"
	"gengar/internal/region"
	"gengar/internal/rpc"
)

func ga(off int64) region.GAddr { return region.MustGAddr(1, off) }

// adds lists a map of promotions as an Apply batch.
func adds(m map[region.GAddr]Location) []RemapAdd {
	out := make([]RemapAdd, 0, len(m))
	for a, loc := range m {
		out = append(out, RemapAdd{a, loc})
	}
	return out
}

func TestLocationWireRoundtrip(t *testing.T) {
	l := Location{Node: "s2", RKey: 7, Off: 4096, Size: 1024, Gen: 9, HomeMR: 3}
	var w rpc.Writer
	l.Encode(&w)
	// A node name seen before decodes to the string already held, not to
	// a new one.
	names := make(map[string]string)
	first := DecodeLocation(rpc.NewReader(w.Bytes()), names)
	again := DecodeLocation(rpc.NewReader(w.Bytes()), names)
	if first != l || again != l || unsafe.StringData(first.Node) != unsafe.StringData(again.Node) {
		t.Fatalf("interned roundtrip: %+v, %+v (same name bytes: %v)", first, again,
			unsafe.StringData(first.Node) == unsafe.StringData(again.Node))
	}
}

func TestLocationWireProperty(t *testing.T) {
	f := func(node string, rkey uint32, off, size int64, gen uint64, home uint32) bool {
		if len(node) > 1<<15 {
			node = node[:1<<15]
		}
		l := Location{Node: node, RKey: rkey, Off: off, Size: size, Gen: gen, HomeMR: home}
		var w rpc.Writer
		l.Encode(&w)
		return DecodeLocation(rpc.NewReader(w.Bytes()), map[string]string{}) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newPool(t *testing.T, size int64) *BufferPool {
	t.Helper()
	dev, err := hmem.NewDevice("dram-buf", size, hmem.DRAMProfile())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBufferPool(dev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBufferPoolBasics(t *testing.T) {
	p := newPool(t, 1<<12)
	if p.Capacity() != 1<<12 || p.Device() == nil {
		t.Fatal("accessors")
	}
	off, err := p.Place(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != 2*CopyGranule {
		t.Fatalf("UsedBytes = %d", p.UsedBytes())
	}
	if err := p.Release(off); err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != 0 {
		t.Fatal("release did not return space")
	}
	if err := p.Release(off); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	p := newPool(t, 1<<10)
	if _, err := p.Place(1 << 11); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("oversize place: %v", err)
	}
}

func TestBufferPoolRejectsNVM(t *testing.T) {
	dev, err := hmem.NewDevice("nvm", 1<<12, hmem.OptaneProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBufferPool(dev); err == nil {
		t.Fatal("NVM device accepted as DRAM buffer")
	}
}

func TestBufferPoolRejectsNonPow2(t *testing.T) {
	dev, err := hmem.NewDevice("d", 1000, hmem.DRAMProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBufferPool(dev); err == nil {
		t.Fatal("arena that is not a whole number of granules accepted")
	}
}

// TestBufferPoolPacksCopies: a copy costs CopyFootprint — header plus
// data in whole granules — so a 4 MiB arena holds 3 855 copies of a
// 1 KiB object (1 088 B each), not the 2 048 a power-of-two block
// arena holds. Every copy is granule aligned and they never overlap.
func TestBufferPoolPacksCopies(t *testing.T) {
	const arena = 4 << 20
	fp := CopyFootprint(1024)
	if fp != 1088 {
		t.Fatalf("CopyFootprint(1024) = %d, want 1088", fp)
	}
	p := newPool(t, arena)
	var offs []int64
	for {
		off, err := p.Place(CopyHeaderBytes + 1024)
		if err != nil {
			if !errors.Is(err, alloc.ErrOutOfMemory) {
				t.Fatalf("place %d: %v", len(offs), err)
			}
			break
		}
		offs = append(offs, off)
	}
	if want := arena / fp; len(offs) != int(want) || want != 3855 {
		t.Fatalf("arena holds %d copies, want %d (3855)", len(offs), want)
	}
	if p.UsedBytes() != int64(len(offs))*fp {
		t.Fatalf("UsedBytes = %d, want %d", p.UsedBytes(), int64(len(offs))*fp)
	}
	slices.Sort(offs)
	for i, off := range offs {
		if off%CopyGranule != 0 || (i > 0 && off < offs[i-1]+fp) || off+fp > arena {
			t.Fatalf("copy %d at %d (previous at %d): misaligned or overlapping", i, off, offs[max(i-1, 0)])
		}
	}
}

// TestBufferPoolReleaseAndReuse: released copies give their granules
// back, and a full arena places again exactly where copies left.
func TestBufferPoolReleaseAndReuse(t *testing.T) {
	p := newPool(t, 1<<12) // 64 granules
	var offs []int64
	for {
		off, err := p.Place(100) // 2 granules
		if err != nil {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) != 32 || p.UsedBytes() != p.Capacity() {
		t.Fatalf("%d copies, %d of %d bytes used", len(offs), p.UsedBytes(), p.Capacity())
	}
	freed := map[int64]bool{offs[3]: true, offs[17]: true, offs[31]: true}
	for off := range freed {
		if err := p.Release(off); err != nil {
			t.Fatal(err)
		}
	}
	if p.UsedBytes() != p.Capacity()-3*2*CopyGranule {
		t.Fatalf("UsedBytes after 3 releases = %d", p.UsedBytes())
	}
	for i := 0; i < 3; i++ {
		off, err := p.Place(128)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if !freed[off] {
			t.Fatalf("reuse %d landed at %d, not in a freed slot", i, off)
		}
		delete(freed, off)
	}
	if _, err := p.Place(1); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("place into a full arena: %v", err)
	}
}

// TestBufferPoolFragmentation: mixed sizes leave holes; a copy needs
// one run of free granules, not just enough free bytes, and neighbours
// released together merge into a run.
func TestBufferPoolFragmentation(t *testing.T) {
	p := newPool(t, 16*CopyGranule)
	offs := make([]int64, 16)
	for i := range offs {
		var err error
		if offs[i], err = p.Place(CopyGranule); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i += 2 {
		if err := p.Release(offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Eight free granules, none adjacent.
	if _, err := p.Place(2 * CopyGranule); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("two-granule copy placed in a checkerboard: %v", err)
	}
	// Freeing granule 5 joins 4..6 into one three-granule run.
	if err := p.Release(offs[5]); err != nil {
		t.Fatal(err)
	}
	off, err := p.Place(3 * CopyGranule)
	if err != nil || off != offs[4] {
		t.Fatalf("three-granule copy at %d (%v), want %d", off, err, offs[4])
	}
	// The three-granule copy releases as one unit, and its neighbours are
	// untouched.
	if err := p.Release(off); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(offs[3]); err != nil {
		t.Fatalf("neighbour below: %v", err)
	}
	if err := p.Release(offs[7]); err != nil {
		t.Fatalf("neighbour above: %v", err)
	}
	// A random mix against a model: no two live copies overlap, and
	// UsedBytes is always the sum of their footprints.
	rng := rand.New(rand.NewSource(7))
	p = newPool(t, 1<<14)
	live := make(map[int64]int64) // offset -> footprint
	var want int64
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			for off, fp := range live {
				if err := p.Release(off); err != nil {
					t.Fatalf("step %d: release %d: %v", i, off, err)
				}
				delete(live, off)
				want -= fp
				break
			}
		} else {
			size := int64(1 + rng.Intn(1200))
			off, err := p.Place(size)
			fp := (size + CopyGranule - 1) / CopyGranule * CopyGranule
			if err == nil {
				for o, f := range live {
					if off < o+f && o < off+fp {
						t.Fatalf("step %d: [%d,+%d) overlaps live [%d,+%d)", i, off, fp, o, f)
					}
				}
				live[off] = fp
				want += fp
			} else if !errors.Is(err, alloc.ErrOutOfMemory) {
				t.Fatal(err)
			}
		}
		if p.UsedBytes() != want {
			t.Fatalf("step %d: UsedBytes %d, want %d", i, p.UsedBytes(), want)
		}
	}
}

// TestBufferPoolReleaseErrors: releasing anything but the start of a
// placed copy is an error and changes nothing.
func TestBufferPoolReleaseErrors(t *testing.T) {
	p := newPool(t, 1<<12)
	off, err := p.Place(5 * CopyGranule)
	if err != nil {
		t.Fatal(err)
	}
	used := p.UsedBytes()
	for _, bad := range []int64{off + CopyGranule, off + 4*CopyGranule, off + 8, -CopyGranule, p.Capacity(), off + 5*CopyGranule} {
		if err := p.Release(bad); err == nil {
			t.Fatalf("release of %d accepted", bad)
		}
		if p.UsedBytes() != used {
			t.Fatalf("failed release of %d changed UsedBytes to %d", bad, p.UsedBytes())
		}
	}
	if err := p.Release(off); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(off); err == nil {
		t.Fatal("double release accepted")
	}
	if p.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after release", p.UsedBytes())
	}
}

// TestBufferPoolConcurrent: four goroutines place and release copies of
// mixed sizes at once (run it under -race). Each claims the granules of
// every copy it is given in a shared ownership table, so two live copies
// that overlapped would collide there.
func TestBufferPoolConcurrent(t *testing.T) {
	p := newPool(t, 1<<16)
	owner := make([]atomic.Int32, p.Capacity()/CopyGranule)
	var wg sync.WaitGroup
	for w := int32(1); w <= 4; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []int64
			claim := func(off, size int64, from, to int32) bool {
				for g := off / CopyGranule; g < (off+size+CopyGranule-1)/CopyGranule; g++ {
					if !owner[g].CompareAndSwap(from, to) {
						t.Errorf("worker %d: granule %d of copy at %d owned by %d", w, g, off, owner[g].Load())
						return false
					}
				}
				return true
			}
			sizes := make(map[int64]int64)
			for i := 0; i < 2000; i++ {
				if len(mine) > 8 || (len(mine) > 0 && rng.Intn(2) == 0) {
					off := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if !claim(off, sizes[off], w, 0) {
						return
					}
					if err := p.Release(off); err != nil {
						t.Errorf("worker %d: release %d: %v", w, off, err)
						return
					}
					continue
				}
				size := CopyFootprint(int64(1 + rng.Intn(2048)))
				off, err := p.Place(size)
				if err != nil {
					continue // full for now
				}
				if !claim(off, size, 0, w) {
					return
				}
				sizes[off] = size
				mine = append(mine, off)
			}
			for _, off := range mine {
				claim(off, sizes[off], w, 0)
				if err := p.Release(off); err != nil {
					t.Errorf("worker %d: final release %d: %v", w, off, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if p.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after every copy was released", p.UsedBytes())
	}
}

// BenchmarkBufferPoolPlace measures one place and release of a 1 KiB
// copy in a 4 MiB arena that is full but for 16 scattered slots — the
// promotion round's steady state once the hot set fills the arena.
func BenchmarkBufferPoolPlace(b *testing.B) {
	dev, err := hmem.NewDevice("dram-buf", 4<<20, hmem.DRAMProfile())
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewBufferPool(dev)
	if err != nil {
		b.Fatal(err)
	}
	size := CopyFootprint(1024)
	var offs []int64
	for {
		off, err := p.Place(size)
		if err != nil {
			break
		}
		offs = append(offs, off)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		j := rng.Intn(len(offs))
		if err := p.Release(offs[j]); err != nil {
			b.Fatal(err)
		}
		offs = append(offs[:j], offs[j+1:]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := p.Place(size)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Release(off); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRemapTableEpochs(t *testing.T) {
	rt := NewRemapTable()
	if rt.Epoch() != 0 || rt.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	loc := Location{Node: "s1", RKey: 1, Off: 0, Size: 64}
	released := rt.Apply([]RemapAdd{{ga(64), loc}}, nil, nil)
	if len(released) != 0 || rt.Epoch() != 1 || rt.Len() != 1 {
		t.Fatalf("after promote: epoch=%d len=%d", rt.Epoch(), rt.Len())
	}
	got, ok := rt.Lookup(ga(64))
	if !ok || got != loc {
		t.Fatalf("Lookup: %+v %v", got, ok)
	}
	if _, ok := rt.Lookup(ga(128)); ok {
		t.Fatal("phantom lookup")
	}
	// Empty apply does not bump the epoch.
	if released := rt.Apply(nil, nil, nil); released != nil || rt.Epoch() != 1 {
		t.Fatal("no-op apply bumped epoch")
	}
	// Removing a non-promoted address is a no-op too (every free and
	// demotion of an unpromoted object takes this path), and costs no
	// allocation.
	absent := []region.GAddr{ga(999), ga(128)}
	if released := rt.Apply(nil, absent, nil); released != nil || rt.Epoch() != 1 {
		t.Fatal("no-op removal bumped epoch")
	}
	if n := testing.AllocsPerRun(100, func() { rt.Apply(nil, absent, nil) }); n != 0 {
		t.Fatalf("no-op removal allocates %v", n)
	}
	// A batch that adds, removes a promoted entry, names it twice and names
	// an unpromoted one is one change: one epoch, one release.
	loc2 := Location{Node: "s1", RKey: 1, Off: 64, Size: 64}
	released = rt.Apply([]RemapAdd{{ga(256), loc2}}, []region.GAddr{ga(999), ga(64), ga(64)}, nil)
	if len(released) != 1 || released[0] != loc || rt.Epoch() != 2 || rt.Len() != 1 {
		t.Fatalf("swap: released=%v epoch=%d len=%d", released, rt.Epoch(), rt.Len())
	}
	released = rt.Apply(nil, []region.GAddr{ga(256)}, nil)
	if len(released) != 1 || released[0] != loc2 || rt.Epoch() != 3 || rt.Len() != 0 {
		t.Fatalf("demote: released=%v epoch=%d", released, rt.Epoch())
	}
}

func TestRemapTableSnapshot(t *testing.T) {
	rt := NewRemapTable()
	rt.Apply([]RemapAdd{
		{ga(64), Location{Size: 64}},
		{ga(256), Location{Size: 128}},
	}, nil, nil)
	epoch, snap := rt.Snapshot()
	if epoch != 1 || len(snap) != 2 {
		t.Fatalf("snapshot: %d %v", epoch, snap)
	}
	// Snapshot is a copy.
	delete(snap, ga(64))
	if rt.Len() != 2 {
		t.Fatal("snapshot aliases table")
	}
}

// install decodes a snapshot of entries at epoch into v, encoded the way
// RemapTable.EncodeSnapshot ships it.
func install(t *testing.T, v *ClientView, epoch uint64, entries map[region.GAddr]Location) {
	t.Helper()
	var w rpc.Writer
	w.U64(epoch).U32(uint32(len(entries)))
	for base, loc := range entries {
		w.U64(uint64(base))
		loc.Encode(&w)
	}
	if err := v.DecodeSnapshot(rpc.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestClientViewLookupContainment(t *testing.T) {
	v := NewClientView()
	if _, _, ok := v.Lookup(ga(100), 4); ok {
		t.Fatal("empty view hit")
	}
	install(t, v, 3, map[region.GAddr]Location{
		ga(128): {Node: "s1", Off: 0, Size: 128},
		ga(512): {Node: "s2", Off: 64, Size: 64},
	})
	if v.Epoch() != 3 || v.Len() != 2 {
		t.Fatalf("epoch=%d len=%d", v.Epoch(), v.Len())
	}
	cases := []struct {
		addr region.GAddr
		size int64
		hit  bool
		base region.GAddr
	}{
		{ga(128), 128, true, ga(128)}, // exact
		{ga(160), 32, true, ga(128)},  // interior range
		{ga(255), 1, true, ga(128)},   // last byte
		{ga(255), 2, false, 0},        // crosses object end
		{ga(127), 1, false, 0},        // before first object
		{ga(64), 4, false, 0},         // below all bases
		{ga(512), 64, true, ga(512)},
		{ga(600), 4, false, 0}, // past second object
		{ga(300), 8, false, 0}, // gap between objects
		{ga(520), -1, false, 0},
	}
	for i, c := range cases {
		loc, base, ok := v.Lookup(c.addr, c.size)
		if ok != c.hit {
			t.Errorf("case %d: hit=%v want %v", i, ok, c.hit)
			continue
		}
		if ok && base != c.base {
			t.Errorf("case %d: base=%v want %v (loc %+v)", i, base, c.base, loc)
		}
	}
}

func TestClientViewReplaceDiscardsOld(t *testing.T) {
	v := NewClientView()
	install(t, v, 1, map[region.GAddr]Location{ga(64): {Size: 64}})
	install(t, v, 2, map[region.GAddr]Location{ga(256): {Size: 64}})
	if _, _, ok := v.Lookup(ga(64), 8); ok {
		t.Fatal("stale entry survived DecodeSnapshot")
	}
	if _, _, ok := v.Lookup(ga(256), 8); !ok {
		t.Fatal("new entry missing")
	}
	// The third install builds in the first one's buffer: the second's
	// table must be gone from it, and an older epoch must not install.
	install(t, v, 3, map[region.GAddr]Location{ga(512): {Size: 64}, ga(1024): {Size: 64}})
	install(t, v, 1, map[region.GAddr]Location{ga(64): {Size: 64}})
	if v.Epoch() != 3 || v.Len() != 2 {
		t.Fatalf("epoch=%d len=%d, want 3 and 2", v.Epoch(), v.Len())
	}
	for _, a := range []region.GAddr{ga(64), ga(256)} {
		if _, _, ok := v.Lookup(a, 8); ok {
			t.Fatalf("retired entry %v survived", a)
		}
	}
	// A payload that does not decode leaves the view as it was.
	var w rpc.Writer
	w.U64(4).U32(1).U64(uint64(ga(2048)))
	if err := v.DecodeSnapshot(rpc.NewReader(w.Bytes())); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
	if _, _, ok := v.Lookup(ga(512), 8); !ok || v.Epoch() != 3 {
		t.Fatal("a failed decode changed the view")
	}
}

func TestClientViewMatchesTableProperty(t *testing.T) {
	// Property: for random promoted sets, every byte inside a promoted
	// object hits and maps to the right base; every byte outside misses.
	f := func(seed int64) bool {
		rt := NewRemapTable()
		add := make(map[region.GAddr]Location)
		// Non-overlapping 64B objects at even slots chosen by seed bits.
		for i := 0; i < 32; i++ {
			if seed>>uint(i)&1 == 1 {
				add[ga(int64(i)*128)] = Location{Size: 64}
			}
		}
		rt.Apply(adds(add), nil, nil)
		v := NewClientView()
		var w rpc.Writer
		rt.EncodeSnapshot(&w)
		if v.DecodeSnapshot(rpc.NewReader(w.Bytes())) != nil {
			return false
		}
		for i := 0; i < 32; i++ {
			base := ga(int64(i) * 128)
			_, gotBase, ok := v.Lookup(base.Add(63), 1)
			if _, promoted := add[base]; promoted {
				if !ok || gotBase != base {
					return false
				}
			} else if ok && gotBase == base {
				return false
			}
			// The second 64B half of each slot is never promoted.
			if _, _, ok := v.Lookup(base.Add(64), 1); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRemapTableMatchesMap drives the table and a plain map with the
// same random batches — through several doublings of the bucket array
// and back down to empty — and compares Lookup, Len, Snapshot, the
// released locations and the epoch after every batch.
func TestRemapTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rt := NewRemapTable()
	model := make(map[region.GAddr]Location)
	var epoch, gen uint64
	const space = 4096 // object slots; several times remapMinBuckets
	for round := 0; round < 2000; round++ {
		grow := round < 1000 // fill up, then drain
		add := make(map[region.GAddr]Location)
		var remove []region.GAddr
		for i := rng.Intn(8); i > 0; i-- {
			a := ga(int64(rng.Intn(space)) * 64)
			if rng.Intn(4) > 0 == grow {
				gen++
				add[a] = Location{Off: int64(gen), Size: 64, Gen: gen}
			} else {
				remove = append(remove, a)
			}
		}
		want := make(map[Location]bool)
		for _, a := range remove {
			if loc, ok := model[a]; ok {
				want[loc] = true
				delete(model, a)
			}
		}
		for a, loc := range add {
			model[a] = loc
		}
		if len(add) > 0 || len(want) > 0 {
			epoch++
		}
		released := rt.Apply(adds(add), remove, nil)
		if len(released) != len(want) {
			t.Fatalf("round %d: released %v, want %v", round, released, want)
		}
		for _, loc := range released {
			if !want[loc] {
				t.Fatalf("round %d: released %v, want %v", round, released, want)
			}
		}
		if rt.Epoch() != epoch || rt.Len() != len(model) {
			t.Fatalf("round %d: epoch %d len %d, want %d %d", round, rt.Epoch(), rt.Len(), epoch, len(model))
		}
		for i := 0; i < 64; i++ {
			a := ga(int64(rng.Intn(space)) * 64)
			got, ok := rt.Lookup(a)
			if loc, in := model[a]; ok != in || got != loc {
				t.Fatalf("round %d: Lookup(%v) = %+v %v, want %+v %v", round, a, got, ok, loc, in)
			}
		}
		if round%100 == 99 {
			e, snap := rt.Snapshot()
			if e != epoch || len(snap) != len(model) {
				t.Fatalf("round %d: snapshot epoch %d with %d entries, want %d with %d", round, e, len(snap), epoch, len(model))
			}
			for a, loc := range model {
				if snap[a] != loc {
					t.Fatalf("round %d: snapshot[%v] = %+v, want %+v", round, a, snap[a], loc)
				}
			}
			// The wire form carries the same table.
			var w rpc.Writer
			rt.EncodeSnapshot(&w)
			v := NewClientView()
			if err := v.DecodeSnapshot(rpc.NewReader(w.Bytes())); err != nil || v.Epoch() != epoch || v.Len() != len(model) {
				t.Fatalf("round %d: encoded snapshot decodes to epoch %d with %d entries (%v), want %d with %d",
					round, v.Epoch(), v.Len(), err, epoch, len(model))
			}
			for a, loc := range model {
				if got, base, ok := v.Lookup(a, loc.Size); !ok || base != a || got != loc {
					t.Fatalf("round %d: decoded view Lookup(%v) = %+v %v %v, want %+v", round, a, got, base, ok, loc)
				}
			}
		}
	}
	if n := len(*rt.buckets.Load()); n <= remapMinBuckets {
		t.Fatalf("bucket array never grew: %d", n)
	}
}

// TestRemapTableReadersVersusPlanner runs four lock-free readers and a
// snapshot taker against one writer that applies swap batches the way a
// promotion round does. The writer keeps the invariant "slot i is
// promoted in exactly one of its two homes, at generation = epoch it
// was installed in"; a Lookup hit must carry the address's own slot, and
// a Snapshot must be exactly one epoch's table: every slot present once.
func TestRemapTableReadersVersusPlanner(t *testing.T) {
	const slots = 512
	home := func(slot, side int) region.GAddr { return ga(int64(2*slot+side) * 64) }
	rt := NewRemapTable()
	add := make(map[region.GAddr]Location)
	for i := 0; i < slots; i++ {
		add[home(i, 0)] = Location{Off: int64(i), Gen: 1}
	}
	rt.Apply(adds(add), nil, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				slot, side := rng.Intn(slots), rng.Intn(2)
				if loc, ok := rt.Lookup(home(slot, side)); ok && loc.Off != int64(slot) {
					t.Errorf("Lookup(slot %d) returned slot %d's copy", slot, loc.Off)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			epoch, snap := rt.Snapshot()
			if len(snap) != slots {
				t.Errorf("snapshot at epoch %d has %d entries, want %d", epoch, len(snap), slots)
				return
			}
			for i := 0; i < slots; i++ {
				a, inA := snap[home(i, 0)]
				b, inB := snap[home(i, 1)]
				if inA == inB || a.Gen > epoch || b.Gen > epoch {
					t.Errorf("snapshot at epoch %d is not one epoch's table: slot %d %v %+v / %v %+v", epoch, i, inA, a, inB, b)
					return
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(99))
	side := make([]int, slots)
	for round := 0; round < 3000; round++ {
		add := make(map[region.GAddr]Location)
		var remove []region.GAddr
		picked := make(map[int]bool)
		for n := 1 + rng.Intn(16); n > 0; n-- {
			i := rng.Intn(slots)
			if picked[i] {
				continue
			}
			picked[i] = true
			remove = append(remove, home(i, side[i]))
			side[i] = 1 - side[i]
			add[home(i, side[i])] = Location{Off: int64(i), Gen: rt.Epoch() + 1}
		}
		if released := rt.Apply(adds(add), remove, nil); len(released) != len(remove) {
			t.Fatalf("round %d: released %d of %d", round, len(released), len(remove))
		}
	}
	close(stop)
	wg.Wait()
}
