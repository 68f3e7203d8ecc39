package cache

import (
	"errors"
	"testing"
	"testing/quick"

	"gengar/internal/alloc"
	"gengar/internal/hmem"
	"gengar/internal/region"
	"gengar/internal/rpc"
)

func ga(off int64) region.GAddr { return region.MustGAddr(1, off) }

func TestLocationWireRoundtrip(t *testing.T) {
	l := Location{Node: "s2", RKey: 7, Off: 4096, Size: 1024, Gen: 9, HomeMR: 3}
	var w rpc.Writer
	l.Encode(&w)
	got := DecodeLocation(rpc.NewReader(w.Bytes()))
	if got != l {
		t.Fatalf("roundtrip: %+v != %+v", got, l)
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
		return DecodeLocation(rpc.NewReader(w.Bytes())) == l
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
	if p.UsedBytes() != alloc.BlockSize(100) {
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
		t.Fatal("non-power-of-two arena accepted")
	}
}

func TestRemapTableEpochs(t *testing.T) {
	rt := NewRemapTable()
	if rt.Epoch() != 0 || rt.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	loc := Location{Node: "s1", RKey: 1, Off: 0, Size: 64}
	released := rt.Apply(map[region.GAddr]Location{ga(64): loc}, nil)
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
	// Empty apply does not bump the epoch, and publishes no new version:
	// the snapshot readers follow stays the very same one.
	before := rt.p.Load()
	if released := rt.Apply(nil, nil); released != nil || rt.Epoch() != 1 || rt.p.Load() != before {
		t.Fatal("no-op apply bumped epoch or republished")
	}
	// Removing a non-promoted address is a no-op too (every free and
	// demotion of an unpromoted object takes this path).
	if released := rt.Apply(nil, []region.GAddr{ga(999), ga(128)}); released != nil || rt.Epoch() != 1 || rt.p.Load() != before {
		t.Fatal("no-op removal bumped epoch or republished")
	}
	// A batch that adds, removes a promoted entry, names it twice and names
	// an unpromoted one is one change: one epoch, one release.
	loc2 := Location{Node: "s1", RKey: 1, Off: 64, Size: 64}
	released = rt.Apply(map[region.GAddr]Location{ga(256): loc2}, []region.GAddr{ga(999), ga(64), ga(64)})
	if len(released) != 1 || released[0] != loc || rt.Epoch() != 2 || rt.Len() != 1 || rt.p.Load() == before {
		t.Fatalf("swap: released=%v epoch=%d len=%d", released, rt.Epoch(), rt.Len())
	}
	released = rt.Apply(nil, []region.GAddr{ga(256)})
	if len(released) != 1 || released[0] != loc2 || rt.Epoch() != 3 || rt.Len() != 0 {
		t.Fatalf("demote: released=%v epoch=%d", released, rt.Epoch())
	}
}

func TestRemapTablePromotedAndSnapshot(t *testing.T) {
	rt := NewRemapTable()
	rt.Apply(map[region.GAddr]Location{
		ga(64):  {Size: 64},
		ga(256): {Size: 128},
	}, nil)
	prom := rt.Promoted()
	if !prom[ga(64)] || !prom[ga(256)] || len(prom) != 2 {
		t.Fatalf("Promoted = %v", prom)
	}
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

func TestClientViewLookupContainment(t *testing.T) {
	v := NewClientView()
	if _, _, ok := v.Lookup(ga(100), 4); ok {
		t.Fatal("empty view hit")
	}
	v.Replace(3, map[region.GAddr]Location{
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
	v.Replace(1, map[region.GAddr]Location{ga(64): {Size: 64}})
	v.Replace(2, map[region.GAddr]Location{ga(256): {Size: 64}})
	if _, _, ok := v.Lookup(ga(64), 8); ok {
		t.Fatal("stale entry survived Replace")
	}
	if _, _, ok := v.Lookup(ga(256), 8); !ok {
		t.Fatal("new entry missing")
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
		rt.Apply(add, nil)
		v := NewClientView()
		epoch, snap := rt.Snapshot()
		v.Replace(epoch, snap)
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
