package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gengar/internal/alloc"
	"gengar/internal/config"
	"gengar/internal/region"
)

func TestObjIndexBasics(t *testing.T) {
	x := newObjIndex(1, 1<<20)
	a := region.MustGAddr(1, 128)
	if !x.insert(a, 64) {
		t.Fatal("insert failed")
	}
	if x.insert(a, 128) {
		t.Fatal("duplicate insert succeeded")
	}
	if x.count() != 1 || x.sizeOf(a) != 64 {
		t.Fatalf("count=%d size=%d", x.count(), x.sizeOf(a))
	}
	base, size, ok := x.findContaining(a.Add(63), 1)
	if !ok || base != a || size != 64 {
		t.Fatalf("contains: %v %d %v", base, size, ok)
	}
	if _, _, ok := x.findContaining(a.Add(63), 2); ok {
		t.Fatal("range crossing object end matched")
	}
	if _, _, ok := x.findContaining(region.MustGAddr(1, 64), 1); ok {
		t.Fatal("address below all objects matched")
	}
	if _, _, ok := x.findContaining(region.MustGAddr(2, 128), 1); ok {
		t.Fatal("another server's address matched")
	}
	if !x.remove(a) {
		t.Fatal("remove failed")
	}
	if x.remove(a) {
		t.Fatal("double remove succeeded")
	}
	if x.sizeOf(a) != 0 || x.count() != 0 {
		t.Fatal("size or count after remove")
	}
}

func TestObjIndexRejectsNonBlocks(t *testing.T) {
	x := newObjIndex(1, 1<<20)
	for _, c := range []struct {
		name      string
		server    uint16
		off, size int64
	}{
		{"size not a power of two", 1, 1024, 100},
		{"size below the granule", 1, 1024, 32},
		{"zero size", 1, 1024, 0},
		{"misaligned start", 1, 192, 128},
		{"past the arena", 1, 1 << 20, 64},
		{"larger than the arena", 1, 0, 1 << 21},
		{"foreign server", 2, 1024, 64},
	} {
		if x.insert(region.MustGAddr(c.server, c.off), c.size) {
			t.Errorf("%s: insert accepted", c.name)
		}
	}
	if x.count() != 0 {
		t.Fatalf("count=%d after rejected inserts", x.count())
	}
	if x.remove(region.MustGAddr(1, 1<<30)) || x.sizeOf(region.MustGAddr(1, 1<<30)) != 0 {
		t.Fatal("offset beyond the arena resolved")
	}
}

// TestObjIndexModel drives random insert/remove interleavings over block
// orders 6..22 (64 B .. 4 MiB) — the blocks come from a buddy allocator,
// as they do in the engine — and checks every query against a plain map.
func TestObjIndexModel(t *testing.T) {
	const arena = 64 << 20
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buddy, err := alloc.New(arena)
		if err != nil {
			t.Fatal(err)
		}
		x := newObjIndex(1, arena)
		model := make(map[int64]int64) // block start -> size
		var live []int64

		// want is the reference answer: scan every live block.
		want := func(off, size int64) (int64, int64, bool) {
			for b, sz := range model {
				if off >= b && off < b+sz {
					return b, sz, off+size <= b+sz
				}
			}
			return 0, 0, false
		}
		check := func(off, size int64) {
			t.Helper()
			wb, ws, wok := want(off, size)
			base, sz, ok := x.findContaining(region.MustGAddr(1, off), size)
			if ok != wok || (ok && (base.Offset() != wb || sz != ws || base.Server() != 1)) {
				t.Fatalf("seed %d: findContaining(%#x,%d) = %v,%d,%v; want %#x,%d,%v",
					seed, off, size, base, sz, ok, wb, ws, wok)
			}
		}

		for step := 0; step < 3000; step++ {
			if len(live) == 0 || (len(live) < 200 && rng.Intn(3) > 0) {
				size := int64(1) << (6 + rng.Intn(17))
				if rng.Intn(4) > 0 {
					size = int64(1) << (6 + rng.Intn(6)) // mostly small, so starts share words
				}
				off, err := buddy.Alloc(size)
				if err != nil {
					continue
				}
				a := region.MustGAddr(1, off)
				if !x.insert(a, size) {
					t.Fatalf("seed %d: insert(%#x,%d) refused", seed, off, size)
				}
				if x.insert(a, size) {
					t.Fatalf("seed %d: duplicate insert(%#x) accepted", seed, off)
				}
				model[off] = size
				live = append(live, off)
			} else {
				i := rng.Intn(len(live))
				off := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				a := region.MustGAddr(1, off)
				if !x.remove(a) {
					t.Fatalf("seed %d: remove(%#x) refused", seed, off)
				}
				if x.remove(a) {
					t.Fatalf("seed %d: double remove(%#x) accepted", seed, off)
				}
				delete(model, off)
				if err := buddy.Free(off); err != nil {
					t.Fatal(err)
				}
				check(off, 1) // a freed start resolves to nothing
			}
			if x.count() != len(model) {
				t.Fatalf("seed %d: count=%d want %d", seed, x.count(), len(model))
			}
			if step%50 != 0 {
				continue
			}
			lo, hi := int64(arena), int64(0)
			for b, sz := range model {
				if got := x.sizeOf(region.MustGAddr(1, b)); got != sz {
					t.Fatalf("seed %d: sizeOf(%#x)=%d want %d", seed, b, got, sz)
				}
				check(b, 1)       // first byte
				check(b, sz)      // the whole object
				check(b+sz-1, 1)  // last byte
				check(b+sz-1, 2)  // straddles the end
				check(b+sz/2, sz) // starts inside, ends outside
				if b+sz < arena {
					check(b+sz, 1) // one past the end: the neighbour or nothing
				}
				if b > 0 {
					check(b-1, 1)
					check(b-1, 2) // straddles the start
				}
				if x.sizeOf(region.MustGAddr(1, b+alloc.MinBlock)) != 0 && model[b+alloc.MinBlock] == 0 {
					t.Fatalf("seed %d: sizeOf inside object %#x nonzero", seed, b)
				}
				if b < lo {
					lo = b
				}
				if b+sz > hi {
					hi = b + sz
				}
			}
			if lo > 0 {
				check(lo-1, 1) // below every object
			}
			if hi < arena {
				check(hi, 1) // above every object
			}
			for _, off := range []int64{arena, arena + 4096, 1 << 40} {
				if _, _, ok := x.findContaining(region.MustGAddr(1, off), 1); ok {
					t.Fatalf("seed %d: offset %#x beyond the arena matched", seed, off)
				}
			}
			for i := 0; i < 64; i++ {
				check(rng.Int63n(arena), 1+rng.Int63n(4096))
			}
		}
	}
}

// TestObjIndexConcurrentReaders spins readers on ObjectSpan while one
// writer mallocs and frees mixed-size objects: whatever a reader is told
// contains its address must contain it (an aligned power-of-two block of
// this server), and objects that stay live must never be missed.
func TestObjIndexConcurrentReaders(t *testing.T) {
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 256 << 20
	eng, err := New(Config{ID: 1, Name: "idx-stress", Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sizes := []int64{64, 256, 1024, 4096, 64 << 10, 256 << 10}
	var stable []region.GAddr
	// Interleave stable objects with ones the writer will churn, so the
	// churn happens in the same slabs, chunks and words as the stable set.
	var churn [256]atomic.Uint64
	for i := 0; i < len(churn); i++ {
		for _, keep := range []bool{true, false} {
			a, err := eng.Malloc(sizes[i%len(sizes)])
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				stable = append(stable, a)
			} else {
				churn[i].Store(uint64(a))
			}
		}
	}

	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(len(stable))
				want := stable[i]
				wantSize := alloc.BlockSize(sizes[i%len(sizes)])
				probe := want.Add(rng.Int63n(wantSize))
				if base, size, ok := eng.ObjectSpan(probe, 1); !ok || base != want || size != wantSize {
					t.Errorf("stable object %v: ObjectSpan(%v) = %v,%d,%v", want, probe, base, size, ok)
					return
				}
				probe = region.GAddr(churn[rng.Intn(len(churn))].Load()).Add(rng.Int63n(256 << 10))
				base, size, ok := eng.ObjectSpan(probe, 1)
				if !ok {
					continue // freed, or the offset ran past the object
				}
				if base.Server() != 1 || size < alloc.MinBlock || size&(size-1) != 0 ||
					base.Offset()&(size-1) != 0 || !(region.Span{Addr: base, Size: size}).Contains(probe, 1) {
					t.Errorf("ObjectSpan(%v) = %v,%d: not an aligned block containing it", probe, base, size)
					return
				}
			}
		}(int64(r + 1))
	}
	rng := rand.New(rand.NewSource(99))
	for n := 0; n < iters; n++ {
		i := rng.Intn(len(churn))
		if err := eng.Free(region.GAddr(churn[i].Load())); err != nil {
			t.Error(err)
			break
		}
		a, err := eng.Malloc(sizes[rng.Intn(len(sizes))])
		if err != nil {
			t.Error(err)
			break
		}
		churn[i].Store(uint64(a))
	}
	stop.Store(true)
	wg.Wait()
	if got, want := eng.Stats().Objects, len(stable)+len(churn); got != want {
		t.Fatalf("objects=%d want %d", got, want)
	}
}
