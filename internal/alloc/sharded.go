// Sharded front over the buddy allocator: per-shard slab caches for the
// small size classes, FineMem-style, so concurrent sessions stop
// serializing on the single buddy mutex.
//
// Geometry: the global buddy still owns the whole arena. Each shard
// carves slab-sized parent blocks (2 MiB on full-sized arenas, smaller
// on small ones) out of the buddy and serves power-of-two size classes
// from per-slab bitmaps under the shard's own mutex. Large requests,
// Reserve (the snapshot-restore path) and anything beyond the class
// limit go straight to the global buddy. Slab parents are naturally
// slab-aligned (buddy blocks are power-of-two aligned), so Free/SizeOf
// route by masking the offset to its slab base and consulting a
// copy-on-write base->slab index — no global lock on the small-object
// path.
package alloc

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// slabTargetBytes is the preferred slab parent size; small arenas
	// degrade to arena/8 (and below slabMinBytes, to no slabs at all).
	slabTargetBytes = 2 << 20
	slabMinBytes    = 64 << 10
	// slabClassShift bounds the slab-served classes: the largest class
	// is slabBytes >> slabClassShift, so a slab always holds at least
	// 2^slabClassShift slots.
	slabClassShift = 4
	// defaultShards is the shard count; contention scales with sessions,
	// not arena size, so it is a constant.
	defaultShards = 8
)

// slab is one parent block carved from the global buddy, cut into
// equal slots of a single size class.
type slab struct {
	shard  *shard
	base   int64
	order  uint // slot order: slot size is 1<<order
	slots  int
	used   int
	bitmap []uint64 // 1 bit per slot, set = live
	hint   int      // next bitmap word to probe
}

// shard is one allocation lane: a mutex, and per-class slab lists.
type shard struct {
	mu    sync.Mutex
	slabs [][]*slab    // slabs[c]: slabs of class order minOrder+c
	userB atomic.Int64 // live slot bytes in this shard
}

// ShardedPool fronts a Buddy with per-shard slab caches. It serves the
// same API surface as Buddy (Alloc/Free/SizeOf/AllocatedBytes/ArenaSize/
// Live/Reserve) so engines and buffer pools can swap it in; snapshots
// taken via Live restore through plain Reserve calls on a fresh pool.
type ShardedPool struct {
	global *Buddy
	shards []*shard
	next   atomic.Uint32 // round-robin shard cursor

	slabBytes int64 // 0 disables slabs
	slabOrder uint
	maxClass  uint // largest slab-served slot order

	mu        sync.Mutex                      // serializes slab index writers
	slabIndex atomic.Pointer[map[int64]*slab] // slab base -> slab
	parentB   atomic.Int64                    // bytes held by slab parents
}

// NewSharded returns a sharded pool over an arena of the given size
// (power of two, >= MinBlock).
func NewSharded(arenaSize int64) (*ShardedPool, error) {
	g, err := New(arenaSize)
	if err != nil {
		return nil, err
	}
	p := &ShardedPool{global: g}
	p.shards = make([]*shard, defaultShards)
	slabBytes := int64(slabTargetBytes)
	if slabBytes > arenaSize/8 {
		slabBytes = arenaSize / 8
	}
	if slabBytes >= slabMinBytes {
		p.slabBytes = slabBytes
		p.slabOrder = uint(bits.Len64(uint64(slabBytes)) - 1)
		p.maxClass = p.slabOrder - slabClassShift
	}
	nClasses := 0
	if p.slabBytes > 0 {
		nClasses = int(p.maxClass-minOrder) + 1
	}
	for i := range p.shards {
		p.shards[i] = &shard{slabs: make([][]*slab, nClasses)}
	}
	idx := make(map[int64]*slab)
	p.slabIndex.Store(&idx)
	return p, nil
}

// ArenaSize returns the arena capacity in bytes.
func (p *ShardedPool) ArenaSize() int64 { return p.global.ArenaSize() }

// slabFor returns the slab owning off, if any.
func (p *ShardedPool) slabFor(off int64) *slab {
	if p.slabBytes == 0 {
		return nil
	}
	return (*p.slabIndex.Load())[off&^(p.slabBytes-1)]
}

// Alloc reserves a block of at least size bytes. Small classes are
// served from the calling shard's slab cache; everything else falls
// through to the global buddy.
//
//gengar:hotpath
func (p *ShardedPool) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: non-positive size %d", size)
	}
	order := orderFor(size)
	if p.slabBytes == 0 || order > p.maxClass {
		return p.globalAlloc(size)
	}
	c := order - minOrder
	cur := int(p.next.Add(1))
	s := p.shards[cur%len(p.shards)]
	if off, ok := s.tryTake(c, order); ok {
		return off, nil
	}
	// The chosen lane is out of slots: prefer a slot in any other shard
	// over carving a new parent, so a small working set never pins one
	// slab per shard per class.
	for i := 1; i < len(p.shards); i++ {
		if off, ok := p.shards[(cur+i)%len(p.shards)].tryTake(c, order); ok {
			return off, nil
		}
	}
	// Carve a new slab parent — but never let parents hold more than
	// half the arena, and fall through to the buddy when the arena is
	// too fragmented for a whole slab: slab caches trade arena for
	// speed, and on small arenas correctness (placements succeeding)
	// outranks the fast path.
	if p.parentB.Load()+p.slabBytes > p.ArenaSize()/2 {
		return p.globalAlloc(size)
	}
	sl, err := p.carveSlab(s, order)
	if err != nil {
		return p.globalAlloc(size)
	}
	s.mu.Lock()
	s.slabs[c] = append(s.slabs[c], sl)
	off := sl.take()
	s.mu.Unlock()
	s.userB.Add(1 << order)
	return off, nil
}

// tryTake claims a slot of class c from one of the shard's existing
// slabs, reporting whether one was free.
//
//gengar:hotpath
func (s *shard) tryTake(c, order uint) (int64, bool) {
	s.mu.Lock()
	for _, sl := range s.slabs[c] {
		if sl.used < sl.slots {
			off := sl.take()
			s.mu.Unlock()
			s.userB.Add(1 << order)
			return off, true
		}
	}
	s.mu.Unlock()
	return 0, false
}

// take claims one free slot; the caller holds the shard mutex and has
// checked used < slots.
func (sl *slab) take() int64 {
	words := len(sl.bitmap)
	for i := 0; i < words; i++ {
		w := (sl.hint + i) % words
		free := ^sl.bitmap[w]
		if w == words-1 && sl.slots%64 != 0 {
			free &= 1<<(uint(sl.slots)%64) - 1
		}
		if free == 0 {
			continue
		}
		bit := bits.TrailingZeros64(free)
		sl.bitmap[w] |= 1 << uint(bit)
		sl.used++
		sl.hint = w
		return sl.base + int64(w*64+bit)<<sl.order
	}
	panic("alloc: slab take on full slab")
}

// globalAlloc is the buddy fall-through with a reclaim retry: if the
// buddy is out of space, empty spare slabs are returned to it and the
// allocation tried once more — slab caches trade arena for speed, but
// never at the price of failing a placement the arena could serve.
func (p *ShardedPool) globalAlloc(size int64) (int64, error) {
	off, err := p.global.Alloc(size)
	if err == nil {
		return off, nil
	}
	if p.scavenge() == 0 {
		return off, err
	}
	return p.global.Alloc(size)
}

// scavenge releases every empty slab (including the per-class hot
// spares) back to the global buddy, reporting how many parents it
// reclaimed. Runs only when the buddy has already failed an
// allocation.
func (p *ShardedPool) scavenge() int {
	released := 0
	for _, s := range p.shards {
		var drops []*slab
		s.mu.Lock()
		for c := range s.slabs {
			keep := s.slabs[c][:0]
			for _, sl := range s.slabs[c] {
				if sl.used == 0 {
					drops = append(drops, sl)
				} else {
					keep = append(keep, sl)
				}
			}
			s.slabs[c] = keep
		}
		s.mu.Unlock()
		for _, sl := range drops {
			p.releaseSlab(sl)
			released++
		}
	}
	return released
}

// carveSlab allocates a slab parent from the global buddy and publishes
// it in the base index. Runs off the fast path (once per slab).
func (p *ShardedPool) carveSlab(s *shard, order uint) (*slab, error) {
	base, err := p.global.Alloc(p.slabBytes)
	if err != nil {
		return nil, err
	}
	slots := int(p.slabBytes >> order)
	sl := &slab{
		shard:  s,
		base:   base,
		order:  order,
		slots:  slots,
		bitmap: make([]uint64, (slots+63)/64),
	}
	p.mu.Lock()
	old := *p.slabIndex.Load()
	next := make(map[int64]*slab, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[base] = sl
	p.slabIndex.Store(&next)
	p.mu.Unlock()
	p.parentB.Add(p.slabBytes)
	return sl, nil
}

// releaseSlab unpublishes an empty slab and returns its parent block to
// the global buddy. The caller has already unlinked the slab from the
// shard's class list (under the shard mutex), so no new slot can be
// taken from it.
func (p *ShardedPool) releaseSlab(sl *slab) {
	p.mu.Lock()
	old := *p.slabIndex.Load()
	next := make(map[int64]*slab, len(old))
	for k, v := range old {
		if k != sl.base {
			next[k] = v
		}
	}
	p.slabIndex.Store(&next)
	p.mu.Unlock()
	p.parentB.Add(-p.slabBytes)
	// A parent release can only fail if bookkeeping is already broken;
	// the buddy keeps the block allocated in that case.
	_ = p.global.Free(sl.base)
}

// Free releases a block previously returned by Alloc.
//
//gengar:hotpath
func (p *ShardedPool) Free(off int64) error {
	sl := p.slabFor(off)
	if sl == nil {
		return p.global.Free(off)
	}
	s := sl.shard
	s.mu.Lock()
	slot := (off - sl.base) >> sl.order
	if off&(1<<sl.order-1) != 0 || slot < 0 || slot >= int64(sl.slots) ||
		sl.bitmap[slot/64]&(1<<uint(slot%64)) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: offset %d", ErrBadFree, off)
	}
	sl.bitmap[slot/64] &^= 1 << uint(slot%64)
	sl.used--
	s.userB.Add(-(1 << sl.order))
	var drop *slab
	if sl.used == 0 {
		// Keep one empty slab per (shard, class) as a hot spare;
		// release the rest so churny classes do not pin the arena.
		c := sl.order - minOrder
		empties := 0
		for _, other := range s.slabs[c] {
			if other.used == 0 {
				empties++
			}
		}
		if empties > 1 {
			list := s.slabs[c]
			for i, other := range list {
				if other == sl {
					s.slabs[c] = append(list[:i], list[i+1:]...)
					break
				}
			}
			drop = sl
		}
	}
	s.mu.Unlock()
	if drop != nil {
		p.releaseSlab(drop)
	}
	return nil
}

// SizeOf returns the rounded size of the allocated block at off.
func (p *ShardedPool) SizeOf(off int64) (int64, error) {
	sl := p.slabFor(off)
	if sl == nil {
		return p.global.SizeOf(off)
	}
	s := sl.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := (off - sl.base) >> sl.order
	if off&(1<<sl.order-1) != 0 || slot < 0 || slot >= int64(sl.slots) ||
		sl.bitmap[slot/64]&(1<<uint(slot%64)) == 0 {
		return 0, fmt.Errorf("%w: offset %d", ErrBadFree, off)
	}
	return 1 << sl.order, nil
}

// AllocatedBytes returns the rounded bytes currently allocated to
// callers: global allocations minus slab parents, plus live slot bytes.
func (p *ShardedPool) AllocatedBytes() int64 {
	total := p.global.AllocatedBytes() - p.parentB.Load()
	for _, s := range p.shards {
		total += s.userB.Load()
	}
	return total
}

// Live returns every live caller-visible allocation sorted by offset:
// direct buddy blocks (excluding slab parents) plus live slab slots.
// Restoring the inventory through Reserve on a fresh pool lands every
// block in the global buddy; slabs re-form from subsequent traffic, and
// frees of restored blocks route to the buddy because they are in no
// slab — so snapshot round-trips are shape-changing but byte-exact.
func (p *ShardedPool) Live() []Allocation {
	idx := *p.slabIndex.Load()
	out := p.global.Live()
	if len(idx) > 0 {
		keep := out[:0]
		for _, a := range out {
			if _, parent := idx[a.Off]; !parent {
				keep = append(keep, a)
			}
		}
		out = keep
	}
	for _, sl := range idx {
		s := sl.shard
		s.mu.Lock()
		for slot := 0; slot < sl.slots; slot++ {
			if sl.bitmap[slot/64]&(1<<uint(slot%64)) != 0 {
				out = append(out, Allocation{Off: sl.base + int64(slot)<<sl.order, Size: 1 << sl.order})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// Reserve allocates the specific block [off, off+BlockSize(size)) in the
// global buddy — the snapshot-restore counterpart of Alloc.
func (p *ShardedPool) Reserve(off, size int64) error {
	if sl := p.slabFor(off); sl != nil {
		return fmt.Errorf("alloc: reserve [%d,+%d) inside a live slab", off, size)
	}
	return p.global.Reserve(off, size)
}

// ShardStat is one shard's occupancy snapshot.
type ShardStat struct {
	Slabs     int   // live slab parents
	UserBytes int64 // live slot bytes
}

// ShardStats returns per-shard occupancy, for telemetry.
func (p *ShardedPool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	idx := *p.slabIndex.Load()
	for _, sl := range idx {
		for i, s := range p.shards {
			if sl.shard == s {
				out[i].Slabs++
				break
			}
		}
	}
	for i, s := range p.shards {
		out[i].UserBytes = s.userB.Load()
	}
	return out
}

// Shards returns the shard count.
func (p *ShardedPool) Shards() int { return len(p.shards) }
