package engine

import (
	"math/bits"
	"sync/atomic"

	"gengar/internal/alloc"
	"gengar/internal/region"
)

// objIndex tracks live objects on one home server. The engine uses it to
// resolve raw verb target addresses (as reported in hotness digests, or
// seen by the proxy flusher) to the containing object, and to size
// promotion candidates.
//
// Every object is a buddy block: 2^o bytes, aligned to 2^o, disjoint from
// every other live block. So the index is a block-start table — one
// order tag per MinBlock granule, nonzero exactly at live block starts —
// and the block containing off, if any, starts at off rounded down to
// 2^o for its own order o: findContaining probes that ladder of at most
// maxOrder-5 tags and matches tag == o. insert, remove and every lookup
// are atomic word operations on the tags: no lock, no copy, and nothing
// allocated except a 4 KiB chunk the first time a 256 KiB stretch of the
// arena is used.
type objIndex struct {
	server   uint16
	arena    int64
	maxOrder uint
	chunks   []atomic.Pointer[tagChunk]
	live     atomic.Int64
}

const (
	granuleShift = 6 // log2(alloc.MinBlock)
	tagBits      = 8 // orders fit a byte; 0 means "no block starts here"
	tagMask      = 1<<tagBits - 1
	wordTags     = 8   // tags packed per atomic word
	chunkWords   = 512 // words per lazily allocated chunk
	chunkTags    = chunkWords * wordTags
)

type tagChunk [chunkWords]atomic.Uint64

func newObjIndex(server uint16, arena int64) *objIndex {
	granules := (arena + alloc.MinBlock - 1) >> granuleShift
	return &objIndex{
		server:   server,
		arena:    arena,
		maxOrder: uint(bits.Len64(uint64(arena)) - 1),
		chunks:   make([]atomic.Pointer[tagChunk], (granules+chunkTags-1)/chunkTags),
	}
}

// word returns the word holding the tag of the granule at off and the
// tag's shift within it, or nil when that chunk was never touched and
// grow is false. off must lie inside the arena.
func (x *objIndex) word(off int64, grow bool) (*atomic.Uint64, uint) {
	g := off >> granuleShift
	slot := &x.chunks[g/chunkTags]
	c := slot.Load()
	if c == nil {
		if !grow {
			return nil, 0
		}
		c = new(tagChunk)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	return &c[g%chunkTags/wordTags], uint(g%wordTags) * tagBits
}

// tag returns the order of the block starting at off, or 0.
func (x *objIndex) tag(off int64) uint {
	w, sh := x.word(off, false)
	if w == nil {
		return 0
	}
	return uint(w.Load() >> sh & tagMask)
}

// setTag moves the tag at off from zero to order, or (order 0) from
// nonzero to zero; it reports whether the tag was in the expected state.
func (x *objIndex) setTag(off int64, order uint) bool {
	w, sh := x.word(off, order != 0)
	if w == nil {
		return false
	}
	for {
		old := w.Load()
		if (old>>sh&tagMask != 0) == (order != 0) {
			return false
		}
		if w.CompareAndSwap(old, old&^(tagMask<<sh)|uint64(order)<<sh) {
			return true
		}
	}
}

// insert registers the block [base, base+size). It reports false, and
// changes nothing, for a duplicate base or for anything that is not a
// naturally aligned power-of-two block of this server's arena.
func (x *objIndex) insert(base region.GAddr, size int64) bool {
	off := base.Offset()
	order := uint(bits.Len64(uint64(size)) - 1)
	if base.Server() != x.server || size < alloc.MinBlock || size != 1<<order ||
		off&(size-1) != 0 || off+size > x.arena || !x.setTag(off, order) {
		return false
	}
	x.live.Add(1)
	return true
}

// remove drops an object; it reports whether the object existed.
func (x *objIndex) remove(base region.GAddr) bool {
	if base.Server() != x.server || base.Offset() >= x.arena || !x.setTag(base.Offset(), 0) {
		return false
	}
	x.live.Add(-1)
	return true
}

// sizeOf returns the object's rounded size, or 0 if unknown.
func (x *objIndex) sizeOf(base region.GAddr) int64 {
	if base.Server() != x.server || base.Offset() >= x.arena {
		return 0
	}
	if o := x.tag(base.Offset()); o != 0 {
		return 1 << o
	}
	return 0
}

// findContaining resolves a byte range to its containing object. It
// takes no locks. A lookup that races a free and a malloc over the same
// bytes may miss (it probed each start while no block was there), but a
// hit is always a block that was live and contained addr when its tag
// was loaded, and an object that stays live is never missed: no other
// block can start inside it, so the ladder reaches its tag.
//
//gengar:hotpath
func (x *objIndex) findContaining(addr region.GAddr, size int64) (base region.GAddr, objSize int64, ok bool) {
	off := addr.Offset()
	if addr.Server() != x.server || size < 0 || off >= x.arena {
		return region.NilGAddr, 0, false
	}
	for o := uint(granuleShift); o <= x.maxOrder; o++ {
		start := off &^ (1<<o - 1)
		if x.tag(start) != o {
			continue
		}
		if size > start+1<<o-off {
			break // the one block holding addr does not hold the whole range
		}
		return addr.Add(start - off), 1 << o, true
	}
	return region.NilGAddr, 0, false
}

// count returns the number of live objects.
func (x *objIndex) count() int {
	return int(x.live.Load())
}
