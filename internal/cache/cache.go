// Package cache implements Gengar's distributed DRAM buffers: the
// server-side buffer pools that hold DRAM copies of hot NVM objects, the
// authoritative remap table each home server maintains (object -> current
// DRAM location), and the client-side cached view of that table that lets
// gread hit DRAM with a single one-sided verb.
//
// Promotion and demotion happen at object granularity at hotness-epoch
// boundaries (see package hotness); the remap table's epoch number lets
// clients detect staleness cheaply — the epoch is piggybacked on digest
// replies, and a client refreshes its view only when it changes.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"gengar/internal/alloc"
	"gengar/internal/hmem"
	"gengar/internal/region"
	"gengar/internal/rpc"
)

// Copy header layout. Every promoted copy starts with a 16-byte header:
//
//	[0,8)  generation stamp, big-endian — written at promotion time. A
//	       client whose remap view is stale may direct a read at a buffer
//	       slot that has since been demoted and reused; comparing the
//	       stamp against the generation in its view detects the reuse,
//	       and the client falls back to the authoritative NVM copy.
//	[8,16) seqlock word, native order — server-local. Writers flip it odd
//	       before mutating the copy and even (+2) after; the lock-free
//	       server-mediated read path copies the data without a mutex and
//	       retries when the word is odd or changed. One-sided clients
//	       never interpret it (their gen check subsumes it: the remote
//	       READ snapshots gen+data in one verb).
const (
	CopyHeaderBytes = 16
	// CopyGenOff is the header offset of the generation stamp.
	CopyGenOff = 0
	// CopySeqOff is the header offset of the seqlock word.
	CopySeqOff = 8
)

// Location records where the DRAM copy of a promoted object lives: an
// RDMA-addressable window on some node, plus the object size. Off points
// at the copy's generation header; the data follows at Off+CopyHeaderBytes.
type Location struct {
	Node   string // fabric node hosting the DRAM buffer
	RKey   uint32 // memory region key of the buffer arena
	Off    int64  // offset of the copy header within that region
	Size   int64  // object size in bytes (data, excluding header)
	Gen    uint64 // promotion generation stamped into the header
	HomeMR uint32 // rkey of the object's home NVM pool (for write-back)
}

// LocationMinBytes is the least an encoded Location occupies on the
// wire: Encode with an empty node name.
const LocationMinBytes = 2 + 4 + 8 + 8 + 8 + 4

// Encode appends the location to a wire payload.
func (l Location) Encode(w *rpc.Writer) {
	w.Str(l.Node).U32(l.RKey).I64(l.Off).I64(l.Size).U64(l.Gen).U32(l.HomeMR)
}

// DecodeLocation consumes a location from a wire payload. The node name
// is looked up in names by its wire bytes, so a name seen before costs
// no allocation; a new one is added.
func DecodeLocation(r *rpc.Reader, names map[string]string) Location {
	b := r.StrBytes()
	node, ok := names[string(b)]
	if !ok {
		node = string(b)
		names[node] = node
	}
	return Location{
		Node:   node,
		RKey:   r.U32(),
		Off:    r.I64(),
		Size:   r.I64(),
		Gen:    r.U64(),
		HomeMR: r.U32(),
	}
}

// CopyGranule is the DRAM buffer arena's allocation unit. Copies start
// on a granule boundary, so every copy header — and its seqlock word —
// is cache-line and word aligned.
const CopyGranule = 64

// CopyFootprint returns the arena bytes a promoted copy of a size-byte
// object occupies: its header plus data, rounded up to whole granules
// (1 088 B for a 1 KiB object). Planners budget this, placers reserve
// it, and BufferPool.UsedBytes counts it.
func CopyFootprint(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return (CopyHeaderBytes + size + CopyGranule - 1) &^ (CopyGranule - 1)
}

// BufferPool manages one server's DRAM buffer arena: the capacity pledged
// to hold promoted copies. It packs copies at CopyGranule granularity —
// a copy costs CopyFootprint, not the next power of two — with two
// bitmaps over the granules: inUse marks occupied granules, start marks
// the first granule of each placed copy, so Release needs only the
// offset. Placement is first fit from a next-fit cursor. One mutex
// guards the bitmaps: places and releases come from promotion rounds
// and peer spill, never from the data path. Registration of the arena
// as an RDMA region is the server's job.
type BufferPool struct {
	dev  *hmem.Device
	used atomic.Int64 // bytes in placed copies, readable without mu

	mu     sync.Mutex
	n      int      // granules in the arena
	inUse  []uint64 // bit g: granule g is part of a placed copy
	start  []uint64 // bit g: a placed copy begins at granule g
	cursor int      // next-fit search start
}

// NewBufferPool returns a pool over the whole of dev, whose size must be
// a positive multiple of CopyGranule.
func NewBufferPool(dev *hmem.Device) (*BufferPool, error) {
	if dev.Kind() != hmem.KindDRAM {
		return nil, fmt.Errorf("cache: buffer pool requires DRAM device, got %v", dev.Kind())
	}
	size := dev.Size()
	if size <= 0 || size%CopyGranule != 0 {
		return nil, fmt.Errorf("cache: arena of %d bytes is not a positive multiple of %d", size, CopyGranule)
	}
	n := int(size / CopyGranule)
	words := (n + 63) / 64
	return &BufferPool{dev: dev, n: n, inUse: make([]uint64, words), start: make([]uint64, words)}, nil
}

// Device returns the DRAM device backing the pool.
func (p *BufferPool) Device() *hmem.Device { return p.dev }

// errArenaFull is Place's answer when no run of free granules is long
// enough. It is one value, so a full arena costs a plan round nothing.
var errArenaFull = fmt.Errorf("cache: no run of free granules long enough: %w", alloc.ErrOutOfMemory)

// Place reserves size bytes, rounded up to whole granules, and returns
// their offset within the arena. A copy takes size = CopyHeaderBytes +
// its data bytes. It fails with alloc.ErrOutOfMemory when no run of free
// granules is long enough.
func (p *BufferPool) Place(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cache: place of %d bytes", size)
	}
	g := int((size + CopyGranule - 1) / CopyGranule)
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.fit(p.cursor, p.n, g)
	if !ok {
		at, ok = p.fit(0, p.cursor, g)
	}
	if !ok {
		return 0, errArenaFull
	}
	setBits(p.inUse, at, at+g)
	p.start[at/64] |= 1 << (at % 64)
	if p.cursor = at + g; p.cursor == p.n {
		p.cursor = 0
	}
	p.used.Add(int64(g) * CopyGranule)
	return int64(at) * CopyGranule, nil
}

// fit returns the first granule in [from, to) that begins a run of g
// free granules (the run may extend past to). Caller holds mu.
func (p *BufferPool) fit(from, to, g int) (int, bool) {
	for i := from; i < to; {
		i = p.nextFree(i)
		if i >= to || i+g > p.n {
			return 0, false
		}
		j := p.nextUsed(i, i+g)
		if j == i+g {
			return i, true
		}
		i = j
	}
	return 0, false
}

// nextFree returns the first free granule at or after i (p.n if none),
// skipping full bitmap words whole. Caller holds mu.
func (p *BufferPool) nextFree(i int) int {
	for i < p.n {
		w := ^p.inUse[i/64] >> (i % 64)
		if w != 0 {
			return min(i+bits.TrailingZeros64(w), p.n)
		}
		i = (i/64 + 1) * 64
	}
	return p.n
}

// nextUsed returns the first used granule in [i, limit), or limit.
// Caller holds mu.
func (p *BufferPool) nextUsed(i, limit int) int {
	for i < limit {
		w := p.inUse[i/64] >> (i % 64)
		if w != 0 {
			return min(i+bits.TrailingZeros64(w), limit)
		}
		i = (i/64 + 1) * 64
	}
	return limit
}

// Release frees the copy placed at off. An offset that is not the start
// of a placed copy — never placed, already released, or inside another
// copy — is an error and changes nothing.
func (p *BufferPool) Release(off int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if off < 0 || off%CopyGranule != 0 || off/CopyGranule >= int64(p.n) {
		return fmt.Errorf("cache: release of offset %d: not a granule of the arena", off)
	}
	at := int(off / CopyGranule)
	if p.start[at/64]&(1<<(at%64)) == 0 {
		return fmt.Errorf("cache: release of offset %d: no copy starts there", off)
	}
	p.start[at/64] &^= 1 << (at % 64)
	// The copy runs to the next free granule or the next copy's start,
	// whichever comes first.
	end := at + 1
	for end < p.n && p.inUse[end/64]&(1<<(end%64)) != 0 && p.start[end/64]&(1<<(end%64)) == 0 {
		end++
	}
	clearBits(p.inUse, at, end)
	p.used.Add(-int64(end-at) * CopyGranule)
	return nil
}

// setBits sets bits [lo, hi) of bm.
func setBits(bm []uint64, lo, hi int) {
	for lo < hi {
		w, b := lo/64, lo%64
		n := min(64-b, hi-lo)
		bm[w] |= (^uint64(0) >> (64 - n)) << b
		lo += n
	}
}

// clearBits clears bits [lo, hi) of bm.
func clearBits(bm []uint64, lo, hi int) {
	for lo < hi {
		w, b := lo/64, lo%64
		n := min(64-b, hi-lo)
		bm[w] &^= (^uint64(0) >> (64 - n)) << b
		lo += n
	}
}

// UsedBytes returns the bytes currently holding promoted copies, in
// whole granules.
func (p *BufferPool) UsedBytes() int64 { return p.used.Load() }

// Capacity returns the arena size.
func (p *BufferPool) Capacity() int64 { return int64(p.n) * CopyGranule }

// RemapTable is the home server's authoritative object->DRAM-copy map.
// Every batch of mutations bumps the epoch; clients compare epochs to
// decide when to refresh. It is safe for concurrent use.
//
// The table is a chained hash index updated in place: each bucket heads
// an immutable list of entries, published with one atomic store. Lookup
// follows the list with no lock and no allocation; Apply rebuilds only
// the lists of the entries it changes, under the writer mutex, so it
// costs O(len(add)+len(remove)) however many objects are promoted. The
// bucket array doubles (one O(n) copy) when entries outnumber buckets.
//
// A Lookup that runs beside an Apply sees each entry either before or
// after the change, independently of the batch's other entries: a
// demoted object may still resolve for a moment beside its replacement.
// That is harmless — every location carries its generation, and a copy
// that was released fails the generation check at the arena — and it is
// what a client holding an older view sees anyway. Snapshot, the form
// views are built from, takes the writer mutex and is always exactly
// one epoch's table.
type RemapTable struct {
	mu      sync.Mutex // serializes Apply and Snapshot
	buckets atomic.Pointer[[]remapBucket]
	epoch   atomic.Uint64
	n       atomic.Int64
}

// remapBucket heads one hash chain. Entries are never modified once
// reachable from a bucket.
type remapBucket struct {
	head atomic.Pointer[remapEntry]
}

type remapEntry struct {
	addr region.GAddr
	loc  Location
	next *remapEntry
}

// push publishes a new entry at the head of the chain. Caller holds the
// table's mu (or owns a bucket array it has not published yet).
func (b *remapBucket) push(addr region.GAddr, loc Location) {
	b.head.Store(&remapEntry{addr: addr, loc: loc, next: b.head.Load()})
}

// remapMinBuckets is the initial bucket count (a power of two).
const remapMinBuckets = 64

// NewRemapTable returns an empty table at epoch zero.
func NewRemapTable() *RemapTable {
	t := &RemapTable{}
	b := make([]remapBucket, remapMinBuckets)
	t.buckets.Store(&b)
	return t
}

// bucketOf hashes addr into b, whose length is a power of two. Object
// bases are multiples of the allocator's 64-byte granule, so the low
// bits carry nothing; a Fibonacci multiply spreads the rest.
func bucketOf(b []remapBucket, addr region.GAddr) *remapBucket {
	h := (uint64(addr) >> 6) * 0x9E3779B97F4A7C15
	return &b[h>>32&uint64(len(b)-1)]
}

// Epoch returns the current table version.
func (t *RemapTable) Epoch() uint64 { return t.epoch.Load() }

// Lookup returns the DRAM location of the object based at addr, if
// promoted. It takes no locks.
//
//gengar:hotpath
func (t *RemapTable) Lookup(addr region.GAddr) (Location, bool) {
	for e := bucketOf(*t.buckets.Load(), addr).head.Load(); e != nil; e = e.next {
		if e.addr == addr {
			return e.loc, true
		}
	}
	return Location{}, false
}

// remove unlinks addr's entry from its chain, copying the entries in
// front of it, and returns it (nil if addr has none). Caller holds mu.
func (t *RemapTable) remove(b []remapBucket, addr region.GAddr) *remapEntry {
	bucket := bucketOf(b, addr)
	head := bucket.head.Load()
	for e := head; e != nil; e = e.next {
		if e.addr != addr {
			continue
		}
		rest := e.next
		for p := head; p != e; p = p.next {
			rest = &remapEntry{addr: p.addr, loc: p.loc, next: rest}
		}
		bucket.head.Store(rest)
		t.n.Add(-1)
		return e
	}
	return nil
}

// RemapAdd is one promotion in an Apply batch: addr's copy now lives
// at Loc.
type RemapAdd struct {
	Addr region.GAddr
	Loc  Location
}

// Apply installs a batch of promotions and removals and bumps the epoch
// once (if anything changed). The locations of removed entries are
// appended to released, which is returned, so the caller can release
// their buffer space; a caller that passes a reused buffer allocates
// nothing for them.
func (t *RemapTable) Apply(add []RemapAdd, remove []region.GAddr, released []Location) []Location {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := *t.buckets.Load()
	before := len(released)
	for _, a := range remove {
		if e := t.remove(b, a); e != nil {
			released = append(released, e.loc)
		}
	}
	for _, ad := range add {
		t.remove(b, ad.Addr) // a re-promotion replaces the entry
		bucketOf(b, ad.Addr).push(ad.Addr, ad.Loc)
		t.n.Add(1)
	}
	if len(add) == 0 && len(released) == before {
		return released // a free or demotion of an unpromoted object: same epoch
	}
	if int(t.n.Load()) > len(b) {
		// Entries outnumber buckets: publish an array of twice the size
		// holding the same entries. Readers still on the old array keep
		// a complete table — its chains are left as they are.
		grown := make([]remapBucket, 2*len(b))
		for i := range b {
			for e := b[i].head.Load(); e != nil; e = e.next {
				bucketOf(grown, e.addr).push(e.addr, e.loc)
			}
		}
		t.buckets.Store(&grown)
	}
	t.epoch.Add(1)
	return released
}

// Snapshot returns the epoch and a copy of all entries. Clients are sent
// EncodeSnapshot's form; this one is what tests check the table against.
func (t *RemapTable) Snapshot() (uint64, map[region.GAddr]Location) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[region.GAddr]Location, t.n.Load())
	b := *t.buckets.Load()
	for i := range b {
		for e := b[i].head.Load(); e != nil; e = e.next {
			out[e.addr] = e.loc
		}
	}
	return t.epoch.Load(), out
}

// EncodeSnapshot appends the epoch and all entries to a wire payload,
// for shipping to clients: epoch u64, count u32, then count × (base u64,
// Location), which ClientView.DecodeSnapshot reads. Like Snapshot it is
// exactly one epoch's table, and it allocates nothing once w has grown.
func (t *RemapTable) EncodeSnapshot(w *rpc.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w.U64(t.epoch.Load()).U32(uint32(t.n.Load()))
	b := *t.buckets.Load()
	for i := range b {
		for e := b[i].head.Load(); e != nil; e = e.next {
			w.U64(uint64(e.addr))
			e.loc.Encode(w)
		}
	}
}

// Len returns the number of promoted objects.
func (t *RemapTable) Len() int { return int(t.n.Load()) }
