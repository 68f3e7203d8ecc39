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

// Encode appends the location to a wire payload.
func (l Location) Encode(w *rpc.Writer) {
	w.Str(l.Node).U32(l.RKey).I64(l.Off).I64(l.Size).U64(l.Gen).U32(l.HomeMR)
}

// DecodeLocation consumes a location from a wire payload.
func DecodeLocation(r *rpc.Reader) Location {
	return Location{
		Node:   r.Str(),
		RKey:   r.U32(),
		Off:    r.I64(),
		Size:   r.I64(),
		Gen:    r.U64(),
		HomeMR: r.U32(),
	}
}

// BufferPool manages one server's DRAM buffer arena: the capacity pledged
// to hold promoted copies. It wraps a buddy allocator over a DRAM device;
// registration of the arena as an RDMA region is the server's job.
type BufferPool struct {
	dev   *hmem.Device
	buddy *alloc.ShardedPool
}

// NewBufferPool returns a pool over the whole of dev, whose size must be
// a power of two.
func NewBufferPool(dev *hmem.Device) (*BufferPool, error) {
	if dev.Kind() != hmem.KindDRAM {
		return nil, fmt.Errorf("cache: buffer pool requires DRAM device, got %v", dev.Kind())
	}
	b, err := alloc.NewSharded(dev.Size())
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &BufferPool{dev: dev, buddy: b}, nil
}

// Device returns the DRAM device backing the pool.
func (p *BufferPool) Device() *hmem.Device { return p.dev }

// Place reserves space for an object copy of the given size and returns
// its offset within the arena.
func (p *BufferPool) Place(size int64) (int64, error) {
	off, err := p.buddy.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("cache: place %d bytes: %w", size, err)
	}
	return off, nil
}

// Release frees a previously placed copy.
func (p *BufferPool) Release(off int64) error {
	if err := p.buddy.Free(off); err != nil {
		return fmt.Errorf("cache: release: %w", err)
	}
	return nil
}

// UsedBytes returns the bytes currently holding promoted copies
// (rounded to allocator blocks).
func (p *BufferPool) UsedBytes() int64 { return p.buddy.AllocatedBytes() }

// Capacity returns the arena size.
func (p *BufferPool) Capacity() int64 { return p.buddy.ArenaSize() }

// Allocator returns the sharded allocator behind the arena, for
// per-shard occupancy telemetry.
func (p *BufferPool) Allocator() *alloc.ShardedPool { return p.buddy }

// RemapTable is the home server's authoritative object->DRAM-copy map.
// Every mutation bumps the epoch; clients compare epochs to decide when
// to refresh. It is safe for concurrent use: readers follow an
// atomically-swapped immutable snapshot (promotions are rare, lookups
// are per-op, so copy-on-write beats a read lock on the hit path), and
// mutations clone under a writer mutex before publishing.
type RemapTable struct {
	mu sync.Mutex // serializes writers
	//gengar:guardedby mu
	p atomic.Pointer[remapState]
}

// remapState is one immutable table version. The map is never mutated
// after publication.
type remapState struct {
	epoch uint64
	m     map[region.GAddr]Location
}

// NewRemapTable returns an empty table at epoch zero.
func NewRemapTable() *RemapTable {
	t := &RemapTable{}
	t.p.Store(&remapState{m: make(map[region.GAddr]Location)})
	return t
}

// Epoch returns the current table version.
func (t *RemapTable) Epoch() uint64 {
	return t.p.Load().epoch
}

// Lookup returns the DRAM location of the object based at addr, if
// promoted. It takes no locks.
//
//gengar:hotpath
func (t *RemapTable) Lookup(addr region.GAddr) (Location, bool) {
	loc, ok := t.p.Load().m[addr]
	return loc, ok
}

// Promoted returns the set of currently promoted object bases.
func (t *RemapTable) Promoted() map[region.GAddr]bool {
	s := t.p.Load()
	out := make(map[region.GAddr]bool, len(s.m))
	for a := range s.m {
		out[a] = true
	}
	return out
}

// Apply installs a batch of promotions and removals atomically and bumps
// the epoch once (if anything changed). Removed entries are returned so
// the caller can release their buffer space.
func (t *RemapTable) Apply(add map[region.GAddr]Location, remove []region.GAddr) []Location {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.p.Load()
	changed := len(add) > 0
	for i := 0; !changed && i < len(remove); i++ {
		_, changed = old.m[remove[i]]
	}
	if !changed {
		return nil // a free or demotion of an unpromoted object: no new version to clone
	}
	next := &remapState{epoch: old.epoch + 1, m: make(map[region.GAddr]Location, len(old.m)+len(add))}
	for a, l := range old.m {
		next.m[a] = l
	}
	var released []Location
	for _, a := range remove {
		if loc, ok := next.m[a]; ok {
			released = append(released, loc)
			delete(next.m, a)
		}
	}
	for a, loc := range add {
		next.m[a] = loc
	}
	t.p.Store(next)
	return released
}

// Snapshot returns the epoch and all entries, for shipping to clients.
// The returned map is a defensive copy.
func (t *RemapTable) Snapshot() (uint64, map[region.GAddr]Location) {
	s := t.p.Load()
	out := make(map[region.GAddr]Location, len(s.m))
	for a, l := range s.m {
		out[a] = l
	}
	return s.epoch, out
}

// Len returns the number of promoted objects.
func (t *RemapTable) Len() int {
	return len(t.p.Load().m)
}
