// Package engine is the transport-agnostic core of a Gengar memory
// server: one allocation/caching/staging/locking state machine that
// transport mounts expose to clients. The engine owns
//
//   - an NVM pool device with a buddy allocator (gmalloc/gfree targets),
//   - a DRAM buffer arena holding promoted copies of hot objects,
//   - DRAM staging rings and a proxy flusher for the redesigned write
//     path,
//   - a one-sided lock table (lock + version words) and a lease table
//     for server-mediated locking,
//   - the hotness sketch, promotion policy and remap table for its home
//     objects.
//
// Two mounts exist: internal/server binds the engine to the simulated
// RDMA fabric and virtual time (every operation carries the caller's
// simnet instant), and internal/tcpnet binds it to real TCP and wall
// time (a Clock supplies instants). Placement of promoted copies is the
// one policy that differs per deployment, so it is injected as a Placer:
// the simulated mount places cluster-wide through the server registry,
// the TCP mount places into the engine's own arena.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"gengar/internal/alloc"
	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/hmem"
	"gengar/internal/hotness"
	"gengar/internal/lock"
	"gengar/internal/metrics"
	"gengar/internal/proxy"
	"gengar/internal/region"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"
)

// Errors returned by engine operations.
var (
	// ErrUnknownObject reports an operation on an address that is not a
	// live object base.
	ErrUnknownObject = errors.New("engine: unknown object")
	// ErrRingSpaceExhausted reports that every staging ring is leased.
	ErrRingSpaceExhausted = errors.New("engine: staging ring space exhausted")
	// ErrNotHome reports an operation addressed to the wrong home server.
	ErrNotHome = errors.New("engine: address not homed here")
)

// Config shapes one engine.
type Config struct {
	// ID is the server's pool ID (the high bits of addresses it homes).
	ID uint16
	// Name prefixes device names for diagnostics (e.g. "server-1").
	Name string
	// Cluster supplies capacities, media profiles, hotness and proxy
	// parameters, and feature switches.
	Cluster config.Cluster
	// Clock supplies instants for mounts without per-request timestamps
	// (the TCP mount). May be nil when every call provides its own `at`,
	// as the simulated mount does; Now then reports zero.
	Clock Clock
}

// Engine is one Gengar memory server's mechanism state, independent of
// the transport serving it.
type Engine struct {
	id   uint16
	name string
	cfg  config.Cluster
	clk  Clock

	cpu      *simnet.Resource
	nvm      *hmem.Device
	cacheDev *hmem.Device
	ringDev  *hmem.Device
	lockDev  *hmem.Device

	pool    *alloc.ShardedPool
	objIdx  *objIndex
	remap   *cache.RemapTable
	bufp    *cache.BufferPool
	policy  hotness.Policy
	flusher *proxy.Engine
	lockTbl *lock.Table
	leases  *lock.LeaseTable

	// placer is the deployment's promotion-placement strategy. It is set
	// once by the mount before any traffic (SetPlacer); until then the
	// engine serves data but never promotes.
	placer Placer

	// localIO is the copy data plane over this engine's own arena,
	// shared by the local placer and the hosted-copy (peer spill) table.
	localIO localCopyIO
	// hosted tracks copies that remote homes spilled into this arena.
	hosted hostedTable

	mu             sync.Mutex // guards sketch, plan state, ring leases
	sketch         *hotness.SpaceSaving
	lastPlan       simnet.Time
	lastPlanWeight uint64
	newWeight      uint64 // digest weight landed since the last plan
	planned        bool
	nextRing       int64
	freeRings      []int64

	// planning is set while a promotion round is in flight; the round
	// owns promote and demote, its moves, which are reused from round to
	// round.
	planning        atomic.Bool
	promote, demote []region.GAddr

	// Scratch a promotion round reuses, owned like promote and demote:
	// planAt is the round's instant and planTask, bound once, runs it on
	// the quiesced flusher; adds, released and copyBuf are executePlan's
	// remap batch, demoted locations and copy image.
	planAt   simnet.Time
	planTask func()
	adds     []cache.RemapAdd
	released []cache.Location
	copyBuf  []byte

	promotions   metrics.Counter
	demotions    metrics.Counter
	digests      metrics.Counter
	mallocs      metrics.Counter
	frees        metrics.Counter
	hits         metrics.Counter // mediated reads served from the local DRAM arena
	peerHits     metrics.Counter // mediated reads proxied from a peer's DRAM arena
	misses       metrics.Counter // mediated reads served from home NVM
	peerErrs     metrics.Counter // peer copy I/O failures that demoted the entry
	hostedReads  metrics.Counter // hosted-copy reads served for remote homes
	releaseErrs  metrics.Counter // copy releases that failed (double release)
	seqRetries   metrics.Counter // seqlock read attempts retried (writer raced)
	seqFallbacks metrics.Counter // seqlock reads that gave up and took the locked path

	releaseErrOnce sync.Once // gates the one release-failure log line
}

// New builds an engine: devices, allocator, lock and lease tables, and
// the proxy flusher. The engine will not promote objects until the mount
// installs a Placer.
func New(ec Config) (*Engine, error) {
	cfg := ec.Cluster
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := ec.Name
	if name == "" {
		name = fmt.Sprintf("engine-%d", ec.ID)
	}
	nvm, err := hmem.NewDevice(name+"/nvm", cfg.NVMBytes, cfg.PoolMedia)
	if err != nil {
		return nil, err
	}
	cacheDev, err := hmem.NewDevice(name+"/cache", cfg.DRAMBufferBytes, cfg.BufferMedia)
	if err != nil {
		return nil, err
	}
	ringDev, err := hmem.NewDevice(name+"/rings", cfg.RingBytes, cfg.BufferMedia)
	if err != nil {
		return nil, err
	}
	lockDev, err := hmem.NewDevice(name+"/locks", int64(cfg.LockSlots)*lock.SlotBytes, cfg.BufferMedia)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		id:       ec.ID,
		name:     name,
		cfg:      cfg,
		clk:      ec.Clock,
		cpu:      simnet.NewResource(name + "/cpu"),
		nvm:      nvm,
		cacheDev: cacheDev,
		ringDev:  ringDev,
		lockDev:  lockDev,
		objIdx:   newObjIndex(ec.ID, cfg.NVMBytes),
		remap:    cache.NewRemapTable(),
		sketch:   hotness.NewSpaceSaving(cfg.Hotness.SketchK),
		policy: hotness.Policy{
			BudgetBytes: cfg.DRAMBufferBytes,
			MinWeight:   cfg.Hotness.MinWeight,
			Hysteresis:  cfg.Hotness.Hysteresis,
			MaxChurn:    cfg.Hotness.MaxChurn,
		},
	}

	e.localIO = localCopyIO{e: e}
	e.planTask = func() { e.executePlan(e.planAt) }

	if e.pool, err = alloc.NewSharded(cfg.NVMBytes); err != nil {
		return nil, err
	}
	// Burn offset 0 so no object is ever at the nil global address.
	if err := e.pool.Reserve(0, alloc.MinBlock); err != nil {
		return nil, err
	}
	if e.bufp, err = cache.NewBufferPool(cacheDev); err != nil {
		return nil, err
	}
	if e.lockTbl, err = lock.NewTable(lockDev, 0, cfg.LockSlots); err != nil {
		return nil, err
	}
	if e.leases, err = lock.NewLeaseTable(cfg.LockSlots, nil); err != nil {
		return nil, err
	}
	// Server-mediated writers publish through the same version words the
	// one-sided protocol uses: an exclusive lease release bumps the slot's
	// version so readers observe that the object changed.
	e.leases.OnWriterRelease(func(addr region.GAddr) { _ = e.lockTbl.BumpVersionRaw(addr) })
	if e.flusher, err = proxy.NewEngine(proxy.Config{
		RingDev:    ringDev,
		NVM:        nvm,
		CPU:        e.cpu,
		CacheApply: e.ApplyToCache,
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// ID returns the engine's pool ID.
func (e *Engine) ID() uint16 { return e.id }

// Name returns the engine's device-name prefix.
func (e *Engine) Name() string { return e.name }

// Now returns the clock's current instant, or zero without a clock.
func (e *Engine) Now() simnet.Time {
	if e.clk == nil {
		return 0
	}
	return e.clk.Now()
}

// Features returns the deployment's feature switches.
func (e *Engine) Features() config.Features { return e.cfg.Features }

// Config returns the engine's cluster configuration.
func (e *Engine) Config() config.Cluster { return e.cfg }

// CPU returns the engine's simulated CPU resource (request processing
// and flusher polling contend on it).
func (e *Engine) CPU() *simnet.Resource { return e.cpu }

// NVM returns the engine's pool device.
func (e *Engine) NVM() *hmem.Device { return e.nvm }

// CacheDev returns the engine's DRAM buffer arena device.
func (e *Engine) CacheDev() *hmem.Device { return e.cacheDev }

// RingDev returns the engine's staging-ring device.
func (e *Engine) RingDev() *hmem.Device { return e.ringDev }

// LockDev returns the engine's lock-table device.
func (e *Engine) LockDev() *hmem.Device { return e.lockDev }

// Pool returns the engine's NVM pool allocator.
func (e *Engine) Pool() *alloc.ShardedPool { return e.pool }

// BufferPool returns the engine's DRAM buffer arena allocator.
func (e *Engine) BufferPool() *cache.BufferPool { return e.bufp }

// Remap returns the engine's remap table.
func (e *Engine) Remap() *cache.RemapTable { return e.remap }

// Flusher returns the engine's proxy flusher.
func (e *Engine) Flusher() *proxy.Engine { return e.flusher }

// LockTable returns the engine's one-sided lock table.
func (e *Engine) LockTable() *lock.Table { return e.lockTbl }

// Leases returns the engine's server-mediated lease table.
func (e *Engine) Leases() *lock.LeaseTable { return e.leases }

// SetPlacer installs the deployment's promotion placement strategy. It
// must be called before traffic; the simulated mount installs a
// registry-backed cluster-wide placer at join time, the TCP mount a
// local one at construction.
func (e *Engine) SetPlacer(p Placer) { e.placer = p }

// RingGeometry returns the per-session staging-ring shape.
func (e *Engine) RingGeometry() (slots, slotSize int) {
	return e.cfg.Proxy.RingSlots, e.cfg.Proxy.RingSlotSize
}

// Close stops the engine's flusher.
func (e *Engine) Close() {
	e.flusher.Close()
}

// --- operations ---

// Malloc allocates size bytes from the pool and registers the object.
func (e *Engine) Malloc(size int64) (region.GAddr, error) {
	if size <= 0 {
		return region.NilGAddr, fmt.Errorf("engine: malloc of %d bytes", size)
	}
	off, err := e.pool.Alloc(size)
	if err != nil {
		return region.NilGAddr, err
	}
	addr, err := region.NewGAddr(e.id, off)
	if err != nil {
		freeErr := e.pool.Free(off)
		return region.NilGAddr, errors.Join(err, freeErr)
	}
	e.objIdx.insert(addr, alloc.BlockSize(size))
	e.mallocs.Inc()
	return addr, nil
}

// Free releases the object at addr, demoting any DRAM copy first so no
// copy outlives the object.
func (e *Engine) Free(addr region.GAddr) error {
	if !e.objIdx.remove(addr) {
		return fmt.Errorf("%w: free of %v", ErrUnknownObject, addr)
	}
	e.demoteCopy(addr)
	if err := e.pool.Free(addr.Offset()); err != nil {
		return err
	}
	e.frees.Inc()
	return nil
}

// AdoptObject registers an already-reserved allocation as a live object
// — the snapshot-restore path, where the pool image carries the data and
// the allocator has re-reserved the ranges.
func (e *Engine) AdoptObject(off, size int64) error {
	addr, err := region.NewGAddr(e.id, off)
	if err != nil {
		return err
	}
	if !e.objIdx.insert(addr, size) {
		return fmt.Errorf("engine: adopt [%d,+%d): not a free aligned power-of-two block", off, size)
	}
	return nil
}

// ObjectSpan resolves a byte range to its containing live object.
func (e *Engine) ObjectSpan(addr region.GAddr, size int64) (base region.GAddr, objSize int64, ok bool) {
	return e.objIdx.findContaining(addr, size)
}

// Digest lands one hotness digest: every entry's weight is charged to
// its containing object in the sketch, and — when caching is on — the
// engine considers a promotion/demotion plan at instant at. It returns
// the remap epoch so clients know when to refetch their view.
func (e *Engine) Digest(at simnet.Time, entries []hotness.Entry) uint64 {
	// One lock acquisition per digest, not per entry: sessions stage
	// observations locally and land them in batches, so the sketch lock
	// is off the per-op path entirely and cheap even at digest time.
	e.mu.Lock()
	for _, ent := range entries {
		// Resolve the raw verb target to its containing object; the
		// digest reports verb semantics, the engine owns the layout.
		// findContaining is lock-free, so resolving under e.mu is safe.
		base, _, ok := e.objIdx.findContaining(ent.Addr, 1)
		if !ok {
			continue // freed or foreign address
		}
		weight := ent.Weight()
		e.sketch.Add(base, weight)
		e.newWeight += weight
	}
	e.mu.Unlock()
	e.digests.Inc()
	if e.cfg.Features.Cache {
		e.MaybePlan(at)
	}
	return e.remap.Epoch()
}

// OpenRing leases a staging ring for a new session and returns its base
// offset in the ring device.
func (e *Engine) OpenRing() (int64, error) {
	ringSize := int64(e.cfg.Proxy.RingSlots) * int64(e.cfg.Proxy.RingSlotSize)
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.freeRings); n > 0 {
		base := e.freeRings[n-1]
		e.freeRings = e.freeRings[:n-1]
		return base, nil
	}
	base := e.nextRing
	if base+ringSize > e.ringDev.Size() {
		return 0, fmt.Errorf("%w: %s", ErrRingSpaceExhausted, e.name)
	}
	e.nextRing += ringSize
	return base, nil
}

// CloseRing returns a session's staging ring for reuse. The caller must
// have drained the ring's writer first; the engine trusts it here
// because ring contents are only interpreted via the flusher queue,
// which the departing writer no longer feeds.
func (e *Engine) CloseRing(base int64) error {
	ringSize := int64(e.cfg.Proxy.RingSlots) * int64(e.cfg.Proxy.RingSlotSize)
	e.mu.Lock()
	defer e.mu.Unlock()
	if base < 0 || base+ringSize > e.nextRing || base%ringSize != 0 {
		return fmt.Errorf("engine %s: close of bogus ring %d", e.name, base)
	}
	for _, f := range e.freeRings {
		if f == base {
			return fmt.Errorf("engine %s: double close of ring %d", e.name, base)
		}
	}
	e.freeRings = append(e.freeRings, base)
	return nil
}

// RefreshCopy re-reads the just-written NVM range and refreshes the
// promoted DRAM copy covering it, if any — the write-through path that
// keeps copies coherent after direct NVM writes.
func (e *Engine) RefreshCopy(at simnet.Time, addr region.GAddr, size int64) (simnet.Time, error) {
	base, _, ok := e.objIdx.findContaining(addr, size)
	if !ok {
		return at, nil // object freed; nothing to refresh
	}
	loc, promoted := e.remap.Lookup(base)
	if !promoted {
		return at, nil
	}
	data := make([]byte, size)
	tRead, err := e.nvm.Read(at, addr.Offset(), data)
	if err != nil {
		return at, err
	}
	delta := addr.Offset() - base.Offset()
	end, err := e.writeCopy(tRead, loc, delta, data)
	if err != nil {
		// The write itself landed in NVM; only the copy refresh failed
		// (typically an unreachable peer holding the copy). Demote the
		// entry — reads fall back to authoritative NVM — and swallow the
		// error so a dead peer never surfaces as a client write failure.
		e.peerErrs.Inc()
		e.demoteCopy(base)
		return tRead, nil
	}
	return end, nil
}

// ApplyToCache is the proxy flusher's write-through hook: after a staged
// record lands in NVM, refresh the promoted DRAM copy (if any) so cache
// reads observe the new data.
func (e *Engine) ApplyToCache(at simnet.Time, addr region.GAddr, data []byte) simnet.Time {
	base, _, ok := e.objIdx.findContaining(addr, int64(len(data)))
	if !ok {
		return at
	}
	loc, promoted := e.remap.Lookup(base)
	if !promoted {
		return at
	}
	delta := addr.Offset() - base.Offset()
	if delta < 0 || delta+int64(len(data)) > loc.Size {
		return at
	}
	end, err := e.writeCopy(at, loc, delta, data)
	if err != nil {
		// The flushed record is durable in NVM; a copy that cannot be
		// refreshed (unreachable peer) must not keep serving stale reads.
		e.peerErrs.Inc()
		e.demoteCopy(base)
		return at
	}
	return end
}

// ReadSource identifies where a mediated read was served from.
type ReadSource uint8

// Read sources, in escalation order: the local arena's lock-free hit
// path, a peer's arena over the daemon link, then home NVM.
const (
	ReadMiss     ReadSource = iota // home NVM
	ReadHitLocal                   // DRAM copy in the local arena
	ReadHitPeer                    // DRAM copy on a peer, proxied over the peer link
)

// Hit reports whether the read was served from a DRAM copy anywhere.
func (s ReadSource) Hit() bool { return s != ReadMiss }

// ReadAt is the server-mediated read path (the TCP mount's gread): it
// serves the range from the local DRAM copy when the containing object
// is promoted into this arena, proxies through the placer when the copy
// was spilled to a peer, and falls back to home NVM otherwise. It
// reports which of the three served the read.
func (e *Engine) ReadAt(at simnet.Time, addr region.GAddr, buf []byte) (end simnet.Time, src ReadSource, err error) {
	if e.cfg.Features.Cache {
		if end, ok := e.readCopy(at, addr, buf); ok {
			e.hits.Inc()
			return end, ReadHitLocal, nil
		}
		if end, ok := e.readPeerCopy(at, addr, buf); ok {
			e.peerHits.Inc()
			return end, ReadHitPeer, nil
		}
	}
	e.misses.Inc()
	end, err = e.nvm.Read(at, addr.Offset(), buf)
	return end, ReadMiss, err
}

// seqlockAttempts bounds the optimistic read retries before readCopy
// falls back to the locked path: a raced writer costs one retry, so
// more than a handful in a row means pathological write pressure on
// one object and the locked path's fairness is worth its mutex.
const seqlockAttempts = 4

// readCopy attempts to serve buf from a local promoted copy, validating
// the generation header against the remap entry (a mismatched header
// means the buffer slot was reused for a different object).
//
// The hit path is lock-free: the object index and the remap table are
// read in place with atomic loads, and the copy bytes with a seqlock —
// load the copy's seq word (even means quiescent), compare the
// generation word, copy the data with atomic word loads, then re-check
// both words. A racing writer flips seq odd before mutating and +2
// after, so any torn copy is detected and retried; after
// seqlockAttempts failures the read falls back to the mutex-guarded
// device path, which writers still exclude.
//
//gengar:hotpath
func (e *Engine) readCopy(at simnet.Time, addr region.GAddr, buf []byte) (simnet.Time, bool) {
	base, _, ok := e.objIdx.findContaining(addr, int64(len(buf)))
	if !ok {
		return at, false
	}
	loc, promoted := e.remap.Lookup(base)
	if !promoted || loc.Node != e.name {
		return at, false // not promoted, or the copy lives on a peer
	}
	delta := addr.Offset() - base.Offset()
	if delta < 0 || delta+int64(len(buf)) > loc.Size {
		return at, false
	}
	return e.seqlockReadCopy(at, loc, delta, buf)
}

// seqlockReadCopy runs the lock-free generation-checked read protocol
// against a local arena location — the shared core of the mediated hit
// path, the placer's local ReadCopy, and hosted-copy reads. A false
// return means the generation no longer matches (slot demoted or
// reused) or the device failed; retries exhausted fall back to the
// locked path, which still validates the generation.
//
//gengar:hotpath
func (e *Engine) seqlockReadCopy(at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, bool) {
	genWord := hmem.BEWord(loc.Gen)
	for try := 0; try < seqlockAttempts; try++ {
		seq1, err := e.cacheDev.LoadWordRaw(loc.Off + cache.CopySeqOff)
		if err != nil {
			return at, false
		}
		if seq1&1 != 0 { // writer in progress
			e.seqRetries.Inc()
			continue
		}
		gen, err := e.cacheDev.LoadWordRaw(loc.Off + cache.CopyGenOff)
		if err != nil || gen != genWord {
			return at, false // slot demoted and reused
		}
		if err := e.cacheDev.ReadWordsRaw(loc.Off+cache.CopyHeaderBytes+delta, buf); err != nil {
			return at, false
		}
		seq2, err := e.cacheDev.LoadWordRaw(loc.Off + cache.CopySeqOff)
		if err != nil {
			return at, false
		}
		gen2, err := e.cacheDev.LoadWordRaw(loc.Off + cache.CopyGenOff)
		if err != nil {
			return at, false
		}
		if seq2 == seq1 && gen2 == genWord {
			return at, true
		}
		e.seqRetries.Inc()
	}
	e.seqFallbacks.Inc()
	return e.readCopyLocked(at, loc, delta, buf)
}

// readCopyLocked is the pre-seqlock hit path: mutex-guarded device
// reads with simulated timing. Sustained writer pressure lands here
// (bounded by seqlockAttempts); writers hold the device write lock
// while mutating, so the locked read can never observe a torn copy.
func (e *Engine) readCopyLocked(at simnet.Time, loc cache.Location, delta int64, buf []byte) (simnet.Time, bool) {
	var hdr [8]byte
	// Locked fallback: writers hold the device write lock while
	// mutating, so this plain read cannot observe a torn header.
	end, err := e.cacheDev.Read(at, loc.Off+cache.CopyGenOff, hdr[:])
	if err != nil || binary.BigEndian.Uint64(hdr[:]) != loc.Gen {
		return at, false
	}
	end, err = e.cacheDev.Read(end, loc.Off+cache.CopyHeaderBytes+delta, buf)
	if err != nil {
		return at, false
	}
	return end, true
}

// readPeerCopy serves buf through the placer when the containing
// object's copy was spilled to a peer's arena. The generation check
// happens at the holder; any failure — a dead peer, a stale generation,
// a copy the holder already recycled — demotes the entry so subsequent
// reads go straight to home NVM, and reports a miss rather than an
// error: home NVM is always authoritative.
func (e *Engine) readPeerCopy(at simnet.Time, addr region.GAddr, buf []byte) (simnet.Time, bool) {
	if e.placer == nil {
		return at, false
	}
	base, _, ok := e.objIdx.findContaining(addr, int64(len(buf)))
	if !ok {
		return at, false
	}
	loc, promoted := e.remap.Lookup(base)
	if !promoted || loc.Node == e.name {
		return at, false // local copies were already tried lock-free
	}
	delta := addr.Offset() - base.Offset()
	if delta < 0 || delta+int64(len(buf)) > loc.Size {
		return at, false
	}
	end, err := e.placer.ReadCopy(at, loc, delta, buf)
	if err != nil {
		e.peerErrs.Inc()
		e.demoteCopy(base)
		return at, false
	}
	return end, true
}

// demoteCopy drops the promoted copy of base, if any, outside a
// promotion round: the object is being freed, or its copy sits on an
// unreachable or stale peer. The sketch is told, so the planner's
// resident set keeps matching the remap table.
func (e *Engine) demoteCopy(base region.GAddr) {
	bases := [1]region.GAddr{base}
	var released [1]cache.Location
	if len(e.dropCopies(bases[:], released[:0])) > 0 {
		e.mu.Lock()
		e.sketch.ClearResident(base)
		e.mu.Unlock()
	}
}

// WriteNVM is the server-mediated direct write path: data lands in home
// NVM, then any promoted copy is refreshed so cache reads observe it.
func (e *Engine) WriteNVM(at simnet.Time, addr region.GAddr, data []byte) (simnet.Time, error) {
	end, err := e.nvm.Write(at, addr.Offset(), data)
	if err != nil {
		return at, err
	}
	if e.cfg.Features.Cache {
		return e.RefreshCopy(end, addr, int64(len(data)))
	}
	return end, nil
}

// Version returns the current value of the version word covering addr —
// bumped by one-sided writers via RDMA FETCH_ADD and by lease-mediated
// writers on exclusive release.
func (e *Engine) Version(addr region.GAddr) uint64 {
	return e.lockTbl.ReadVersionRaw(addr)
}

// Stats is an engine activity snapshot.
type Stats struct {
	Objects    int
	PoolUsed   int64
	BufferUsed int64
	Promoted   int
	Promotions int64
	Demotions  int64
	Digests    int64
	Mallocs    int64
	Frees      int64
	Hits       int64 // mediated reads served from the local DRAM arena
	PeerHits   int64 // mediated reads proxied from a peer's DRAM arena
	Misses     int64 // mediated reads served from home NVM
	// PeerErrors counts peer copy I/O failures that demoted an entry
	// back to NVM service (dead peer, stale generation at the holder).
	PeerErrors int64
	// HostedCopies/HostedBytes are the copies remote homes spilled into
	// this arena and their footprint; HostedReads counts reads this
	// holder served for them. ReleaseErrors counts copy releases that
	// failed (double release upstream).
	HostedCopies  int
	HostedBytes   int64
	HostedReads   int64
	ReleaseErrors int64
	// SeqRetries counts seqlock read attempts retried because a writer
	// raced the copy; SeqFallbacks counts reads that exhausted their
	// retries and took the locked path.
	SeqRetries   int64
	SeqFallbacks int64
	Proxy        proxy.EngineStats
	RemapEpoch   uint64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	hostedCopies, hostedBytes := e.HostedStats()
	return Stats{
		Objects:       e.objIdx.count(),
		PoolUsed:      e.pool.AllocatedBytes(),
		BufferUsed:    e.bufp.UsedBytes(),
		Promoted:      e.remap.Len(),
		Promotions:    e.promotions.Load(),
		Demotions:     e.demotions.Load(),
		Digests:       e.digests.Load(),
		Mallocs:       e.mallocs.Load(),
		Frees:         e.frees.Load(),
		Hits:          e.hits.Load(),
		PeerHits:      e.peerHits.Load(),
		Misses:        e.misses.Load(),
		PeerErrors:    e.peerErrs.Load(),
		HostedCopies:  hostedCopies,
		HostedBytes:   hostedBytes,
		HostedReads:   e.hostedReads.Load(),
		ReleaseErrors: e.releaseErrs.Load(),
		SeqRetries:    e.seqRetries.Load(),
		SeqFallbacks:  e.seqFallbacks.Load(),
		Proxy:         e.flusher.Stats(),
		RemapEpoch:    e.remap.Epoch(),
	}
}

// RegisterTelemetry exposes the engine's live counters and derived state
// in reg under the gengar_server_* names with the given labels. The same
// counter instances back both Stats and the registry, so the two views
// never disagree.
func (e *Engine) RegisterTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterCounter("gengar_server_promotions_total", "objects promoted to DRAM", &e.promotions, labels...)
	reg.RegisterCounter("gengar_server_demotions_total", "objects demoted from DRAM", &e.demotions, labels...)
	reg.RegisterCounter("gengar_server_digests_total", "hotness digests received", &e.digests, labels...)
	reg.RegisterCounter("gengar_server_mallocs_total", "gmalloc requests served", &e.mallocs, labels...)
	reg.RegisterCounter("gengar_server_frees_total", "gfree requests served", &e.frees, labels...)
	reg.RegisterCounter("gengar_server_cache_hits_total", "mediated reads served from the local DRAM arena", &e.hits, labels...)
	reg.RegisterCounter("gengar_server_peer_hits_total", "mediated reads proxied from a peer's DRAM arena", &e.peerHits, labels...)
	reg.RegisterCounter("gengar_server_cache_misses_total", "mediated reads served from home NVM", &e.misses, labels...)
	reg.RegisterCounter("gengar_server_peer_copy_errors_total", "peer copy I/O failures that demoted an entry back to NVM", &e.peerErrs, labels...)
	reg.RegisterCounter("gengar_server_hosted_reads_total", "hosted-copy reads served for remote homes", &e.hostedReads, labels...)
	reg.RegisterCounter("gengar_cache_release_errors_total", "copy releases that failed (double release upstream)", &e.releaseErrs, labels...)
	reg.RegisterCounter("gengar_read_seqlock_retries_total", "lock-free cache reads retried because a writer raced the copy", &e.seqRetries, labels...)
	reg.RegisterCounter("gengar_read_seqlock_fallbacks_total", "lock-free cache reads that fell back to the locked path", &e.seqFallbacks, labels...)
	reg.GaugeFunc("gengar_server_objects", "live objects homed here", func() int64 {
		return int64(e.objIdx.count())
	}, labels...)
	reg.GaugeFunc("gengar_server_pool_used_bytes", "NVM pool bytes allocated", func() int64 {
		return e.pool.AllocatedBytes()
	}, labels...)
	reg.GaugeFunc("gengar_server_buffer_used_bytes", "DRAM buffer bytes holding promoted copies", func() int64 {
		return e.bufp.UsedBytes()
	}, labels...)
	reg.GaugeFunc("gengar_server_buffer_capacity_bytes", "DRAM buffer arena size", func() int64 {
		return e.cacheDev.Size()
	}, labels...)
	reg.GaugeFunc("gengar_server_promoted_objects", "objects with a live DRAM copy", func() int64 {
		return int64(e.remap.Len())
	}, labels...)
	reg.GaugeFunc("gengar_server_hosted_copies", "copies remote homes spilled into this arena", func() int64 {
		n, _ := e.HostedStats()
		return int64(n)
	}, labels...)
	reg.GaugeFunc("gengar_server_hosted_bytes", "arena bytes holding remote homes' copies", func() int64 {
		_, b := e.HostedStats()
		return b
	}, labels...)
	reg.GaugeFunc("gengar_server_remap_epoch", "remap table epoch", func() int64 {
		return int64(e.remap.Epoch())
	}, labels...)
	// Per-shard NVM allocator occupancy: one gauge per shard, so a
	// skewed shard shows up as imbalance rather than vanishing into the
	// pool-wide total. Shard labels are bound once at registration. (The
	// DRAM buffer arena is one granule allocator, not sharded; its
	// occupancy is gengar_server_buffer_used_bytes.)
	registerShardGauges(reg, "nvm", e.pool, labels)
	e.flusher.RegisterTelemetry(reg, labels...)
}

// registerShardGauges exposes one occupancy gauge and one slab-count
// gauge per allocator shard.
func registerShardGauges(reg *telemetry.Registry, pool string, p *alloc.ShardedPool, labels []telemetry.Label) {
	for i := 0; i < p.Shards(); i++ {
		shard := i
		sl := make([]telemetry.Label, 0, len(labels)+2)
		sl = append(sl, labels...)
		sl = append(sl, telemetry.L("pool", pool), telemetry.L("shard", strconv.Itoa(shard)))
		reg.GaugeFunc("gengar_alloc_shard_used_bytes", "live slab-slot bytes in this allocator shard", func() int64 {
			return p.ShardStats()[shard].UserBytes
		}, sl...)
		reg.GaugeFunc("gengar_alloc_shard_slabs", "slab parents held by this allocator shard", func() int64 {
			return int64(p.ShardStats()[shard].Slabs)
		}, sl...)
	}
}
