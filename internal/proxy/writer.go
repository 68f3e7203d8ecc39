package proxy

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"gengar/internal/hmem"
	"gengar/internal/metrics"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/simnet"
)

// Ring describes one client's staging ring inside a server's DRAM: an
// RDMA-writable window divided into fixed-size slots used round-robin.
// The server allocates it and hands the descriptor to the client at
// connection time.
type Ring struct {
	ID       int
	Handle   rdma.RegionHandle // MR covering the ring
	Base     int64             // ring start, relative to the MR
	DevBase  int64             // ring start, absolute in the server DRAM device
	Slots    int
	SlotSize int // per-slot bytes, including the record header
}

// MaxPayload returns the largest write the ring can stage in one slot.
func (r Ring) MaxPayload() int { return r.SlotSize - slotHeaderBytes }

// Validate reports whether the descriptor is usable.
func (r Ring) Validate() error {
	if r.Slots <= 0 || r.SlotSize <= slotHeaderBytes {
		return fmt.Errorf("proxy: bad ring geometry %d x %d", r.Slots, r.SlotSize)
	}
	return nil
}

type pendingWrite struct {
	seq  uint64
	addr region.GAddr
	data []byte
	buf  *[]byte // pooled backing of data, recycled when popFlushed drops it
}

// bufPool recycles the per-record byte buffers of the staging hot path:
// slot images (header + payload) and the pending read-your-writes
// copies. Both are short-lived and sized by the ring slot, so pooling
// them removes the two per-record allocations Stage/StageMulti would
// otherwise pay.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled buffer of length n.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) { bufPool.Put(bp) }

// Writer is the client side of the proxy write path for one
// (client, server) pair. StageMulti RDMA-WRITEs records into the next
// ring slots — completing at DRAM speed — and hands them to the server's
// flusher. The writer counts its free ring slots; when the ring is
// full, staging blocks until the flusher copies records out (the
// backpressure that surfaces as the write-throughput knee in the
// evaluation).
//
// Writer also keeps the staged-but-unflushed payloads so the owning
// client reads its own writes: ApplyPending overlays them onto data read
// from the server, between a Pin and an Unpin.
//
// Locking: stageMu serializes staging (slot accounting, sequence/slot
// assignment, the ring write and the enqueue — FIFO order into the
// flusher is what makes slot reuse safe); pendMu guards the free-slot
// count, the pending set and applied state. pendMu is a leaf lock: the
// flush worker takes it, holding nothing else, to hand a slot back
// (returnSlots) and to report a record applied (applied), and nothing
// blocks under it — the two condition waits release it. The flusher
// never takes stageMu, so slots keep returning while a stager waits for
// them under it.
type Writer struct {
	engine *Engine
	qp     *rdma.QP // nil for a server-local writer
	// localDev is the ring device for server-local staging (NewLocalWriter):
	// slot images are posted by direct device writes instead of RDMA WRITEs.
	localDev *hmem.Device
	ring     Ring

	//gengar:lint-ignore lock-across-blocking staging holds stageMu across the slot wait, ring post and enqueue by design: FIFO order into the flusher is what makes slot reuse safe (see Locking above)
	stageMu sync.Mutex
	nextSeq uint64
	// Staging scratch, reused across calls (guarded by stageMu): the
	// burst cut into slot-sized pieces, then one WQE and one pooled slot
	// image per piece of the chain being posted (at most ring.Slots).
	pieces         []StageReq
	wqeScratch     []rdma.WriteReq
	slotBufScratch []*[]byte

	// occHW tracks the staging ring's occupancy high-water mark (slots
	// taken and not yet copied out by the flusher) — where write
	// backpressure builds before Stage starts blocking.
	occHW metrics.Gauge

	pendMu sync.Mutex
	// free counts the ring slots holding no record the flusher has yet to
	// copy out; slotFreed wakes the one stager waiting for it to rise.
	free      int
	slotFreed *sync.Cond
	cond      *sync.Cond // pending ran empty: Drain and Close
	pending   []pendingWrite
	// pendStore is the array pending lives in, from its start: flushed
	// entries are sliced off pending's front, and reservePending slides
	// the live ones back here instead of letting append reallocate.
	pendStore   []pendingWrite
	flushed     uint64 // sequence numbers below it are applied to NVM
	lastApplied simnet.Time
	closed      bool
	// pins counts reads between their Pin and Unpin; flushed entries stay
	// in pending while it is nonzero. Decremented under pendMu.
	pins atomic.Int32
}

// NewWriter builds the client side of a staging ring. qp must be
// connected to the server hosting the ring; engine is the server's
// flusher (the in-process stand-in for its polling threads discovering
// ring tail updates).
func NewWriter(engine *Engine, qp *rdma.QP, ring Ring) (*Writer, error) {
	if qp == nil {
		return nil, fmt.Errorf("proxy: NewWriter without a QP (use NewLocalWriter)")
	}
	return newWriter(engine, qp, nil, ring)
}

// NewLocalWriter builds a server-local writer over the flusher's own
// ring device: slot images are posted by direct device writes instead of
// one-sided RDMA WRITEs. This is the staging path of server-mediated
// transports (the TCP mount), where the daemon stages on the client's
// behalf — same slots, FIFO flush order, read-your-writes and
// backpressure as the RDMA path. Ring.DevBase addresses the ring within
// the flusher's ring device; Handle may be zero.
func NewLocalWriter(engine *Engine, ring Ring) (*Writer, error) {
	if engine == nil {
		return nil, fmt.Errorf("proxy: NewLocalWriter without an engine")
	}
	return newWriter(engine, nil, engine.ringDev, ring)
}

func newWriter(engine *Engine, qp *rdma.QP, localDev *hmem.Device, ring Ring) (*Writer, error) {
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	w := &Writer{
		engine:   engine,
		qp:       qp,
		localDev: localDev,
		ring:     ring,
		free:     ring.Slots,
	}
	w.cond = sync.NewCond(&w.pendMu)
	w.slotFreed = sync.NewCond(&w.pendMu)
	return w, nil
}

// returnSlots gives n ring slots back. The flush worker calls it for
// each record once the payload is copied out of the ring; staging calls
// it for slots it took and could not fill.
func (w *Writer) returnSlots(n int) {
	w.pendMu.Lock()
	w.free += n
	w.pendMu.Unlock()
	w.slotFreed.Signal()
}

// applied is the flush worker's report that record seq — and, flushing
// being FIFO per ring, every record before it — is in NVM (and in the
// DRAM copy, if the object is promoted) as of at.
func (w *Writer) applied(seq uint64, at simnet.Time) {
	w.pendMu.Lock()
	if at > w.lastApplied {
		w.lastApplied = at
	}
	w.flushed = seq + 1
	if w.pins.Load() == 0 {
		w.popFlushed()
	}
	w.pendMu.Unlock()
}

// StageReq is one record of a staged chain: a proxied write of Data to
// the global address Addr, whose NVM backing lives at NvmOff in the
// server's pool device.
type StageReq struct {
	Addr   region.GAddr
	NvmOff int64
	Data   []byte
}

// popFlushed drops the pending entries the flusher has applied —
// flushing is FIFO per ring, so they form a prefix — and wakes Drain.
// Caller holds pendMu.
func (w *Writer) popFlushed() {
	popped := false
	for len(w.pending) > 0 && w.pending[0].seq < w.flushed {
		putBuf(w.pending[0].buf)
		w.pending[0] = pendingWrite{}
		w.pending = w.pending[1:]
		popped = true
	}
	if popped && len(w.pending) == 0 {
		w.cond.Broadcast()
	}
}

// Pin holds the pending set still for one read: call it before reading
// the server's bytes, ApplyPending on what came back, then Unpin. A
// record the flusher applies between the read and the overlay would
// otherwise be in neither — not yet in the bytes read, already dropped
// from the pending set — and the reader would miss its own write.
// Entries applied before the Pin may still be dropped concurrently with
// it; the read that follows sees those in the server's bytes.
func (w *Writer) Pin() { w.pins.Add(1) }

// Unpin ends a Pin; the last one out drops what was flushed meanwhile.
func (w *Writer) Unpin() {
	w.pendMu.Lock()
	if w.pins.Add(-1) == 0 {
		w.popFlushed()
	}
	w.pendMu.Unlock()
}

// Stage is StageMulti for a lone record: a chain of length one.
func (w *Writer) Stage(at simnet.Time, addr region.GAddr, nvmOff int64, data []byte) (simnet.Time, error) {
	reqs := [1]StageReq{{Addr: addr, NvmOff: nvmOff, Data: data}}
	return w.StageMulti(at, reqs[:])
}

// StageMulti is the one body that turns writes into ring records, on
// both mounts and for any record count and size. A record larger than
// a ring slot is cut into slot-sized pieces, so it still reaches NVM
// through the ring, in order with everything staged before and after it
// — the flusher stays the single coherence authority. The pieces of
// the whole burst take consecutive sequence numbers and slots and each
// ring-sized run is posted as one doorbell-batched WRITE chain: one
// PerOp for the run instead of one per record. The call blocks for a
// free slot per piece while the flusher is behind, records enter the
// flusher in staging order, and every piece joins the pending set
// before the call returns, so the stager reads its own writes.
//
// The returned instant is when the last chain's last WQE is
// acknowledged — the client-visible write latency under Gengar.
//
//gengar:hotpath
func (w *Writer) StageMulti(at simnet.Time, reqs []StageReq) (simnet.Time, error) {
	// stageMu is held from the first slot taken to the last enqueue. One
	// stager takes slots at a time, so two chains can never each hold
	// half a ring and wait for the other's half.
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	maxPayload := w.ring.MaxPayload()
	w.pieces = w.pieces[:0]
	for _, r := range reqs {
		for off := 0; off < len(r.Data); off += maxPayload {
			w.pieces = append(w.pieces, StageReq{
				Addr:   r.Addr.Add(int64(off)),
				NvmOff: r.NvmOff + int64(off),
				Data:   r.Data[off:min(off+maxPayload, len(r.Data))],
			})
		}
	}
	end := at
	// A chain longer than the ring could never get all its slots; each
	// ring-sized run takes its slots, is posted and enqueued before the
	// next.
	for rest := w.pieces; len(rest) > 0; {
		n := min(len(rest), w.ring.Slots)
		var err error
		if end, err = w.stageChain(end, rest[:n]); err != nil {
			return at, err
		}
		rest = rest[n:]
	}
	return end, nil
}

// stageChain stages up to ring.Slots slot-sized records as one
// doorbell-batched chain. Caller holds stageMu.
//
//gengar:hotpath
func (w *Writer) stageChain(at simnet.Time, reqs []StageReq) (simnet.Time, error) {
	// Take one ring slot per record, the whole chain's in one step;
	// blocks while the flusher is behind.
	w.pendMu.Lock()
	if w.closed {
		w.pendMu.Unlock()
		return at, ErrEngineClosed
	}
	for w.free < len(reqs) {
		w.slotFreed.Wait()
	}
	w.free -= len(reqs)
	w.occHW.SetMax(int64(w.ring.Slots - w.free))
	w.pendMu.Unlock()

	seq0 := w.nextSeq
	w.nextSeq += uint64(len(reqs))

	// Build the chain: one WQE per slot image (header + payload), all
	// pooled, into the writer's scratch. The device copies an image
	// during the WRITE, so it is reusable the moment the verb returns.
	w.wqeScratch = w.wqeScratch[:0]
	w.slotBufScratch = w.slotBufScratch[:0]
	for i, r := range reqs {
		sb := getBuf(slotHeaderBytes + len(r.Data))
		buf := *sb
		binary.BigEndian.PutUint64(buf, uint64(r.Addr))
		binary.BigEndian.PutUint32(buf[8:], uint32(len(r.Data)))
		copy(buf[slotHeaderBytes:], r.Data)
		w.slotBufScratch = append(w.slotBufScratch, sb)
		if w.qp != nil {
			w.wqeScratch = append(w.wqeScratch, rdma.WriteReq{
				Src:   buf,
				Raddr: rdma.RemoteAddr{Region: w.ring.Handle, Offset: w.ring.Base + w.slotOff(seq0+uint64(i))},
			})
		}
	}
	var stagedAt simnet.Time
	var err error
	if w.qp != nil {
		stagedAt, err = w.qp.WriteBatch(at, w.wqeScratch)
	} else {
		// Local mode has no doorbell chain; post the slot images directly
		// into the ring device in sequence.
		stagedAt = at
		for i, sb := range w.slotBufScratch {
			stagedAt, err = w.localDev.Write(stagedAt, w.ring.DevBase+w.slotOff(seq0+uint64(i)), *sb)
			if err != nil {
				break
			}
		}
	}
	for _, sb := range w.slotBufScratch {
		putBuf(sb)
	}
	if err != nil {
		w.returnSlots(len(reqs))
		return at, fmt.Errorf("proxy: stage: %w", err)
	}

	w.pendMu.Lock()
	w.reservePending(len(reqs))
	for i, r := range reqs {
		pb := getBuf(len(r.Data))
		copy(*pb, r.Data)
		w.pending = append(w.pending, pendingWrite{
			seq:  seq0 + uint64(i),
			addr: r.Addr,
			data: *pb,
			buf:  pb,
		})
	}
	w.pendMu.Unlock()

	// Enqueue in sequence order, still under stageMu: slot-reuse safety
	// rests on slots returning in FIFO order. The whole chain completes
	// at the final WQE's ack — the single signaled work request.
	for i, r := range reqs {
		seq := seq0 + uint64(i)
		rec := record{
			w:        w,
			seq:      seq,
			addr:     r.Addr,
			nvmOff:   r.NvmOff,
			ringOff:  w.ring.DevBase + w.slotOff(seq) + slotHeaderBytes,
			size:     len(r.Data),
			stagedAt: stagedAt,
		}
		if err := w.engine.enqueue(rec); err != nil {
			// Records before i are in flight and will be applied normally;
			// undo the tail that will never flush.
			w.dropPendingFrom(seq)
			w.returnSlots(len(reqs) - i)
			return at, err
		}
	}
	return stagedAt, nil
}

// reservePending makes room for n more pending entries without an
// allocation per staged record. popFlushed gives capacity away at the
// front, so a tail that has run out does not mean a full array: if the
// live entries and the n new ones fill at most half of it, they slide
// back to its start (the two ranges cannot overlap then, and the move is
// paid for by the entries popped since the last one); only otherwise
// does the array grow. Caller holds pendMu.
func (w *Writer) reservePending(n int) {
	need := len(w.pending) + n
	if need <= cap(w.pending) {
		return
	}
	if 2*need > cap(w.pendStore) {
		w.pendStore = make([]pendingWrite, 0, 2*need)
	}
	old := w.pending
	w.pending = append(w.pendStore[:0], old...)
	clear(old) // drop the moved entries' references to pooled buffers
}

// slotOff is the byte offset, from the ring's start, of the slot that
// sequence number seq occupies.
func (w *Writer) slotOff(seq uint64) int64 {
	return int64(seq%uint64(w.ring.Slots)) * int64(w.ring.SlotSize)
}

// dropPendingFrom removes (and recycles) the pending entries numbered
// seq and up — the undo path when an enqueue fails. Pending is in
// sequence order, so they are its tail.
func (w *Writer) dropPendingFrom(seq uint64) {
	w.pendMu.Lock()
	for len(w.pending) > 0 && w.pending[len(w.pending)-1].seq >= seq {
		last := len(w.pending) - 1
		putBuf(w.pending[last].buf)
		w.pending[last] = pendingWrite{}
		w.pending = w.pending[:last]
	}
	w.pendMu.Unlock()
}

// ApplyPending overlays any staged-but-unflushed writes onto buf, which
// holds the bytes [addr, addr+len(buf)) as read from the server since
// the caller's Pin. It returns whether anything was overlaid. Pending
// records are applied in staging order, so the newest write to a byte
// wins.
func (w *Writer) ApplyPending(addr region.GAddr, buf []byte) bool {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	applied := false
	for _, p := range w.pending {
		if p.addr.Server() != addr.Server() {
			continue
		}
		pOff, rOff := p.addr.Offset(), addr.Offset()
		lo := max64(pOff, rOff)
		hi := min64(pOff+int64(len(p.data)), rOff+int64(len(buf)))
		if lo >= hi {
			continue
		}
		copy(buf[lo-rOff:hi-rOff], p.data[lo-pOff:hi-pOff])
		applied = true
	}
	return applied
}

// PendingCount returns the number of staged-but-unflushed records.
func (w *Writer) PendingCount() int {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	return len(w.pending)
}

// OccupancyHighWater returns the most ring slots ever simultaneously in
// use by this writer.
func (w *Writer) OccupancyHighWater() int64 { return w.occHW.Load() }

// FreeSlots reports how many staging-ring slots are currently
// uncommitted — an advisory, allocation-free backpressure probe for
// transports deciding whether a stage would park behind the flusher.
// The answer can be stale by the time a Stage runs; callers use it to
// choose a dispatch mode, not as a capacity guarantee.
func (w *Writer) FreeSlots() int {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	return w.free
}

// Ring returns the writer's ring descriptor.
func (w *Writer) Ring() Ring { return w.ring }

// Drain blocks until every write staged so far has been applied to NVM
// and returns the simulated instant the last one completed. It is the
// synchronization point lock release uses to publish a writer's updates.
func (w *Writer) Drain() simnet.Time {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	for len(w.pending) > 0 {
		w.cond.Wait()
	}
	return w.lastApplied
}

// Close stops the writer — further Stage calls fail with
// ErrEngineClosed — and waits out the writes already staged.
func (w *Writer) Close() {
	w.pendMu.Lock()
	w.closed = true
	for len(w.pending) > 0 {
		w.cond.Wait()
	}
	w.pendMu.Unlock()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
