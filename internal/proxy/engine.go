// Package proxy implements Gengar's redesigned RDMA write path. A direct
// RDMA WRITE to remote NVM pays the NVM media latency plus a persistence
// round trip, and under load saturates at the NVM's low write bandwidth.
// Gengar instead has clients RDMA-WRITE each update into a per-client
// DRAM staging ring at the server — acknowledged at DRAM speed — while
// server-side proxy workers apply staged records to NVM in FIFO order
// off the critical path, updating any promoted DRAM copy as they go.
//
// The split is: Engine (server side: rings live in server DRAM, a pool
// of flush workers drains them to NVM) and Writer (client side: stages
// writes, counts free ring slots for backpressure, buffers pending
// updates so the client observes its own writes before they flush).
//
// Flushing is batched. Each worker drains its queue into a batch and
// coalesces records targeting adjacent or overlapping NVM ranges into
// single large writes (coalesce.go).
package proxy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gengar/internal/hmem"
	"gengar/internal/metrics"
	"gengar/internal/region"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"
)

// ErrEngineClosed is returned when staging to a stopped engine.
var ErrEngineClosed = errors.New("proxy: engine closed")

// slotHeaderBytes is the per-record header written into a ring slot:
// target global address (8) + payload length (4).
const slotHeaderBytes = 12

// pollCost is the server CPU cost of discovering and dispatching one
// staged record (the polling loop's per-record share).
const pollCost = 200 * time.Nanosecond

// flushWorkers is the number of proxy threads per server. Records are
// sharded by ring, so each client's writes keep their FIFO order while
// the server drains many clients in parallel — both for fidelity (real
// proxies run several polling threads) and so the simulation's wall-
// clock flush rate keeps up with its producers.
const flushWorkers = 4

// CacheApply is the hook the server installs so flushed data is written
// through to a promoted object's DRAM copy. It receives the flush
// completion instant and the write's target range, and returns the
// instant the copy is updated (at, if the object is not promoted).
type CacheApply func(at simnet.Time, addr region.GAddr, data []byte) simnet.Time

// record is one staged write traveling from a Writer to the Engine.
type record struct {
	// w staged the record. The flush worker calls it twice: returnSlots
	// once the payload has left the ring, applied once it is in NVM.
	w        *Writer
	seq      uint64
	addr     region.GAddr // target global address of the write
	nvmOff   int64        // target offset in the NVM device
	ringOff  int64        // payload location in the ring (past header)
	size     int
	stagedAt simnet.Time
}

// workItem is what a worker channel carries: a staged record, or (task
// non-nil) an exclusive task from Submit or Barrier. A concrete element
// type, so neither send boxes its value on the heap.
type workItem struct {
	rec  record
	task func()
}

// EngineStats is a snapshot of flusher activity.
type EngineStats struct {
	Staged         int64
	Flushed        int64           // staged records applied to NVM
	FlushLag       metrics.Summary // staged->applied simulated delay
	BytesFlushed   int64           // bytes written to NVM, after coalescing
	NVMWrites      int64           // coalesced NVM device writes
	Coalesced      int64           // records merged into another record's NVM write
	Barriers       int64           // drain barriers executed
	QueueHighWater int64           // deepest flusher queue observed
	// BackoffLevel and GateWaits are retired: the mechanism they reported
	// is gone, nothing writes them and they read 0. Kept only because
	// benchmark/ still reads them; they leave with its next change.
	BackoffLevel int64
	GateWaits    int64
}

// Config configures an Engine.
type Config struct {
	// RingDev is the DRAM device holding the staging rings.
	RingDev *hmem.Device
	// NVM is the server's NVM pool the flushers drain into.
	NVM *hmem.Device
	// CPU is the server CPU resource charged the per-record poll and
	// copy-out cost.
	CPU *simnet.Resource
	// CacheApply writes flushed data through to promoted DRAM copies.
	// May be nil.
	CacheApply CacheApply
}

// Engine is one server's proxy flusher pool: it drains staged records
// from all of the server's rings to the NVM pool, in FIFO order per
// ring.
type Engine struct {
	ringDev    *hmem.Device // server DRAM holding the rings
	nvm        *hmem.Device // server NVM pool
	cpu        *simnet.Resource
	cacheApply CacheApply

	workers []chan workItem // one queue per worker
	wg      sync.WaitGroup
	once    sync.Once

	mu     sync.Mutex
	closed bool
	// inflight counts senders that passed the closed check but have not
	// finished their worker-channel send yet; Close waits for it before
	// closing the channels, so sends never race the close. It also lets
	// enqueue/Submit/Barrier send outside e.mu: a full worker queue then
	// stalls only the one producer, not everyone touching the engine.
	inflight sync.WaitGroup
	//gengar:lint-ignore lock-across-blocking Submit's quiesce holds taskMu across worker handshakes by design: it serializes exclusive tasks, and concurrent Submits must wait for the whole quiesce anyway
	taskMu sync.Mutex // serializes quiescent tasks
	// Submit's quiesce, made once and reused under taskMu: park is the
	// task every worker runs, parked counts the workers that reached it,
	// and resume (unbuffered) lets them go one send each.
	park   func()
	parked sync.WaitGroup
	resume chan struct{}

	staged    metrics.Counter
	flushed   metrics.Counter
	bytes     metrics.Counter // bytes written to NVM, after coalescing
	nvmWrites metrics.Counter // coalesced NVM device writes
	coalesced metrics.Counter // records merged into another record's write
	barriers  metrics.Counter
	queueHW   metrics.Gauge // flusher-queue depth high-water mark
	flushLag  metrics.Histogram

	// flushObserver, when set, receives each flushed record's staged-to-
	// applied lag in nanoseconds. It runs on the flush worker, so it must
	// be cheap and never block.
	flushObserver atomic.Value // of func(lagNanos int64)
}

// NewEngine starts the flush workers draining records into cfg.NVM.
// Call Close to stop the workers.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.RingDev == nil || cfg.NVM == nil || cfg.CPU == nil {
		return nil, errors.New("proxy: nil device or cpu")
	}
	if cfg.RingDev.Kind() != hmem.KindDRAM {
		return nil, fmt.Errorf("proxy: staging rings must live in DRAM, got %v", cfg.RingDev.Kind())
	}
	e := &Engine{
		ringDev:    cfg.RingDev,
		nvm:        cfg.NVM,
		cpu:        cfg.CPU,
		cacheApply: cfg.CacheApply,
		workers:    make([]chan workItem, flushWorkers),
		resume:     make(chan struct{}),
	}
	e.park = func() {
		e.parked.Done()
		<-e.resume
	}
	for i := range e.workers {
		// Shallow queues keep the flush workers tightly coupled to their
		// producers in wall-clock time: a worker that falls far behind
		// would otherwise process records whose virtual timestamps lie
		// deep in the past, retroactively perturbing shared resource
		// timelines that concurrent clients have already moved past.
		ch := make(chan workItem, 8)
		e.workers[i] = ch
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.workerLoop(ch)
		}()
	}
	return e, nil
}

func (e *Engine) workerLoop(ch chan workItem) {
	b := &flushBatch{}
	for item := range ch {
		if item.task != nil {
			item.task()
			continue
		}
		b.reset()
		b.add(item.rec)
		pending := e.drainInto(b, ch)
		e.flushSweep(b)
		// An exclusive task encountered mid-drain runs only after the
		// batch it interrupted is fully applied: Submit's mutual
		// exclusion and Barrier's all-enqueued-before-the-call contract
		// both survive batching.
		if pending != nil {
			pending()
		}
	}
}

// drainInto opportunistically drains queued records into b, up to
// maxFlushBatch. It stops at an empty queue, a closed channel, or an
// exclusive task — which is returned, not run.
func (e *Engine) drainInto(b *flushBatch, ch chan workItem) func() {
	for len(b.recs) < maxFlushBatch {
		select {
		case item, ok := <-ch:
			if !ok {
				return nil
			}
			if item.task != nil {
				return item.task
			}
			b.add(item.rec)
		default:
			return nil
		}
	}
	return nil
}

// flushSweep applies one drained batch: copy every payload out of its
// ring (freeing the slot immediately), coalesce records into runs of
// adjacent/overlapping NVM ranges, persist each run with a single NVM
// write, write through to promoted DRAM copies, and tell each record's
// writer it is applied — in the exact order records were drained, so
// every writer's watermark still advances in FIFO order.
//
//gengar:hotpath
func (e *Engine) flushSweep(b *flushBatch) {
	// Phase 1 — copy-out. The poll loop's per-record CPU share plus the
	// copy itself, charged to the server CPU. (The copy is a local cached
	// load by the polling core; charging it to the ring DRAM's contended
	// timeline would stall clients' incoming stage DMAs behind the
	// flusher's batched catch-up reads.) A slot is reusable the moment
	// its payload has been copied out, well before the NVM apply
	// completes — real proxies free ring space the same way, which keeps
	// staging from stalling behind slow media. Releasing before the whole
	// batch persists is safe: slots are counted, not named, and copy-out
	// is FIFO per ring, so at most Slots records per ring are
	// staged-not-copied.
	for i := range b.recs {
		rec := &b.recs[i]
		copyCost := e.ringDev.Profile().ReadTime(rec.size)
		_, tRead := e.cpu.Acquire(rec.stagedAt, pollCost+copyCost)
		b.tRead = append(b.tRead, tRead)
		b.ackAt = append(b.ackAt, tRead)
		b.ok = append(b.ok, false)
		dst := b.payload(rec.size)
		err := e.ringDev.ReadRaw(rec.ringOff, dst)
		rec.w.returnSlots(1)
		if err != nil {
			// A ring-read failure is a wiring bug (offsets are engine-
			// controlled); the record is reported applied anyway in
			// phase 3 so clients never deadlock.
			b.off = append(b.off, -1)
			b.data = b.data[:len(b.data)-rec.size]
		} else {
			b.off = append(b.off, len(b.data)-rec.size)
		}
	}

	// Phase 2 — coalesce and persist.
	b.sortByNVMOff()
	for lo := 0; lo < len(b.idx); {
		if b.off[b.idx[lo]] < 0 {
			lo++ // ring read failed; acked at tRead in phase 3
			continue
		}
		hi, runOff, runEnd := b.runSpan(lo)
		b.assembleRun(lo, hi, runOff, runEnd)
		// The NVM write departs when its latest member finished copy-out.
		arrival := b.tRead[b.memb[0]]
		for _, ri := range b.memb[1:] {
			if b.tRead[ri] > arrival {
				arrival = b.tRead[ri]
			}
		}
		tApply, err := e.nvm.Write(arrival, runOff, b.run)
		if err != nil {
			lo = hi // members ack at tRead in phase 3
			continue
		}
		e.nvmWrites.Inc()
		e.bytes.Add(int64(len(b.run)))
		e.coalesced.Add(int64(hi - lo - 1))
		// Write through to promoted DRAM copies, member by member in
		// batch order (a later overwrite must land last there too).
		for _, ri := range b.memb {
			rec := &b.recs[ri]
			end := tApply
			if e.cacheApply != nil {
				if t := e.cacheApply(tApply, rec.addr, b.data[b.off[ri]:b.off[ri]+rec.size]); t > end {
					end = t
				}
			}
			b.ackAt[ri] = end
			b.ok[ri] = true
		}
		lo = hi
	}

	// Phase 3 — account and report, in batch order. A writer hears of
	// record N only after every run has persisted, so a watermark at N
	// means records 1..N are all in NVM regardless of how runs reordered
	// them. Writer.applied takes the writer's pendMu, a leaf lock; the
	// worker holds nothing here.
	for i := range b.recs {
		rec := &b.recs[i]
		if b.ok[i] {
			lag := b.ackAt[i].Sub(rec.stagedAt)
			e.flushed.Inc()
			e.flushLag.Record(lag)
			if fn, ok := e.flushObserver.Load().(func(int64)); ok {
				fn(int64(lag))
			}
		}
		rec.w.applied(rec.seq, b.ackAt[i])
	}
}

// SetFlushObserver installs a hook invoked on each flushed record with
// its staged-to-applied lag in nanoseconds. The op's trace span finishes
// at the acknowledgement, before the async NVM apply, so the tracer
// observes flushPersist through this hook instead of a span mark. Pass
// nil-safe functions only; the hook runs on flush workers.
func (e *Engine) SetFlushObserver(fn func(lagNanos int64)) {
	if fn != nil {
		e.flushObserver.Store(fn)
	}
}

// enqueue hands a staged record to its ring's worker, preserving the
// client's write order.
func (e *Engine) enqueue(rec record) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	e.staged.Inc()
	ch := e.workers[rec.w.ring.ID%len(e.workers)]
	e.queueHW.SetMax(int64(len(ch)) + 1)
	e.inflight.Add(1)
	e.mu.Unlock()
	// The send happens outside e.mu: a backed-up worker queue must stall
	// only this producer, never Close/Submit/Barrier or other rings.
	ch <- workItem{rec: rec}
	e.inflight.Done()
	return nil
}

// Submit quiesces every flush worker, runs task exclusively, and resumes
// them. Gengar servers run promotion/demotion plans this way, so a
// cache-copy install never races a concurrent write-through of the same
// object. Submit returns after the task has run. The quiesce itself
// allocates nothing: each worker runs the engine's bound park task,
// which checks in on parked and waits for one send on resume.
//
//gengar:hotpath
func (e *Engine) Submit(task func()) error {
	e.taskMu.Lock()
	defer e.taskMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	workers := e.workers
	e.inflight.Add(1)
	e.mu.Unlock()

	e.parked.Add(len(workers))
	for _, ch := range workers {
		ch <- workItem{task: e.park}
	}
	e.inflight.Done()
	e.parked.Wait()
	task()
	for range workers {
		e.resume <- struct{}{}
	}
	return nil
}

// Barrier blocks until every record enqueued before the call has been
// processed by its worker.
func (e *Engine) Barrier() error {
	e.barriers.Inc()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	workers := e.workers
	e.inflight.Add(1)
	e.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(len(workers))
	for _, ch := range workers {
		ch <- workItem{task: wg.Done}
	}
	e.inflight.Done()
	wg.Wait()
	return nil
}

// Stats returns a snapshot of flusher activity.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Staged:         e.staged.Load(),
		Flushed:        e.flushed.Load(),
		FlushLag:       e.flushLag.Summarize(),
		BytesFlushed:   e.bytes.Load(),
		NVMWrites:      e.nvmWrites.Load(),
		Coalesced:      e.coalesced.Load(),
		Barriers:       e.barriers.Load(),
		QueueHighWater: e.queueHW.Load(),
	}
}

// RegisterTelemetry exposes the engine's live flusher instruments in reg
// under the gengar_proxy_* names, tagged with the given labels (the
// owning server's identity).
func (e *Engine) RegisterTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterCounter("gengar_proxy_staged_total", "writes staged into rings", &e.staged, labels...)
	reg.RegisterCounter("gengar_proxy_flushed_total", "staged records applied to NVM", &e.flushed, labels...)
	reg.RegisterCounter("gengar_proxy_flushed_bytes_total", "bytes written to NVM after coalescing", &e.bytes, labels...)
	reg.RegisterCounter("gengar_proxy_nvm_writes_total", "coalesced NVM device writes", &e.nvmWrites, labels...)
	reg.RegisterCounter("gengar_proxy_coalesced_records_total", "records merged into another record's NVM write", &e.coalesced, labels...)
	reg.RegisterCounter("gengar_proxy_barriers_total", "drain barriers executed", &e.barriers, labels...)
	reg.RegisterGauge("gengar_proxy_queue_high_water", "deepest flusher queue observed", &e.queueHW, labels...)
	reg.RegisterHistogram("gengar_proxy_flush_lag_seconds", "staged-to-applied simulated delay", &e.flushLag, labels...)
	reg.GaugeFunc("gengar_proxy_inflight", "records staged but not yet flushed", func() int64 {
		return e.staged.Load() - e.flushed.Load()
	}, labels...)
}

// Close stops accepting records, drains the backlog and joins the
// workers. It is idempotent.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		// New producers now fail the closed check; wait out the ones
		// already past it before closing their target channels.
		e.inflight.Wait()
		for _, ch := range e.workers {
			close(ch)
		}
		e.wg.Wait()
	})
}
