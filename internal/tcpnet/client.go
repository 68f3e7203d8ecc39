package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gengar/internal/region"
	"gengar/internal/telemetry/span"
)

// DefaultLease is the lock lease clients request unless overridden.
const DefaultLease = 5 * time.Second

// Reconnect policy: a pool whose connection to a daemon died redials it
// on next use, a few times with doubling backoff, then reports the dial
// error. In-flight requests on the dead connection are failed, never
// silently retried — the pool cannot know whether a write or lock
// landed before the cut.
const (
	redialTries   = 3
	redialBackoff = 50 * time.Millisecond
)

// ServerStats is a daemon's activity snapshot.
type ServerStats struct {
	ServerID  uint16
	Objects   int64
	PoolUsed  int64
	Ops       int64
	PoolBytes int64

	// Engine-level mechanism counters.
	CacheHits   int64 // mediated reads served from the DRAM cache
	CacheMisses int64 // mediated reads served from the pool
	Staged      int64 // writes acknowledged from the staging ring
	Flushed     int64 // staged writes landed in the pool
	Promotions  int64
	Demotions   int64
	Promoted    int64 // objects with a live DRAM copy now
	Digests     int64
	RemapEpoch  uint64

	// Distributed DRAM cache counters: the peer half of the hit split,
	// copies this daemon hosts for its peers, and copies it spilled out.
	PeerHits     int64 // reads served through a peer's arena
	PeerErrors   int64 // peer copy-I/O failures (demoted, never surfaced)
	HostedCopies int64 // peer copies resident in this daemon's arena
	HostedBytes  int64 // arena bytes those hosted copies occupy
	SpilledBytes int64 // bytes this daemon has spilled onto its peers
	PeersLive    int64 // peer links currently connected
}

// PoolConfig shapes a client pool beyond its server addresses.
type PoolConfig struct {
	// Addrs are the daemon dial addresses; required.
	Addrs []string
	// Timeout bounds each dial (and redial) attempt.
	Timeout time.Duration
	// Lease is the lock lease requested by this client; 0 selects
	// DefaultLease.
	Lease time.Duration
	// TraceSample opens a client span (and propagates its trace ID to
	// the daemon) on one in every N data operations; 0 disables
	// tracing entirely — the zero-allocation default.
	TraceSample int
	// TraceSlow gates the client tracer's slow-op ring: sampled spans
	// at least this slow are retained. 0 retains every sampled span.
	TraceSlow time.Duration
}

func (c *PoolConfig) fill() error {
	if len(c.Addrs) == 0 {
		return fmt.Errorf("tcpnet: no server addresses")
	}
	if c.Lease == 0 {
		c.Lease = DefaultLease
	}
	return nil
}

// Pool is a client of a set of gengard daemons: one TCP connection per
// server, requests pipelined and demultiplexed by ID. Every op is
// written by its caller — a ReadMulti or WriteMulti as one frame per
// home server — and concurrent callers coalesce behind whichever of
// them is writing. It is safe for concurrent use. A connection that
// dies is redialed transparently on the next operation that needs it.
type Pool struct {
	cfg PoolConfig

	// frames backs every request frame this client encodes and every
	// response frame its demux loops read.
	frames framePool

	// tracer samples per-op spans; nil unless PoolConfig.TraceSample
	// is set, so the untraced pool pays only nil checks.
	tracer *span.Tracer

	mu     sync.Mutex
	conns  map[uint16]*serverConn
	order  []uint16
	rr     int
	closed bool
	lease  atomic.Int64 // time.Duration requested for lock leases

	// redialMu serializes reconnection attempts so a burst of failing
	// operations dials each dead server once, not once per caller.
	redialMu sync.Mutex
}

// serverConn is one pipelined connection to a daemon.
type serverConn struct {
	addr       string // dial address, kept for reconnection
	serverID   uint16
	poolBytes  int64
	features   uint8
	cacheBytes int64 // peer-hosting arena capacity; 0 unless featurePeerCache

	c      net.Conn
	q      *frameQueue // send side: coalesces pipelined frames per writev
	frames *framePool

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	closed  atomic.Bool // failed; written under mu, which start relies on
	done    chan struct{}
}

// response is one demuxed reply. frame owns the pooled storage backing
// payload; the receiver recycles it once the payload is decoded.
type response struct {
	frame   *[]byte
	payload []byte
	err     error
}

// waiters pools the single-use response channels handed to callers —
// each completes exactly one send/receive, so it is clean for reuse.
var waiters = sync.Pool{New: func() any { return make(chan response, 1) }}

// dialServer opens and handshakes one connection.
func dialServer(addr string, cfg *PoolConfig, frames *framePool) (*serverConn, error) {
	nc, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
	}
	tuneConn(nc)
	sc := &serverConn{
		addr:    addr,
		c:       nc,
		q:       newFrameQueue(nc, frames),
		frames:  frames,
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go sc.demux()
	var w payloadWriter
	f := frames.newFrame(&w, 0)
	resp, err := sc.roundTrip(f, &w, OpHello, nil)
	if err != nil {
		sc.close()
		return nil, fmt.Errorf("tcpnet: hello %s: %w", addr, err)
	}
	r := newPayloadReader(resp.payload)
	sc.serverID = r.U16()
	sc.poolBytes = r.I64()
	sc.features = r.U8()
	if sc.features&featurePeerCache != 0 {
		sc.cacheBytes = r.I64()
	}
	err = r.Err()
	sc.release(resp)
	if err != nil {
		sc.close()
		return nil, err
	}
	return sc, nil
}

// Dial connects to every daemon address, performs the hello handshake
// and returns a pool client. All servers must report distinct IDs.
func Dial(addrs []string, timeout time.Duration) (*Pool, error) {
	return DialConfig(PoolConfig{Addrs: addrs, Timeout: timeout})
}

// DialConfig is Dial with the full knob set.
func DialConfig(cfg PoolConfig) (*Pool, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, conns: make(map[uint16]*serverConn)}
	p.lease.Store(int64(cfg.Lease))
	if cfg.TraceSample > 0 {
		p.tracer = span.NewTracer(span.Config{
			Side:          "client",
			SampleEvery:   cfg.TraceSample,
			SlowThreshold: cfg.TraceSlow,
		})
	}
	for _, a := range cfg.Addrs {
		sc, err := dialServer(a, &p.cfg, &p.frames)
		if err != nil {
			p.Close()
			return nil, err
		}
		if _, dup := p.conns[sc.serverID]; dup {
			sc.close()
			p.Close()
			return nil, fmt.Errorf("tcpnet: duplicate server ID %d at %s", sc.serverID, a)
		}
		p.conns[sc.serverID] = sc
		p.order = append(p.order, sc.serverID)
	}
	return p, nil
}

// SetLease overrides the lock lease requested by this client.
func (p *Pool) SetLease(d time.Duration) {
	if d > 0 {
		p.lease.Store(int64(d))
	}
}

// Tracer returns the pool's span tracer (nil unless TraceSample was
// set): per-stage latency digests and the slow-op ring for the client
// half of every stitched span.
func (p *Pool) Tracer() *span.Tracer { return p.tracer }

// traceStart opens a client span for one op against sc, or returns nil
// when tracing is off, the op lost the sampling draw, or the server
// predates the trace extension — negotiation means a peer that never
// advertised featureTrace is never sent an extended frame.
//
//gengar:hotpath
func (p *Pool) traceStart(sc *serverConn, op Op) *span.Span {
	if p.tracer == nil || sc.features&featureTrace == 0 {
		return nil
	}
	return p.tracer.Start(op.String())
}

// traceFor gates an already-open span per connection: a multi-op chain
// spanning servers must not leak extended frames to one that did not
// negotiate the extension.
//
//gengar:hotpath
func traceFor(sc *serverConn, sp *span.Span) *span.Span {
	if sp == nil || sc.features&featureTrace != 0 {
		return sp
	}
	return nil
}

// opFrame reserves a request frame: a plain one on the untraced path,
// one carrying the span's trace extension otherwise. The sp passed here
// must be the sp passed to start, which sets the matching tag bit.
//
//gengar:hotpath
func (p *Pool) opFrame(sp *span.Span, w *payloadWriter, hint int) *[]byte {
	if sp == nil {
		return p.frames.newFrame(w, hint)
	}
	return p.frames.newTracedFrame(w, hint, sp.TraceID())
}

// demux reads response frames into pooled buffers and delivers each to
// its waiter, which owns (and recycles) the buffer from then on.
//
//gengar:hotpath
func (sc *serverConn) demux() {
	defer close(sc.done)
	r := newFrameReader(sc.c, sc.frames)
	for {
		id, status, frame, payload, _, err := r.read()
		if err != nil {
			sc.failAll(err)
			return
		}
		sc.mu.Lock()
		ch := sc.pending[id]
		delete(sc.pending, id)
		sc.mu.Unlock()
		if ch == nil {
			sc.frames.put(frame)
			continue
		}
		if status == statusOK {
			ch <- response{frame: frame, payload: payload}
		} else {
			ch <- response{err: &RemoteError{Msg: string(payload)}}
			sc.frames.put(frame)
		}
	}
}

func (sc *serverConn) failAll(err error) {
	sc.mu.Lock()
	sc.closed.Store(true)
	failed := make([]chan response, 0, len(sc.pending))
	for id, ch := range sc.pending {
		delete(sc.pending, id)
		failed = append(failed, ch)
	}
	sc.mu.Unlock()
	// Deliver failures outside sc.mu: the channels are buffered today, but
	// waking callers must never depend on that while the demux lock is held.
	for _, ch := range failed {
		ch <- response{err: fmt.Errorf("tcpnet: connection lost: %w", err)}
	}
}

// dead reports whether the connection has failed and needs redialing.
func (sc *serverConn) dead() bool { return sc.closed.Load() }

// start registers a waiter and enqueues a request frame whose payload
// was encoded in place over f via w — which writes it, unless another
// caller is mid-write and takes it along. The returned channel receives
// exactly one response; pass it to wait. A non-nil sp means f was
// reserved via opFrame with the trace extension in place; start sets
// the matching tag bit and marks the span's encode stage (the write
// itself counts as netWait).
//
//gengar:hotpath
func (sc *serverConn) start(f *[]byte, w *payloadWriter, op Op, sp *span.Span) (chan response, error) {
	ch := waiters.Get().(chan response)
	sc.mu.Lock()
	if sc.closed.Load() {
		sc.mu.Unlock()
		waiters.Put(ch)
		sc.frames.put(f)
		return nil, ErrClosed
	}
	sc.nextID++
	id := sc.nextID
	sc.pending[id] = ch
	sc.mu.Unlock()

	tag := uint8(op)
	if sp != nil {
		tag |= tagTraced
	}
	if err := encodeFrameInto(f, w, id, tag); err != nil {
		sc.abort(id, ch)
		sc.frames.put(f)
		return nil, err
	}
	sp.Mark(span.StageEncode)
	if err := sc.q.enqueue(f, nil); err != nil {
		sc.abort(id, ch)
		return nil, fmt.Errorf("tcpnet: send: %w", err)
	}
	return ch, nil
}

// unregister removes a pending waiter and reports whether it was still
// registered. A false return means demux or failAll claimed the id
// first and has sent (or will send) exactly one response into the
// waiter channel.
func (sc *serverConn) unregister(id uint64) bool {
	sc.mu.Lock()
	_, ok := sc.pending[id]
	delete(sc.pending, id)
	sc.mu.Unlock()
	return ok
}

// abort retires the waiter of a request that failed before reaching the
// wire. If a concurrent demux or failAll claimed the id in the window
// between registration and the failure, the channel's one guaranteed
// response is drained (recycling any frame it carries) before the
// channel returns to the pool — re-pooling it buffered would hand a
// stale response, or another request's payload, to a future caller.
func (sc *serverConn) abort(id uint64, ch chan response) {
	if !sc.unregister(id) {
		sc.release(<-ch)
	}
	waiters.Put(ch)
}

// wait receives the response started on ch. The caller must release
// the returned response once decoded.
//
//gengar:hotpath
func (sc *serverConn) wait(ch chan response, op Op, sp *span.Span) (response, error) {
	resp := <-ch
	waiters.Put(ch)
	sp.Mark(span.StageNetWait)
	if resp.err != nil {
		if re, ok := resp.err.(*RemoteError); ok {
			re.Op = op
		}
		return response{}, resp.err
	}
	return resp, nil
}

// release recycles a response's pooled frame once its payload is dead.
//
//gengar:hotpath
func (sc *serverConn) release(resp response) {
	if resp.frame != nil {
		sc.frames.put(resp.frame)
	}
}

// roundTrip issues one request and waits for its response.
//
//gengar:hotpath
func (sc *serverConn) roundTrip(f *[]byte, w *payloadWriter, op Op, sp *span.Span) (response, error) {
	ch, err := sc.start(f, w, op, sp)
	if err != nil {
		return response{}, err
	}
	return sc.wait(ch, op, sp)
}

// call issues one request and waits, discarding any response payload —
// for ops whose reply is empty (write, free, locks).
//
//gengar:hotpath
func (sc *serverConn) call(f *[]byte, w *payloadWriter, op Op, sp *span.Span) error {
	resp, err := sc.roundTrip(f, w, op, sp)
	if err != nil {
		return err
	}
	sc.release(resp)
	return nil
}

func (sc *serverConn) close() {
	_ = sc.c.Close()
	<-sc.done
	sc.q.close()
}

// connByID returns a live connection to the given server (one p.mu
// section and one atomic load), redialing a dead one. Unknown server IDs
// are an error.
func (p *Pool) connByID(id uint16) (*serverConn, error) {
	p.mu.Lock()
	sc, closed := p.conns[id], p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if sc == nil {
		return nil, fmt.Errorf("tcpnet: no connection to server %d", id)
	}
	if !sc.dead() {
		return sc, nil
	}
	return p.redial(id, sc.addr)
}

// redial replaces a dead connection to server id, retrying with
// backoff. Concurrent callers coalesce on redialMu: whoever enters
// first dials; the rest find the fresh connection installed.
func (p *Pool) redial(id uint16, addr string) (*serverConn, error) {
	//gengar:lint-ignore lock-across-blocking redialMu intentionally serializes the blocking dial+backoff loop so one failure burst dials each dead server once
	p.redialMu.Lock()
	defer p.redialMu.Unlock()

	// Someone else may have reconnected while we waited.
	p.mu.Lock()
	sc := p.conns[id]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if sc != nil && !sc.dead() {
		return sc, nil
	}

	var lastErr error
	backoff := redialBackoff
	for try := 0; try < redialTries; try++ {
		if try > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		fresh, err := dialServer(addr, &p.cfg, &p.frames)
		if err != nil {
			lastErr = err
			continue
		}
		if fresh.serverID != id {
			fresh.close()
			return nil, fmt.Errorf("tcpnet: %s now reports server ID %d, want %d", addr, fresh.serverID, id)
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			fresh.close()
			return nil, ErrClosed
		}
		p.conns[id] = fresh
		p.mu.Unlock()
		return fresh, nil
	}
	return nil, fmt.Errorf("tcpnet: reconnect to server %d (%s) failed after %d tries: %w",
		id, addr, redialTries, lastErr)
}

// Malloc allocates size bytes, choosing home servers round-robin.
func (p *Pool) Malloc(size int64) (region.GAddr, error) {
	p.mu.Lock()
	if len(p.order) == 0 {
		p.mu.Unlock()
		return region.NilGAddr, ErrClosed
	}
	id := p.order[p.rr%len(p.order)]
	p.rr++
	p.mu.Unlock()

	sc, err := p.connByID(id)
	if err != nil {
		return region.NilGAddr, err
	}
	var w payloadWriter
	f := p.frames.newFrame(&w, 8)
	w.I64(size)
	resp, err := sc.roundTrip(f, &w, OpMalloc, nil)
	if err != nil {
		return region.NilGAddr, err
	}
	var r payloadReader
	r.Reset(resp.payload)
	addr := region.GAddr(r.U64())
	err = r.Err()
	sc.release(resp)
	return addr, err
}

// Free releases an object.
func (p *Pool) Free(addr region.GAddr) error {
	return p.addrOp(OpFree, addr)
}

// Read fills buf from global memory at addr.
//
//gengar:hotpath
func (p *Pool) Read(addr region.GAddr, buf []byte) error {
	_, err := p.ReadCheck(addr, buf)
	return err
}

// ReadCheck fills buf from global memory at addr and reports whether
// the daemon served it from the DRAM cache (a promoted hot object) —
// its own arena or, for a copy it spilled, a peer daemon's.
//
//gengar:hotpath
func (p *Pool) ReadCheck(addr region.GAddr, buf []byte) (hit bool, err error) {
	sc, err := p.connByID(addr.Server())
	if err != nil {
		return false, err
	}
	sp := p.traceStart(sc, OpRead)
	var w payloadWriter
	f := p.opFrame(sp, &w, 12)
	w.U64(uint64(addr)).U32(uint32(len(buf)))
	resp, err := sc.roundTrip(f, &w, OpRead, sp)
	if err != nil {
		sp.Finish()
		return false, err
	}
	hit, err = decodeReadInto(sc, resp, buf)
	sp.Mark(span.StageDecode)
	sp.Finish()
	return hit, err
}

// decodeReadInto copies an OpRead reply into the caller's buffer and
// recycles the response frame.
//
//gengar:hotpath
func decodeReadInto(sc *serverConn, resp response, buf []byte) (hit bool, err error) {
	var r payloadReader
	r.Reset(resp.payload)
	data := r.Blob()
	// The source byte is engine.ReadSource: 0 NVM miss, nonzero a DRAM
	// cache hit (1 the daemon's own arena, 2 proxied through a peer's).
	hit = r.U8() != 0
	if err := r.Err(); err != nil {
		sc.release(resp)
		return false, err
	}
	if len(data) != len(buf) {
		sc.release(resp)
		return false, fmt.Errorf("tcpnet: short read: %d of %d bytes", len(data), len(buf))
	}
	copy(buf, data)
	sc.release(resp)
	return hit, nil
}

// Write stores data at addr.
//
//gengar:hotpath
func (p *Pool) Write(addr region.GAddr, data []byte) error {
	sc, err := p.connByID(addr.Server())
	if err != nil {
		return err
	}
	sp := p.traceStart(sc, OpWrite)
	var w payloadWriter
	f := p.opFrame(sp, &w, 8+4+len(data))
	w.U64(uint64(addr)).Blob(data)
	err = sc.call(f, &w, OpWrite, sp)
	sp.Finish()
	return err
}

// WriteReq is one record of a batched write.
type WriteReq struct {
	Addr region.GAddr
	Data []byte
}

// ReadReq is one record of a batched read: Buf gives both the length
// requested and where the bytes land.
type ReadReq struct {
	Addr region.GAddr
	Buf  []byte
}

// batchRecord is a record of a batched call: the server it is homed on,
// and its encoding onto a request frame.
type batchRecord interface {
	home() uint16
	wireBytes() int
	encode(w payloadWriter) payloadWriter
}

func (r ReadReq) home() uint16  { return r.Addr.Server() }
func (r WriteReq) home() uint16 { return r.Addr.Server() }

func (r ReadReq) wireBytes() int  { return readRecordMin }
func (r WriteReq) wireBytes() int { return writeRecordMin + len(r.Data) }

// encode appends the record to w, taken and returned by value so the
// writer never escapes through the generic call.
func (r ReadReq) encode(w payloadWriter) payloadWriter {
	w.U64(uint64(r.Addr)).U32(uint32(len(r.Buf)))
	return w
}

func (r WriteReq) encode(w payloadWriter) payloadWriter {
	w.U64(uint64(r.Addr)).Blob(r.Data)
	return w
}

// batchCall is one home server's share of a batched call: its records
// are the call's records homed there, in request order.
type batchCall struct {
	home  uint16
	n     int // records
	bytes int // request payload bytes
	sc    *serverConn
	ch    chan response // set once the frame is started
}

// stackHomes is how many home servers a batched call groups on the
// stack; one spanning more grows onto the heap. A batch touches few.
const stackHomes = 4

// groupByHome appends one batchCall per home server of reqs to calls, in
// first-seen order, with its record count and payload size — a scan
// over the homes seen so far in place of a map.
func groupByHome[R batchRecord](reqs []R, calls []batchCall) []batchCall {
next:
	for i := range reqs {
		home, bytes := reqs[i].home(), reqs[i].wireBytes()
		for c := range calls {
			if calls[c].home == home {
				calls[c].n++
				calls[c].bytes += bytes
				continue next
			}
		}
		calls = append(calls, batchCall{home: home, n: 1, bytes: 4 + bytes})
	}
	return calls
}

// callBatch issues one op frame per home server, carrying that home's
// records of reqs in request order — the wire analogue of the RDMA
// client's doorbell-batched chains — and hands each reply to settle.
// Every home's frame is started before any is waited on, so the round
// trips overlap across daemons. The first failure is reported after
// every started frame has settled.
//
//gengar:hotpath
func callBatch[R batchRecord](p *Pool, op Op, reqs []R, settle func(*serverConn, response, uint16, []R) error) error {
	var stack [stackHomes]batchCall
	calls := groupByHome(reqs, stack[:0])
	var sp *span.Span
	var firstErr error
	started := 0
	for c := range calls {
		call := &calls[c]
		sc, err := p.connByID(call.home)
		if err != nil {
			firstErr = err
			break
		}
		if c == 0 {
			sp = p.traceStart(sc, op)
		}
		fsp := traceFor(sc, sp)
		var w payloadWriter
		f := p.opFrame(fsp, &w, call.bytes)
		w.U32(uint32(call.n))
		for i := range reqs {
			if reqs[i].home() == call.home {
				w = reqs[i].encode(w)
			}
		}
		if call.ch, err = sc.start(f, &w, op, fsp); err != nil {
			firstErr = err
			break
		}
		call.sc = sc
		started++
	}
	for _, call := range calls[:started] {
		resp, err := call.sc.wait(call.ch, op, traceFor(call.sc, sp))
		if err == nil {
			err = settle(call.sc, resp, call.home, reqs)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sp.Mark(span.StageDecode)
	sp.Finish()
	return firstErr
}

// ReadMulti fills every request's Buf, one OpReadBatch frame per home
// server. A record the daemon fails — a bad address, say — fails alone:
// the others still fill, and the call reports the first failure.
func (p *Pool) ReadMulti(reqs []ReadReq) error {
	return callBatch(p, OpReadBatch, reqs, decodeReadBatch)
}

// decodeReadBatch copies an OpReadBatch reply into the Bufs of reqs'
// records homed at home, in request order, and recycles the frame. A
// record the daemon failed leaves its Buf untouched; the first failure
// is returned once every record is decoded.
//
//gengar:hotpath
func decodeReadBatch(sc *serverConn, resp response, home uint16, reqs []ReadReq) error {
	var r payloadReader
	r.Reset(resp.payload)
	var firstErr error
	for i := range reqs {
		if reqs[i].home() != home {
			continue
		}
		var err error
		if r.U8() == statusOK {
			data := r.Blob()
			r.U8() // the source byte: ReadMulti reports no hits
			if n := len(reqs[i].Buf); len(data) == n {
				copy(reqs[i].Buf, data)
			} else {
				err = fmt.Errorf("tcpnet: short read: %d of %d bytes", len(data), n)
			}
		} else {
			err = &RemoteError{Op: OpReadBatch, Msg: r.Str()}
		}
		if r.Err() != nil {
			firstErr = r.Err()
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	sc.release(resp)
	return firstErr
}

// WriteMulti stores a batch of records, one OpWriteBatch frame per home
// server. Records to the same server land in request order.
func (p *Pool) WriteMulti(reqs []WriteReq) error {
	return callBatch(p, OpWriteBatch, reqs, releaseBatch)
}

// releaseBatch settles an OpWriteBatch reply, which carries nothing.
func releaseBatch(sc *serverConn, resp response, _ uint16, _ []WriteReq) error {
	sc.release(resp)
	return nil
}

// Version returns the version word covering addr — bumped on every
// exclusive-lock release, so readers can detect concurrent updates.
func (p *Pool) Version(addr region.GAddr) (uint64, error) {
	sc, err := p.connByID(addr.Server())
	if err != nil {
		return 0, err
	}
	var w payloadWriter
	f := p.frames.newFrame(&w, 8)
	w.U64(uint64(addr))
	resp, err := sc.roundTrip(f, &w, OpVersion, nil)
	if err != nil {
		return 0, err
	}
	var r payloadReader
	r.Reset(resp.payload)
	v := r.U64()
	err = r.Err()
	sc.release(resp)
	return v, err
}

// LockExclusive takes the write lock covering addr with the pool's
// lease.
func (p *Pool) LockExclusive(addr region.GAddr) error { return p.lockOp(OpLockEx, addr) }

// UnlockExclusive releases the write lock covering addr.
func (p *Pool) UnlockExclusive(addr region.GAddr) error { return p.addrOp(OpUnlockEx, addr) }

// LockShared takes a read lock covering addr with the pool's lease.
func (p *Pool) LockShared(addr region.GAddr) error { return p.lockOp(OpLockSh, addr) }

// UnlockShared releases a read lock covering addr.
func (p *Pool) UnlockShared(addr region.GAddr) error { return p.addrOp(OpUnlockSh, addr) }

func (p *Pool) lockOp(op Op, addr region.GAddr) error {
	sc, err := p.connByID(addr.Server())
	if err != nil {
		return err
	}
	sp := p.traceStart(sc, op)
	var w payloadWriter
	f := p.opFrame(sp, &w, 12)
	w.U64(uint64(addr)).U32(uint32(time.Duration(p.lease.Load()) / time.Millisecond))
	err = sc.call(f, &w, op, sp)
	sp.Finish()
	return err
}

func (p *Pool) addrOp(op Op, addr region.GAddr) error {
	sc, err := p.connByID(addr.Server())
	if err != nil {
		return err
	}
	var w payloadWriter
	f := p.frames.newFrame(&w, 8)
	w.U64(uint64(addr))
	return sc.call(f, &w, op, nil)
}

// Stats fetches every server's snapshot, in dial order.
func (p *Pool) Stats() ([]ServerStats, error) {
	p.mu.Lock()
	order := append([]uint16(nil), p.order...)
	p.mu.Unlock()
	out := make([]ServerStats, 0, len(order))
	for _, id := range order {
		sc, err := p.connByID(id)
		if err != nil {
			return nil, err
		}
		var w payloadWriter
		f := p.frames.newFrame(&w, 0)
		resp, err := sc.roundTrip(f, &w, OpStats, nil)
		if err != nil {
			return nil, err
		}
		var r payloadReader
		r.Reset(resp.payload)
		st := ServerStats{
			ServerID:    id,
			Objects:     r.I64(),
			PoolUsed:    r.I64(),
			Ops:         r.I64(),
			CacheHits:   r.I64(),
			CacheMisses: r.I64(),
			Staged:      r.I64(),
			Flushed:     r.I64(),
			Promotions:  r.I64(),
			Demotions:   r.I64(),
			Promoted:    r.I64(),
			Digests:     r.I64(),
			RemapEpoch:  r.U64(),
			PoolBytes:   sc.poolBytes,
		}
		st.PeerHits = r.I64()
		st.PeerErrors = r.I64()
		st.HostedCopies = r.I64()
		st.HostedBytes = r.I64()
		st.SpilledBytes = r.I64()
		st.PeersLive = r.I64()
		err = r.Err()
		sc.release(resp)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// WireStats reports the client's frame-pool recycling counters — how
// many request/response buffers were served from the pool versus
// freshly allocated.
func (p *Pool) WireStats() (poolHits, poolMisses int64) {
	return p.frames.hits.Load(), p.frames.misses.Load()
}

// Close tears down every connection.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]*serverConn, 0, len(p.conns))
	for _, sc := range p.conns {
		conns = append(conns, sc)
	}
	p.conns = make(map[uint16]*serverConn)
	p.order = nil
	p.mu.Unlock()
	for _, sc := range conns {
		sc.close()
	}
}
