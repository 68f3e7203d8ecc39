package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gengar/internal/alloc"
	"gengar/internal/config"
	"gengar/internal/engine"
	"gengar/internal/hotness"
	"gengar/internal/metrics"
	"gengar/internal/proxy"
	"gengar/internal/region"
	"gengar/internal/simnet"
	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

// ServerConfig shapes one gengard daemon.
type ServerConfig struct {
	// ID is this server's pool ID (the high bits of addresses it homes).
	ID uint16
	// PoolBytes is the exported memory capacity (power of two).
	PoolBytes int64
	// CacheBytes sizes the DRAM buffer arena holding promoted copies of
	// hot objects (power of two); 0 selects 8 MiB.
	CacheBytes int64
	// RingBytes sizes the staging-ring arena backing proxied writes;
	// 0 selects 8 MiB.
	RingBytes int64
	// DigestEvery is how many data accesses the daemon folds into one
	// server-side hotness digest; 0 selects 64.
	DigestEvery int
	// NoCache disables hotness tracking and DRAM cache promotion.
	NoCache bool
	// Peers are the dial addresses of the other gengard daemons in the
	// cluster. When set (and the cache is on), this daemon joins the
	// distributed DRAM cache: under local arena pressure it spills hot
	// copies into peers' arenas and proxies their hits back over the
	// peer links, and it hosts peers' copies in its own arena in turn.
	Peers []string
	// NoProxy disables staged writes (every write goes straight to the
	// pool).
	NoProxy bool
	// DefaultLease bounds how long a lock grant survives a silent
	// client: it is the lease of a request that names none, and the
	// longest one granted; 0 selects 5s.
	DefaultLease time.Duration
	// AcquireTimeout bounds how long a lock request waits; 0 selects 2s.
	AcquireTimeout time.Duration
	// TraceSample opens a server-initiated span on one in every N
	// requests that did not already carry a client trace ID; 0
	// disables local sampling. Client-sampled requests are always
	// traced regardless — the peer decided up front.
	TraceSample int
	// TraceSlow gates the slow-op ring served at /debug/trace: spans
	// at least this slow are retained. 0 retains every sampled span.
	TraceSlow time.Duration
}

func (c *ServerConfig) fill() error {
	if c.ID == 0 {
		return errors.New("tcpnet: server ID must be nonzero")
	}
	if c.PoolBytes < alloc.MinBlock || c.PoolBytes&(c.PoolBytes-1) != 0 {
		return fmt.Errorf("tcpnet: pool bytes %d not a power of two", c.PoolBytes)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 8 << 20
	}
	if c.RingBytes == 0 {
		c.RingBytes = 8 << 20
	}
	if c.DigestEvery < 0 {
		return fmt.Errorf("tcpnet: digest interval %d is negative", c.DigestEvery)
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = 64
	}
	if c.DefaultLease == 0 {
		c.DefaultLease = 5 * time.Second
	}
	if c.AcquireTimeout == 0 {
		c.AcquireTimeout = 2 * time.Second
	}
	return nil
}

// cluster maps the daemon configuration onto the engine's cluster
// configuration: one server, real feature switches, the daemon's digest
// interval, default media and the rest of the hotness tuning.
func (c *ServerConfig) cluster() config.Cluster {
	cc := config.Default()
	cc.Servers = 1
	cc.NVMBytes = c.PoolBytes
	cc.DRAMBufferBytes = c.CacheBytes
	cc.RingBytes = c.RingBytes
	cc.Features = config.Features{Cache: !c.NoCache, Proxy: !c.NoProxy}
	cc.Hotness.DigestEvery = c.DigestEvery
	return cc
}

// PoolServer is one gengard daemon: a Gengar engine mounted on TCP. It
// serves the paper's full mechanism set server-mediated — reads hit the
// DRAM cache when the object is promoted, writes are acknowledged from
// the staging ring before the asynchronous NVM-model flush, hotness
// epochs run over the daemon's own access observations, and locks are
// leased so crashed clients cannot wedge the pool.
type PoolServer struct {
	cfg ServerConfig
	eng *engine.Engine

	ops      metrics.Counter
	rxBytes  metrics.Counter // payload bytes written into the pool
	txBytes  metrics.Counter // payload bytes read out of the pool
	failures metrics.Counter // requests (and read-batch records) answered with an error
	parked   metrics.Counter // requests handed a goroutine of their own because they wait

	// frames backs every request and response buffer this daemon
	// touches; the flush histograms are wired into each connection's
	// frame queue.
	frames          framePool
	framesPerFlush  *metrics.Histogram
	bytesPerSyscall *metrics.Histogram

	// Per-op instruments resolved once at startup so the request path
	// never does a labeled registry lookup.
	opRequests [maxOpTag]*metrics.Counter
	opLatency  [maxOpTag]*metrics.Histogram

	telem  *telemetry.Registry
	tracer *span.Tracer

	// peers are this daemon's links into the distributed DRAM cache;
	// nil when no -peers were configured (or the cache is off).
	peers *peerSet

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	sessions atomic.Uint64
	wg       sync.WaitGroup
}

// maxOpTag bounds the per-op instrument caches; op bytes at or above it
// are unknown and rejected before any instrument is touched.
const maxOpTag = int(OpReadBatch) + 1

// NewPoolServer validates cfg and builds an idle daemon; call Serve.
func NewPoolServer(cfg ServerConfig) (*PoolServer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		ID:      cfg.ID,
		Name:    fmt.Sprintf("gengard-%d", cfg.ID),
		Cluster: cfg.cluster(),
		Clock:   engine.NewWallClock(),
	})
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	s := &PoolServer{
		cfg:   cfg,
		eng:   eng,
		conns: make(map[net.Conn]struct{}),
		telem: telemetry.NewRegistry(),
	}
	sl := telemetry.L("server", fmt.Sprintf("%d", cfg.ID))
	s.telem.RegisterCounter("gengar_tcp_ops_total", "wire requests served", &s.ops, sl)
	s.telem.RegisterCounter("gengar_tcp_rx_bytes_total", "payload bytes written into the pool", &s.rxBytes, sl)
	s.telem.RegisterCounter("gengar_tcp_tx_bytes_total", "payload bytes read out of the pool", &s.txBytes, sl)
	s.telem.RegisterCounter("gengar_tcp_failures_total", "requests and read-batch records answered with an error", &s.failures, sl)
	s.telem.RegisterCounter("gengar_tcp_parked_total", "requests handed a goroutine of their own because they wait", &s.parked, sl)
	s.telem.GaugeFunc("gengar_tcp_pool_capacity_bytes", "exported pool size", func() int64 {
		return s.cfg.PoolBytes
	}, sl)
	s.telem.GaugeFunc("gengar_tcp_sessions", "sessions opened since start", func() int64 {
		return int64(s.sessions.Load())
	}, sl)
	s.telem.GaugeFunc("gengar_tcp_open_conns", "currently open connections", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	}, sl)
	// Wire-path instruments: syscall coalescing and frame-pool recycling.
	s.framesPerFlush = s.telem.ValueHistogram("gengar_tcp_frames_per_flush",
		"response frames drained per writev flush", sl)
	s.bytesPerSyscall = s.telem.ValueHistogram("gengar_tcp_bytes_per_syscall",
		"bytes handed to the kernel per response writev", sl)
	s.telem.RegisterCounter("gengar_tcp_frame_pool_hits_total",
		"frame buffers served from the pool", &s.frames.hits, sl)
	s.telem.RegisterCounter("gengar_tcp_frame_pool_misses_total",
		"frame buffers freshly allocated on pool miss", &s.frames.misses, sl)
	// Per-op instruments, resolved once: the request path must not pay
	// a labeled lookup (and its label-sorting allocation) per frame.
	for tag := 1; tag < maxOpTag; tag++ {
		if Op(tag) == opRetired {
			continue
		}
		op := telemetry.L("op", Op(tag).String())
		s.opRequests[tag] = s.telem.Counter("gengar_tcp_requests_total",
			"wire requests by kind", sl, op)
		s.opLatency[tag] = s.telem.Histogram("gengar_tcp_request_latency_seconds",
			"wall-clock request handling latency by kind", sl, op)
	}
	// The engine's own counters (promotions, cache hits, proxy staging,
	// ...) under the same names the simulated mount uses, distinguished
	// by the transport label.
	eng.RegisterTelemetry(s.telem, sl, telemetry.L("transport", "tcp"))
	// Placement strategy: a lone daemon keeps promoted copies in its
	// local arena; with peers configured the daemon joins the
	// distributed DRAM cache and may spill copies into their arenas.
	// Peers are indexed by their position in cfg.Peers for telemetry —
	// the stable identity a link has before (and across) connects.
	if len(cfg.Peers) > 0 && !cfg.NoCache {
		s.peers = newPeerSet(cfg.Peers, cfg.ID, &s.frames)
		for i, l := range s.peers.links {
			l := l
			pl := telemetry.L("peer", strconv.Itoa(i))
			l.rtt = s.telem.Histogram("gengar_tcp_peer_rtt_seconds",
				"peer-link round-trip latency (placement and copy I/O)", sl, pl)
			s.telem.GaugeFunc("gengar_tcp_peer_spilled_bytes",
				"arena bytes this daemon's copies occupy on the peer", func() int64 {
					return l.spilled.Load()
				}, sl, pl)
			s.telem.GaugeFunc("gengar_tcp_peer_up",
				"whether the peer link is connected", func() int64 {
					if l.live() {
						return 1
					}
					return 0
				}, sl, pl)
		}
		s.telem.GaugeFunc("gengar_tcp_peers_live",
			"peer links currently connected", func() int64 {
				return int64(s.peers.liveCount())
			}, sl)
		eng.SetPlacer(newPeerPlacer(eng, engine.NewLocalPlacer(eng), s.peers))
		s.peers.start()
	} else {
		eng.SetPlacer(engine.NewLocalPlacer(eng))
	}
	// The span tracer: stage timestamps flow through the engine's
	// clock seam (the wall mount's WallClock here), never raw time.Now,
	// so the same marking code traces identically under virtual time.
	s.tracer = span.NewTracer(span.Config{
		Side:          "server",
		SampleEvery:   cfg.TraceSample,
		SlowThreshold: cfg.TraceSlow,
		Clock:         func() int64 { return int64(eng.Now()) },
		Registry:      s.telem,
		Labels:        []telemetry.Label{sl},
	})
	// The flusher persists staged writes after their spans finish, so
	// its stage is observed standalone: staged→applied lag per record.
	eng.Flusher().SetFlushObserver(func(lagNanos int64) {
		s.tracer.ObserveStage("write", span.StageFlushPersist, lagNanos)
	})
	return s, nil
}

// Engine returns the daemon's engine, for tests and tooling.
func (s *PoolServer) Engine() *engine.Engine { return s.eng }

// Telemetry returns the daemon's metrics registry (served by gengard's
// debug endpoint).
func (s *PoolServer) Telemetry() *telemetry.Registry { return s.telem }

// Tracer returns the daemon's span tracer (stage quantiles and the
// slow-op ring served by gengard's /debug/trace endpoint).
func (s *PoolServer) Tracer() *span.Tracer { return s.tracer }

// Serve accepts and serves connections on lis until Close. It returns
// nil after a graceful Close and the accept error otherwise.
func (s *PoolServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every connection, waits for handlers
// and stops the engine's flusher.
func (s *PoolServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	// Tear the sockets down outside s.mu: Close on a TCP connection can
	// block in the kernel, and handler goroutines need the lock to finish.
	if lis != nil {
		_ = lis.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	s.eng.Close()
	if s.peers != nil {
		s.peers.close()
	}
}

// session is one connection's server-side state: its lock-session
// identity, its leased staging ring (when proxied writes are on), and
// the staged accesses feeding server-side hotness digests.
type session struct {
	id  uint64
	srv *PoolServer

	writer   *proxy.Writer // nil when staging is off or rings ran out
	ringBase int64
	hasRing  bool

	hot *hotness.Staging
}

func (s *PoolServer) openSession() *session {
	sess := &session{id: s.sessions.Add(1), srv: s, hot: hotness.NewStaging(s.eng.Config().Hotness.DigestEvery)}
	if !s.eng.Features().Proxy {
		return sess
	}
	base, err := s.eng.OpenRing()
	if err != nil {
		return sess // rings exhausted: session degrades to direct writes
	}
	slots, slotSize := s.eng.RingGeometry()
	w, err := proxy.NewLocalWriter(s.eng.Flusher(), proxy.Ring{
		ID:       int(sess.id),
		Base:     base,
		DevBase:  base,
		Slots:    slots,
		SlotSize: slotSize,
	})
	if err != nil {
		_ = s.eng.CloseRing(base)
		return sess
	}
	sess.writer, sess.ringBase, sess.hasRing = w, base, true
	return sess
}

func (sess *session) close() {
	if sess.writer != nil {
		sess.writer.Close() // waits for staged records to flush
	}
	if sess.hasRing {
		_ = sess.srv.eng.CloseRing(sess.ringBase)
	}
}

// observe stages one data access for hotness identification and lands
// a digest on the engine every DigestEvery accesses — the daemon serves
// every access, so it plays the simulated client's digest-reporting
// role. Nothing is staged while the cache is off.
func (sess *session) observe(addr region.GAddr, write bool) {
	if !sess.srv.eng.Features().Cache {
		return
	}
	sess.hot.Observe(addr, write, sess.digest)
}

// digest lands one folded digest on the engine.
func (sess *session) digest(entries []hotness.Entry) {
	eng := sess.srv.eng
	eng.Digest(eng.Now(), entries)
}

// serveConn runs one connection: a buffered read loop whose goroutine
// also writes the replies it produces (the frame queue has none).
//
// Dispatch rule: a request gets a goroutine only if it must wait, so the
// common path spawns nothing and a parked request never stalls the
// connection's other traffic. Frees and exclusive unlocks park only when
// the session has staged records to drain, writes only when the ring
// lacks the credits they need. A lock acquire is attempted inline with
// one non-blocking grant step; only a refused one parks, and its
// goroutine waits out the rest of the acquire budget. Everything else —
// reads, malloc, version, stats, hello — is inline.
//
// Batching rule: the reader corks the queue while a whole further
// request is already buffered and uncorks after dispatching the last
// buffered one, so a pipelined chain's replies leave in one writev. A
// partial frame never corks: no reply waits on bytes not yet sent.
//
// A response-write failure poisons the frame queue, which severs the
// connection; the read loop then unwinds and tears down the session —
// the daemon never keeps consuming requests whose replies go nowhere.
func (s *PoolServer) serveConn(conn net.Conn) {
	tuneConn(conn)
	sess := s.openSession()
	q := newFrameQueue(conn, &s.frames)
	q.framesPerFlush = s.framesPerFlush
	q.bytesPerSyscall = s.bytesPerSyscall
	r := newFrameReader(conn, &s.frames)
	var reqWG sync.WaitGroup
	defer func() {
		reqWG.Wait() // parked handlers may still enqueue responses
		q.close()    // write whatever a cork or a dead reader left queued
		sess.close()
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	corked := false
	for {
		id, tag, frame, payload, ext, err := r.read()
		if err != nil {
			return // connection gone (or a poisoned frame)
		}
		more := r.frameBuffered()
		if more && !corked {
			q.cork(true)
		}
		op := Op(tag)
		// Span policy: a request carrying a sampled trace extension is
		// always traced (the client decided up front, and its ID makes
		// the two halves stitchable); otherwise local sampling applies.
		var sp *span.Span
		if ext.sampled {
			sp = s.tracer.StartRemote(ext.traceID, op.String())
		} else {
			sp = s.tracer.Start(op.String())
		}
		if parks(sess, op, payload) {
			s.park(&reqWG, func() { s.dispatch(sess, q, id, op, frame, payload, sp, &reqWG) })
		} else {
			s.dispatch(sess, q, id, op, frame, payload, sp, &reqWG)
		}
		if corked && !more {
			q.cork(false)
		}
		corked = more
	}
}

// parks reports whether an op will block the handling goroutine before
// it is handled: frees and exclusive unlocks drain the session's staged
// writes, so they park only when there are some, and stages park when
// the ring has fewer credits than the frame needs. Lock acquires are not
// decided here: the grant step itself decides (see lockWait). The probes
// are advisory — a parked write of the same session can still stage or
// win the last slot — so an inline op may briefly wait on the flusher;
// that is bounded and deadlock-free (the flusher runs independently).
func parks(sess *session, op Op, payload []byte) bool {
	switch op {
	case OpFree, OpUnlockEx:
		return sess.writer != nil && sess.writer.PendingCount() > 0
	case OpWrite, OpWriteBatch:
		if sess.writer == nil {
			return false
		}
		// The slots the frame needs, estimated without parsing a record:
		// one per record, or what its bytes fill when records are larger
		// than a slot.
		need := 1
		if op == OpWriteBatch && len(payload) >= 4 {
			need = int(binary.BigEndian.Uint32(payload))
		}
		return sess.writer.FreeSlots() < max(need, len(payload)/sess.writer.Ring().MaxPayload())
	}
	return false
}

// Least wire bytes of one batch record: addr u64 + blob length u32 (+
// data) for a write, addr u64 + len u32 for a read.
const (
	writeRecordMin = 12
	readRecordMin  = 12
)

// stackBatch is how many records a batch frame decodes into a stack
// array; a longer one gets a slice. A transaction's share of one home
// fits.
const stackBatch = 16

// batchOf returns n records: small's own storage when they fit, so a
// small batch is decoded without allocating.
func batchOf[T any](small []T, n int) []T {
	if n <= len(small) {
		return small[:n]
	}
	return make([]T, n)
}

// park runs fn on a goroutine of its own, tracked by parked (which the
// connection's teardown waits for) and counted.
func (s *PoolServer) park(parked *sync.WaitGroup, fn func()) {
	s.parked.Inc()
	parked.Add(1)
	go func() {
		defer parked.Done()
		fn()
	}()
}

// lockWait is a lock acquire the inline grant step refused. Only it gets
// a goroutine, which waits out what is left of the acquire budget, so a
// connection's reader never blocks on contention — and a granted
// acquire is granted once, inline. handle returns it as the request's
// error; dispatch parks it instead of answering.
type lockWait struct {
	s       *PoolServer
	session uint64
	op      Op
	addr    region.GAddr
	lease   time.Duration
	start   time.Time // when handling began; the budget and the latency run from here
}

func (lw *lockWait) Error() string { return "tcpnet: lock acquire contended" }

// wait blocks until the lock is granted or the acquire budget is spent,
// and records the acquire's whole latency.
func (lw *lockWait) wait(sp *span.Span) error {
	s := lw.s
	err := s.eng.Leases().Lock(lw.session, lw.addr, lw.op == OpLockSh, lw.lease, s.cfg.AcquireTimeout-time.Since(lw.start))
	s.opLatency[lw.op].Record(time.Since(lw.start))
	sp.Mark(span.StageLockWait)
	return err
}

// dispatch handles one request and enqueues its response frame — or,
// for a contended lock acquire, parks a goroutine (tracked by parked)
// that answers once the wait ends. It owns frame (the pooled request
// buffer) and recycles it after handling. It also owns sp until the
// response is enqueued, at which point span ownership transfers to the
// frame queue's flusher — the one place that can stamp the writevFlush
// stage and finish the span.
//
//gengar:hotpath
func (s *PoolServer) dispatch(sess *session, q *frameQueue, id uint64, op Op, frame *[]byte, payload []byte, sp *span.Span, parked *sync.WaitGroup) {
	sp.Mark(span.StageQueueWait)
	var req payloadReader
	req.Reset(payload)
	resp, err := s.handle(sess, op, &req, sp)
	s.frames.put(frame)
	if lw, ok := err.(*lockWait); ok {
		s.park(parked, func() { s.reply(q, id, nil, lw.wait(sp), sp) })
		return
	}
	s.reply(q, id, resp, err, sp)
}

// reply stamps and enqueues the answer to request id: resp (nil for an
// empty payload) on success, an error frame otherwise. sp goes with it.
//
//gengar:hotpath
func (s *PoolServer) reply(q *frameQueue, id uint64, resp *[]byte, err error, sp *span.Span) {
	if err != nil {
		s.failures.Inc()
		ef, eerr := s.frames.encodeFrame(id, statusErr, []byte(err.Error()))
		if eerr != nil {
			sp.Finish()
			q.fail(eerr)
			return
		}
		_ = q.enqueue(ef, sp)
		return
	}
	if resp == nil {
		resp = s.frames.get(frameHeader)
	}
	if err := stampFrame(resp, id, statusOK); err != nil {
		s.frames.put(resp)
		sp.Finish()
		q.fail(err)
		return
	}
	_ = q.enqueue(resp, sp)
}

// finishResp publishes a payload encoded in place over a pooled frame
// image (header still unstamped — dispatch stamps it with the request
// id and status).
//
//gengar:hotpath
func finishResp(f *[]byte, w *payloadWriter) *[]byte {
	*f = w.Bytes()
	return f
}

// handle serves one request and returns its response as a pooled frame
// with the header reserved and the payload encoded in place, or nil for
// an empty-payload success. Errors travel back as error frames, except
// a *lockWait, which dispatch parks. A non-nil sp collects engine-level
// stage marks.
func (s *PoolServer) handle(sess *session, op Op, req *payloadReader, sp *span.Span) (*[]byte, error) {
	if int(op) <= 0 || int(op) >= maxOpTag || op == opRetired {
		return nil, fmt.Errorf("tcpnet: unknown op %d", op)
	}
	s.ops.Inc()
	s.opRequests[op].Inc()
	start := time.Now()
	resp, err := s.serve(sess, op, req, sp)
	if lw, ok := err.(*lockWait); ok {
		lw.start = start // its goroutine records the latency once the wait ends
		return nil, lw
	}
	s.opLatency[op].Record(time.Since(start))
	return resp, err
}

// serve is handle's body: one known op, decoded, run and encoded.
func (s *PoolServer) serve(sess *session, op Op, req *payloadReader, sp *span.Span) (*[]byte, error) {
	switch op {
	case OpHello:
		feat := uint8(featureTrace) // this daemon parses the trace extension
		if s.eng.Features().Cache {
			// A caching daemon also hosts peer copies; the peer-cache bit
			// extends the reply with the arena capacity peers may budget.
			feat |= featureCache | featurePeerCache
		}
		if s.eng.Features().Proxy {
			feat |= featureProxy
		}
		var w payloadWriter
		f := s.frames.newFrame(&w, 19)
		w.U16(s.cfg.ID).I64(s.cfg.PoolBytes).U8(feat)
		if feat&featurePeerCache != 0 {
			w.I64(s.cfg.CacheBytes)
		}
		return finishResp(f, &w), nil

	case OpMalloc:
		size := req.I64()
		if err := req.Err(); err != nil {
			return nil, err
		}
		addr, err := s.eng.Malloc(size)
		if err != nil {
			return nil, err
		}
		var w payloadWriter
		f := s.frames.newFrame(&w, 8)
		w.U64(uint64(addr))
		return finishResp(f, &w), nil

	case OpFree:
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		// Flush the session's own staged writes first so none of them
		// lands in a recycled allocation later.
		if sess.writer != nil {
			sess.writer.Drain()
		}
		return nil, s.eng.Free(addr)

	case OpRead:
		// A lone read is a batch of one, decoded on the stack.
		var one [1]readReq
		one[0] = readReq{addr: region.GAddr(req.U64()), n: int64(req.U32())}
		if err := req.Err(); err != nil {
			return nil, err
		}
		sp.SetTarget(uint64(one[0].addr), int(one[0].n))
		return s.readChain(sess, one[:], false, sp)

	case OpReadBatch:
		n, err := req.Count(readRecordMin)
		if err != nil {
			return nil, err
		}
		var small [stackBatch]readReq
		reqs := batchOf(small[:], n)
		for i := range reqs {
			reqs[i] = readReq{addr: region.GAddr(req.U64()), n: int64(req.U32())}
		}
		if err := req.Err(); err != nil {
			return nil, err
		}
		return s.readChain(sess, reqs, true, sp)

	case OpWrite:
		// A lone write is a chain of one, decoded on the stack.
		var one [1]proxy.StageReq
		one[0].Addr = region.GAddr(req.U64())
		one[0].Data = req.Blob()
		if err := req.Err(); err != nil {
			return nil, err
		}
		sp.SetTarget(uint64(one[0].Addr), len(one[0].Data))
		return nil, s.writeChain(sess, one[:], sp)

	case OpWriteBatch:
		n, err := req.Count(writeRecordMin)
		if err != nil {
			return nil, err
		}
		var small [stackBatch]proxy.StageReq
		reqs := batchOf(small[:], n)
		for i := range reqs {
			reqs[i].Addr = region.GAddr(req.U64())
			reqs[i].Data = req.Blob()
		}
		if err := req.Err(); err != nil {
			return nil, err
		}
		return nil, s.writeChain(sess, reqs, sp)

	case OpVersion:
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		var w payloadWriter
		f := s.frames.newFrame(&w, 8)
		w.U64(s.eng.Version(addr))
		return finishResp(f, &w), nil

	case OpLockEx, OpLockSh:
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		lease := time.Duration(req.U32()) * time.Millisecond
		if err := req.Err(); err != nil {
			return nil, err
		}
		// DefaultLease bounds every grant, whatever the client asks for:
		// a client that dies holding a lock wedges the object that long.
		if lease <= 0 || lease > s.cfg.DefaultLease {
			lease = s.cfg.DefaultLease
		}
		if !s.eng.Leases().TryLock(sess.id, addr, op == OpLockSh, lease) {
			return nil, &lockWait{s: s, session: sess.id, op: op, addr: addr, lease: lease}
		}
		sp.Mark(span.StageLockWait)
		return nil, nil

	case OpUnlockEx:
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		// Publish before release: the next holder reads NVM (and overlays
		// only its own pending records), so this session's staged writes
		// must have landed there before the lease goes — what
		// core.Client.UnlockExclusive does on the sim mount. The release
		// itself bumps the version word (Engine.New, OnWriterRelease).
		if sess.writer != nil {
			sess.writer.Drain()
		}
		return nil, s.eng.Leases().UnlockExclusive(sess.id, addr)

	case OpUnlockSh:
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		return nil, s.eng.Leases().UnlockShared(sess.id, addr)

	case OpStats:
		st := s.eng.Stats()
		var spilled, live int64
		if s.peers != nil {
			spilled = s.peers.spilledBytes()
			live = int64(s.peers.liveCount())
		}
		var w payloadWriter
		f := s.frames.newFrame(&w, 18*8)
		w.I64(int64(st.Objects)).I64(st.PoolUsed).I64(s.ops.Load()).
			I64(st.Hits).I64(st.Misses).
			I64(st.Proxy.Staged).I64(st.Proxy.Flushed).
			I64(st.Promotions).I64(st.Demotions).I64(int64(st.Promoted)).
			I64(st.Digests).U64(st.RemapEpoch).
			I64(st.PeerHits).I64(st.PeerErrors).
			I64(int64(st.HostedCopies)).I64(st.HostedBytes).
			I64(spilled).I64(live)
		return finishResp(f, &w), nil

	case OpPeerPlace:
		gen := req.U64()
		size := req.I64()
		if err := req.Err(); err != nil {
			return nil, err
		}
		if !s.eng.Features().Cache {
			return nil, errors.New("tcpnet: peer placement refused: cache disabled")
		}
		off, err := s.eng.HostCopy(gen, size)
		if err != nil {
			return nil, err
		}
		var w payloadWriter
		f := s.frames.newFrame(&w, 8)
		w.I64(off)
		return finishResp(f, &w), nil

	case OpPeerInstall:
		off := req.I64()
		gen := req.U64()
		data := req.Blob()
		if err := req.Err(); err != nil {
			return nil, err
		}
		return nil, s.eng.HostedInstall(s.eng.Now(), off, gen, data)

	case OpPeerWrite:
		off := req.I64()
		gen := req.U64()
		delta := req.I64()
		data := req.Blob()
		if err := req.Err(); err != nil {
			return nil, err
		}
		return nil, s.eng.HostedWrite(s.eng.Now(), off, gen, delta, data)

	case OpPeerRead:
		off := req.I64()
		gen := req.U64()
		delta := req.I64()
		n := int64(req.U32())
		if err := req.Err(); err != nil {
			return nil, err
		}
		if n < 0 || frameHeader+4+n > maxFrame {
			return nil, fmt.Errorf("tcpnet: peer read of %d bytes exceeds max frame", n)
		}
		// Like OpRead: the hosted copy's bytes land directly in the reply
		// frame, generation-checked against the hosted-copy table first.
		f := s.frames.get(frameHeader + 4 + int(n))
		b := *f
		binary.BigEndian.PutUint32(b[frameHeader:], uint32(n))
		if err := s.eng.HostedRead(s.eng.Now(), off, gen, delta, b[frameHeader+4:frameHeader+4+int(n)]); err != nil {
			s.frames.put(f)
			return nil, err
		}
		s.txBytes.Add(n)
		return f, nil

	case OpPeerRelease:
		off := req.I64()
		gen := req.U64()
		if err := req.Err(); err != nil {
			return nil, err
		}
		return nil, s.eng.HostedRelease(off, gen)

	default:
		return nil, fmt.Errorf("tcpnet: unknown op %d", op)
	}
}

// writeChain lands a decoded write chain — the one write body of the
// TCP mount. With a ring the whole chain is staged (acknowledged before
// the NVM flush, like the paper's proxied writes; proxy.Writer cuts
// records to slot size, so a write of any size keeps its place in the
// session's order). Only a session without a ring — NoProxy, or rings
// exhausted at connect — writes through to the pool. The span stage
// tells the two apart: ringStage covers staging (including any credit
// backpressure wait), flushPersist an inline write-through.
func (s *PoolServer) writeChain(sess *session, reqs []proxy.StageReq, sp *span.Span) error {
	for i := range reqs {
		r := &reqs[i]
		if r.Addr.Server() != s.cfg.ID {
			return fmt.Errorf("tcpnet: %v not homed on server %d", r.Addr, s.cfg.ID)
		}
		r.NvmOff = r.Addr.Offset()
		if r.NvmOff+int64(len(r.Data)) > s.cfg.PoolBytes {
			return fmt.Errorf("tcpnet: write [%d,%d) out of pool", r.NvmOff, r.NvmOff+int64(len(r.Data)))
		}
	}
	sp.Mark(span.StageDispatch)
	if sess.writer != nil {
		if _, err := sess.writer.StageMulti(s.eng.Now(), reqs); err != nil {
			return err
		}
		sp.Mark(span.StageRingStage)
	} else {
		for _, r := range reqs {
			if _, err := s.eng.WriteNVM(s.eng.Now(), r.Addr, r.Data); err != nil {
				return err
			}
		}
		sp.Mark(span.StageFlushPersist)
	}
	for _, r := range reqs {
		sess.observe(r.Addr, true)
		s.rxBytes.Add(int64(len(r.Data)))
	}
	return nil
}

// readReq is one decoded record of a read frame.
type readReq struct {
	addr region.GAddr
	n    int64
	err  error // why the record failed; nil once served
}

// readChain serves a decoded read chain — the one read body of the TCP
// mount, for a lone OpRead (batch false) and an OpReadBatch alike. Every
// record is checked and sized before the reply frame is taken, so a
// reply that cannot fit a frame comes back as an error frame instead of
// reaching stampFrame and severing the connection. The session's staged
// writes are pinned once for the frame (see proxy.Writer.Pin) and each
// record is read straight into its wire position, overlaid with them —
// read-your-writes, as the RDMA client library does it — and observed
// for hotness. A batch answers every record with its own status, so one
// bad record fails alone; a lone read's failure is the frame's.
//
//gengar:hotpath
func (s *PoolServer) readChain(sess *session, reqs []readReq, batch bool, sp *span.Span) (*[]byte, error) {
	size := 0
	for i := range reqs {
		r := &reqs[i]
		r.err = s.checkRead(r.addr, r.n)
		switch {
		case r.err == nil:
			size += 4 + int(r.n) + 1
		case !batch:
			return nil, r.err
		default:
			size += 2 + len(r.err.Error())
		}
		if batch {
			size++ // the record's status byte
		}
		if frameHeader+size > maxFrame {
			return nil, fmt.Errorf("tcpnet: read reply would exceed the %d-byte max frame", maxFrame)
		}
	}
	f := s.frames.get(frameHeader + size)
	var w payloadWriter
	w.Reset((*f)[:frameHeader])
	sp.Mark(span.StageDispatch)
	now := s.eng.Now()
	if sess.writer != nil {
		sess.writer.Pin()
	}
	var failed error
	for i := range reqs {
		r := &reqs[i]
		if r.err == nil {
			r.err = s.readRecord(sess, &w, now, r, batch, sp)
		}
		if r.err == nil {
			continue
		}
		if !batch {
			failed = r.err
			break
		}
		s.failures.Inc()
		w.U8(statusErr).Str(r.err.Error())
	}
	if sess.writer != nil {
		sess.writer.Unpin()
	}
	*f = w.Bytes()
	if failed == nil && len(*f) > maxFrame { // a record that failed late outgrew its sizing
		failed = fmt.Errorf("tcpnet: read reply would exceed the %d-byte max frame", maxFrame)
	}
	if failed != nil {
		s.frames.put(f)
		return nil, failed
	}
	return f, nil
}

// readRecord appends one checked record's reply to w — status (batch
// only), then blob and source byte — with the engine filling the blob's
// data in place. On failure w is left as it was.
//
//gengar:hotpath
func (s *PoolServer) readRecord(sess *session, w *payloadWriter, now simnet.Time, r *readReq, batch bool, sp *span.Span) error {
	mark := len(w.Bytes())
	if batch {
		w.U8(statusOK)
	}
	out := w.U32(uint32(r.n)).Extend(int(r.n))
	_, src, err := s.eng.ReadAt(now, r.addr, out)
	if err != nil {
		w.Reset(w.Bytes()[:mark])
		return err
	}
	if sess.writer != nil {
		sess.writer.ApplyPending(r.addr, out)
	}
	w.U8(byte(src))
	switch src {
	case engine.ReadHitLocal:
		sp.Mark(span.StageCacheHit)
	case engine.ReadHitPeer:
		sp.Mark(span.StagePeerRead)
	default:
		sp.Mark(span.StageNVMCopy)
	}
	sess.observe(r.addr, false)
	s.txBytes.Add(r.n)
	return nil
}

// checkRead refuses a read record that is not homed here or runs past
// the pool.
func (s *PoolServer) checkRead(addr region.GAddr, n int64) error {
	if addr.Server() != s.cfg.ID {
		return fmt.Errorf("tcpnet: %v not homed on server %d", addr, s.cfg.ID)
	}
	if addr.Offset()+n > s.cfg.PoolBytes {
		return fmt.Errorf("tcpnet: read [%d,%d) out of pool", addr.Offset(), addr.Offset()+n)
	}
	return nil
}

// homeAddr decodes an address operand and checks it is homed here.
func (s *PoolServer) homeAddr(req *payloadReader) (region.GAddr, error) {
	addr := region.GAddr(req.U64())
	if err := req.Err(); err != nil {
		return region.NilGAddr, err
	}
	if addr.Server() != s.cfg.ID {
		return region.NilGAddr, fmt.Errorf("tcpnet: %v not homed on server %d", addr, s.cfg.ID)
	}
	return addr, nil
}
