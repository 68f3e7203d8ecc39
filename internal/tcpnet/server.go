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
	// client; 0 selects 5s.
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
	failures metrics.Counter // requests answered with an error status

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
const maxOpTag = int(OpPeerRelease) + 1

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
	s.telem.RegisterCounter("gengar_tcp_failures_total", "requests answered with an error", &s.failures, sl)
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
// Dispatch rule: ops that cannot park — read, write with ring credit,
// version, stats, malloc, unlock with nothing staged, hello —
// are handled inline on the read goroutine, so the common path spawns
// nothing. Ops that can park (lock acquires waiting out contention,
// frees and exclusive unlocks draining staged writes, writes facing
// staging-ring backpressure) get a goroutine so a parked request never
// stalls the connection's other traffic.
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
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				s.dispatch(sess, q, id, op, frame, payload, sp)
			}()
		} else {
			s.dispatch(sess, q, id, op, frame, payload, sp)
		}
		if corked && !more {
			q.cork(false)
		}
		corked = more
	}
}

// parks reports whether an op may block the handling goroutine: lock
// acquires wait out contention, frees and exclusive unlocks drain the
// session's staged writes, and stages park when the ring has fewer
// credits than the frame needs. An unlock with nothing staged has
// nothing to wait for and stays inline. The credit probe is advisory —
// a concurrent stage can still win the last slot — so an inline write
// may briefly wait on the flusher; that is bounded and deadlock-free
// (the flusher runs independently).
func parks(sess *session, op Op, payload []byte) bool {
	switch op {
	case OpLockEx, OpLockSh, OpFree:
		return true
	case OpUnlockEx:
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

// writeRecordMin is the least one batch record occupies on the wire:
// addr u64 + blob length u32 (+ data).
const writeRecordMin = 12

// dispatch handles one request and enqueues its response frame. It owns
// frame (the pooled request buffer) and recycles it after handling. It
// also owns sp until the response is enqueued, at which point span
// ownership transfers to the frame queue's flusher — the one place
// that can stamp the writevFlush stage and finish the span.
//
//gengar:hotpath
func (s *PoolServer) dispatch(sess *session, q *frameQueue, id uint64, op Op, frame *[]byte, payload []byte, sp *span.Span) {
	sp.Mark(span.StageQueueWait)
	var req payloadReader
	req.Reset(payload)
	resp, err := s.handle(sess, op, &req, sp)
	s.frames.put(frame)
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
// an empty-payload success. Errors travel back as error frames. A
// non-nil sp collects engine-level stage marks.
func (s *PoolServer) handle(sess *session, op Op, req *payloadReader, sp *span.Span) (*[]byte, error) {
	if int(op) <= 0 || int(op) >= maxOpTag || op == opRetired {
		return nil, fmt.Errorf("tcpnet: unknown op %d", op)
	}
	s.ops.Inc()
	s.opRequests[op].Inc()
	start := time.Now()
	resp, err := s.serve(sess, op, req, sp)
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
		addr, err := s.homeAddr(req)
		if err != nil {
			return nil, err
		}
		n := int64(req.U32())
		if err := req.Err(); err != nil {
			return nil, err
		}
		if n < 0 || addr.Offset()+n > s.cfg.PoolBytes {
			return nil, fmt.Errorf("tcpnet: read [%d,%d) out of pool", addr.Offset(), addr.Offset()+n)
		}
		// Bound the reply frame up front: a read the pool can satisfy may
		// still not fit a frame, and that must come back as an error frame,
		// not reach stampFrame and sever the whole connection.
		if frameHeader+4+n+1 > maxFrame {
			return nil, fmt.Errorf("tcpnet: read of %d bytes exceeds max frame", n)
		}
		// The reply layout is blob(len u32, data) + source u8; the engine
		// fills the pool bytes directly into the frame that hits the
		// socket — no intermediate payload copy.
		f := s.frames.get(frameHeader + 4 + int(n) + 1)
		b := *f
		binary.BigEndian.PutUint32(b[frameHeader:], uint32(n))
		out := b[frameHeader+4 : frameHeader+4+int(n)]
		sp.SetTarget(uint64(addr), int(n))
		sp.Mark(span.StageDispatch)
		// Read-your-writes: overlay this session's staged-but-unflushed
		// records, exactly as the RDMA client library does — pinned from
		// before the read (see proxy.Writer.Pin).
		if sess.writer != nil {
			sess.writer.Pin()
		}
		_, src, err := s.eng.ReadAt(s.eng.Now(), addr, out)
		if sess.writer != nil {
			sess.writer.ApplyPending(addr, out)
			sess.writer.Unpin()
		}
		if err != nil {
			s.frames.put(f)
			return nil, err
		}
		b[frameHeader+4+int(n)] = byte(src)
		switch src {
		case engine.ReadHitLocal:
			sp.Mark(span.StageCacheHit)
		case engine.ReadHitPeer:
			sp.Mark(span.StagePeerRead)
		default:
			sp.Mark(span.StageNVMCopy)
		}
		sess.observe(addr, false)
		s.txBytes.Add(n)
		return f, nil

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
		reqs := make([]proxy.StageReq, n)
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
		if lease <= 0 {
			lease = s.cfg.DefaultLease
		}
		if op == OpLockEx {
			err = s.eng.Leases().LockExclusive(sess.id, addr, lease, s.cfg.AcquireTimeout)
		} else {
			err = s.eng.Leases().LockShared(sess.id, addr, lease, s.cfg.AcquireTimeout)
		}
		sp.Mark(span.StageLockWait)
		return nil, err

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
