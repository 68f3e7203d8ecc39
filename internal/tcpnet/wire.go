// Package tcpnet is Gengar's real-network deployment mode: the same
// distributed-shared-memory API (malloc/free/read/write and multi-user
// locks over 64-bit global addresses, sharded across servers) served by
// gengard daemons over TCP to out-of-process clients.
//
// It complements the in-process simulator: the simulator reproduces the
// paper's *performance* behavior on modeled RDMA+NVM hardware, while
// tcpnet demonstrates the *protocol and consistency* machinery over a
// real transport with real concurrency — wall-clock timed, server-
// mediated (TCP has no one-sided verbs), and with lease-based lock
// recovery, which a real deployment needs because clients can vanish.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gengar/internal/metrics"
	"gengar/internal/rpc"
	"gengar/internal/telemetry/span"
)

// Op identifies a request type on the wire.
type Op uint8

// Wire operations. A request that fails as a whole is answered with an
// error frame (statusErr, message as payload); an OpReadBatch reply
// instead carries a status per record, so one bad record fails alone.
// leaseMs is clamped to the daemon's DefaultLease (0 selects it).
const (
	OpHello      Op = iota + 1 // -> serverID u16, poolBytes i64, features u8
	OpMalloc                   // size i64 -> gaddr u64
	OpFree                     // gaddr u64
	OpRead                     // gaddr u64, len u32 -> blob, source u8
	OpWrite                    // gaddr u64, blob
	OpLockEx                   // gaddr u64, leaseMs u32
	OpUnlockEx                 // gaddr u64
	OpLockSh                   // gaddr u64, leaseMs u32
	OpUnlockSh                 // gaddr u64
	OpStats                    // -> see ServerStats field order
	OpWriteBatch               // n u32, n x (gaddr u64, blob)
	opRetired                  // was OpDigest; kept so later codes do not move and an old client gets "unknown op"
	OpVersion                  // gaddr u64 -> version u64

	// Daemon-to-daemon ops: a home server under arena pressure spills a
	// hot object's copy into a peer's DRAM and drives it through these.
	// The generation is home-minted (node-id-salted, cluster-unique) and
	// checked at the holder on every touch, so a slot the holder demoted
	// or recycled fails cleanly instead of serving another home's bytes.
	OpPeerPlace   // gen u64, size i64 -> off i64
	OpPeerInstall // off i64, gen u64, blob
	OpPeerWrite   // off i64, gen u64, delta i64, blob
	OpPeerRead    // off i64, gen u64, delta i64, len u32 -> blob
	OpPeerRelease // off i64, gen u64

	// OpReadBatch is a ReadMulti's share for one home: n u32,
	// n x (gaddr u64, len u32) -> n x (statusOK u8, blob, source u8 |
	// statusErr u8, message str), in request order.
	OpReadBatch
)

// OpHello feature bits.
const (
	featureCache     = 1 << 0 // hotness tracking + DRAM cache serving reads
	featureProxy     = 1 << 1 // staged writes acknowledged before NVM flush
	featureTrace     = 1 << 2 // understands the trace frame-header extension
	featurePeerCache = 1 << 3 // hosts peer copies; hello reply carries cacheBytes i64
)

// String returns the op's wire name, for telemetry labels and errors.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpMalloc:
		return "malloc"
	case OpFree:
		return "free"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpLockEx:
		return "lock_ex"
	case OpUnlockEx:
		return "unlock_ex"
	case OpLockSh:
		return "lock_sh"
	case OpUnlockSh:
		return "unlock_sh"
	case OpStats:
		return "stats"
	case OpWriteBatch:
		return "write_batch"
	case OpVersion:
		return "version"
	case OpPeerPlace:
		return "peer_place"
	case OpPeerInstall:
		return "peer_install"
	case OpPeerWrite:
		return "peer_write"
	case OpPeerRead:
		return "peer_read"
	case OpPeerRelease:
		return "peer_release"
	case OpReadBatch:
		return "read_batch"
	default:
		return fmt.Sprintf("op%d", uint8(o))
	}
}

// maxFrame bounds a single message, including headers.
const maxFrame = 16 << 20

// Frame layout: length u32 (of the rest) | id u64 | op/status u8 | payload.
const frameHeader = 4 + 8 + 1

// Status bytes in responses.
const (
	statusOK  = 0
	statusErr = 1
)

// ---------------------------------------------------------------------
// Trace frame-header extension.
//
// A request stitching a client span across the wire sets tagTraced on
// its op byte and carries a length-versioned extension between the tag
// and the payload:
//
//	extLen u8 | flags u8 | traceID u64 | (future fields) | payload
//
// extLen counts the bytes after itself, so a receiver skips fields it
// does not understand and a future version grows the extension without
// a flag day. Negotiation: servers advertise featureTrace in the
// OpHello reply; clients only emit extended frames to peers that did.
// A pre-trace peer receiving one anyway sees an op byte >= maxOpTag
// and rejects the frame as an unknown op — a clean error, not a
// misparse, because tagTraced is far above the op vocabulary.

// tagTraced flags an op byte as carrying the trace extension.
const tagTraced = 0x80

// traceExtLen is the current extension length (flags + trace ID);
// traceExtSize adds the length byte itself.
const (
	traceExtLen  = 1 + 8
	traceExtSize = 1 + traceExtLen
)

// traceFlagSampled marks the operation as sampled by the sender.
const traceFlagSampled = 1 << 0

// traceExt is a decoded trace extension.
type traceExt struct {
	present bool
	sampled bool
	traceID uint64
}

// Wire errors.
var (
	// ErrFrameTooLarge reports a message exceeding maxFrame.
	ErrFrameTooLarge = errors.New("tcpnet: frame too large")
	// ErrClosed reports use of a closed connection or pool.
	ErrClosed = errors.New("tcpnet: connection closed")
)

// RemoteError carries a server-reported failure.
type RemoteError struct {
	Op  Op
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("tcpnet: remote error on op %d: %s", e.Op, e.Msg)
}

// payloadWriter/payloadReader reuse the rpc package's codec for message
// bodies.
type (
	payloadWriter = rpc.Writer
	payloadReader = rpc.Reader
)

func newPayloadReader(b []byte) *payloadReader { return rpc.NewReader(b) }

// ---------------------------------------------------------------------
// Pooled frame buffers.
//
// Every frame on the wire — requests, responses, read payloads — lives
// in a size-classed pooled buffer. Payloads are encoded directly after
// the reserved frameHeader prefix, so an OpRead reply is filled from
// the engine straight into the bytes that hit the socket: no
// intermediate payload slice, no header copy.

// frameClasses are the pooled buffer capacities. The smallest covers
// every control op; the ladder tops out at 1 MiB, above which frames
// are allocated exactly and dropped on release.
var frameClasses = [...]int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// framePool hands out pooled frame buffers by size class. Buffers move
// as *[]byte so re-pooling never re-boxes the slice header. Each
// endpoint (daemon, client pool) owns one, so hit rates are observable
// per process role.
type framePool struct {
	classes [len(frameClasses)]sync.Pool
	hits    metrics.Counter
	misses  metrics.Counter
}

// frameClassFor returns the smallest class index holding n bytes, or -1
// when n exceeds the largest class.
func frameClassFor(n int) int {
	for i, c := range frameClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// get returns a buffer with len n from the smallest fitting class.
//
//gengar:hotpath
func (p *framePool) get(n int) *[]byte {
	ci := frameClassFor(n)
	if ci >= 0 {
		if f, ok := p.classes[ci].Get().(*[]byte); ok {
			p.hits.Inc()
			*f = (*f)[:n]
			return f
		}
	}
	return p.alloc(n, ci)
}

// alloc is the pool-miss path: a fresh buffer sized to its class.
func (p *framePool) alloc(n, ci int) *[]byte {
	p.misses.Inc()
	c := n
	if ci >= 0 {
		c = frameClasses[ci]
	}
	b := make([]byte, n, c)
	return &b
}

// put recycles a buffer into the largest class its capacity can serve.
// Buffers below the smallest class (never produced by get) are dropped,
// as are buffers above the largest: donating a multi-MiB exact-size
// allocation to the 1 MiB class would pin it behind ~1 MiB requests and
// amplify steady-state memory by its oversize factor.
//
//gengar:hotpath
func (p *framePool) put(f *[]byte) {
	if f == nil {
		return
	}
	if cap(*f) > frameClasses[len(frameClasses)-1] {
		return
	}
	ci := -1
	for i, c := range frameClasses {
		if cap(*f) < c {
			break
		}
		ci = i
	}
	if ci < 0 {
		return
	}
	p.classes[ci].Put(f)
}

// ---------------------------------------------------------------------
// Frame encoding.

// newFrame returns a pooled buffer with the frame header reserved and w
// positioned to append the payload in place.
//
//gengar:hotpath
func (p *framePool) newFrame(w *payloadWriter, payloadHint int) *[]byte {
	f := p.get(frameHeader + payloadHint)
	w.Reset((*f)[:frameHeader])
	return f
}

// newTracedFrame is newFrame for a sampled request: it additionally
// reserves and fills the trace extension, so the payload writer starts
// after it. The caller stamps the frame with tagTraced set.
//
//gengar:hotpath
func (p *framePool) newTracedFrame(w *payloadWriter, payloadHint int, traceID uint64) *[]byte {
	f := p.get(frameHeader + traceExtSize + payloadHint)
	b := *f
	b[frameHeader] = traceExtLen
	b[frameHeader+1] = traceFlagSampled
	binary.BigEndian.PutUint64(b[frameHeader+2:], traceID)
	w.Reset(b[:frameHeader+traceExtSize])
	return f
}

// stampFrame writes the wire header over a frame image whose payload is
// already in place: length, request id, and tag (op or status).
//
//gengar:hotpath
func stampFrame(f *[]byte, id uint64, tag uint8) error {
	b := *f
	if len(b) > maxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	binary.BigEndian.PutUint64(b[4:], id)
	b[12] = tag
	return nil
}

// encodeFrameInto publishes w's accumulated frame image (header
// reserved by newFrame, payload appended in place) back into f and
// stamps the header. After it returns, *f is the exact byte sequence
// the frame queue hands to the kernel.
//
//gengar:hotpath
func encodeFrameInto(f *[]byte, w *payloadWriter, id uint64, tag uint8) error {
	*f = w.Bytes()
	return stampFrame(f, id, tag)
}

// encodeFrame builds a complete frame from a detached payload — the
// cold path for error responses and tests; hot paths encode in place
// via newFrame/encodeFrameInto.
func (p *framePool) encodeFrame(id uint64, tag uint8, payload []byte) (*[]byte, error) {
	var w payloadWriter
	f := p.newFrame(&w, len(payload))
	w.Reset(append((*f)[:frameHeader], payload...))
	if err := encodeFrameInto(f, &w, id, tag); err != nil {
		p.put(f)
		return nil, err
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Frame reading.

// connReadBuf sizes the per-connection buffered reader: one kernel read
// drains many queued frames, the receive-side mirror of the frame
// queue's writev coalescing.
const connReadBuf = 64 << 10

// frameReader reads frames from a buffered connection into pooled
// buffers.
type frameReader struct {
	br   *bufio.Reader
	pool *framePool
	// hdr receives each frame's length prefix. It lives here because a
	// local would escape through io.ReadFull and cost one heap
	// allocation per frame.
	hdr [4]byte
}

func newFrameReader(conn io.Reader, pool *framePool) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(conn, connReadBuf), pool: pool}
}

// read receives one message. On success the returned frame owns the
// pooled storage backing payload; the caller recycles it with
// pool.put(frame) once the payload is dead. A frame flagged tagTraced
// has its extension decoded into ext and stripped from both the
// returned tag and payload; a malformed extension is rejected in the
// ErrFrameTooLarge class, like any other unparseable header.
//
//gengar:hotpath
func (r *frameReader) read() (id uint64, tag uint8, frame *[]byte, payload []byte, ext traceExt, err error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, 0, nil, nil, traceExt{}, err
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n < 9 || n > maxFrame {
		return 0, 0, nil, nil, traceExt{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	frame = r.pool.get(int(n))
	body := *frame
	if _, err := io.ReadFull(r.br, body); err != nil {
		r.pool.put(frame)
		return 0, 0, nil, nil, traceExt{}, err
	}
	id, tag, payload = binary.BigEndian.Uint64(body), body[8], body[9:]
	if tag&tagTraced != 0 {
		tag &^= tagTraced
		// The extension is length-versioned: at least the fields this
		// version defines, and any longer tail is skipped unread.
		if len(payload) < traceExtSize || int(payload[0]) < traceExtLen || 1+int(payload[0]) > len(payload) {
			r.pool.put(frame)
			return 0, 0, nil, nil, traceExt{}, fmt.Errorf("%w: bad trace extension", ErrFrameTooLarge)
		}
		ext.present = true
		ext.sampled = payload[1]&traceFlagSampled != 0
		ext.traceID = binary.BigEndian.Uint64(payload[2:])
		payload = payload[1+int(payload[0]):]
	}
	return id, tag, frame, payload, ext, nil
}

// frameBuffered reports whether a whole further frame already sits in
// the read buffer, so the next read cannot wait on the peer. A partial
// frame does not count: the sender may not have sent the rest yet.
//
//gengar:hotpath
func (r *frameReader) frameBuffered() bool {
	have := r.br.Buffered()
	hdr, _ := r.br.Peek(min(4, have)) // never more than is buffered: no read
	return len(hdr) == 4 && uint64(binary.BigEndian.Uint32(hdr))+4 <= uint64(have)
}

// ---------------------------------------------------------------------
// Frame queue: the send half of a connection.

// frameQueue serializes frame writes onto one connection with a
// combining flush and no goroutine of its own: enqueue appends under mu
// and, if nobody is flushing and the queue is not corked, the enqueuing
// goroutine becomes the flusher — it swaps the queue out, drops mu,
// hands the batch to the kernel as one Write (one frame) or one writev
// (several), recycles the frames and repeats until the queue is empty.
// Whoever enqueues meanwhile only appends, so concurrent callers and
// parked handlers coalesce into the flusher's next writev. The daemon's
// reader, knowing more frames follow while a whole further request is
// buffered, corks the queue and flushes their replies together when it
// uncorks. A client never corks: a batched call is one frame per home.
//
// mu is never held across the write. A flusher keeps draining what other
// goroutines appended while it was in the syscall — at most one frame
// per closed-loop caller on the connection per round. And the write is
// the sender's own: a daemon reader blocked in Write to a client that
// stopped reading stops consuming that client's requests — backpressure,
// where a writer goroutine's queue would grow without bound.
//
// Enqueued frames transfer ownership; the flusher recycles them after
// the write. A span riding a frame is the flusher's too: it marks the
// writevFlush stage once the syscall returns and finishes the span — a
// single-owner hand-off, so a traced response attributes its queue wait
// plus syscall share without any span locking.
type frameQueue struct {
	conn net.Conn
	pool *framePool

	// Telemetry, optionally wired by the owning endpoint.
	framesPerFlush  *metrics.Histogram // frames drained per writev
	bytesPerSyscall *metrics.Histogram // bytes handed to the kernel per writev

	mu       sync.Mutex
	queue    []queuedFrame // frames awaiting flush
	spare    []queuedFrame // drained slice, recycled to become the next queue
	flushing bool          // a goroutine is in flush, mu dropped around its write
	corked   int           // senders that owe a cork(false)
	err      error         // first write failure; sticky
	closed   bool
	idle     sync.Cond // close waits here for the flusher to retire

	vecs net.Buffers // the flusher's writev scratch, reused across flushes
	// sendv is the header WriteTo consumes. (*net.Buffers).WriteTo has a
	// pointer receiver, so a local copy of vecs would escape and cost one
	// heap allocation per writev; a field is already on the heap.
	sendv net.Buffers
}

// queuedFrame is one frame awaiting flush, with the span riding it (nil
// for the untraced common case).
type queuedFrame struct {
	f  *[]byte
	sp *span.Span
}

func newFrameQueue(conn net.Conn, pool *framePool) *frameQueue {
	q := &frameQueue{conn: conn, pool: pool}
	q.idle.L = &q.mu
	return q
}

// enqueue queues one stamped frame and, unless the queue is corked or
// another goroutine is flushing, writes it before returning. The frame
// is recycled and sp (nil when untraced) finished after the write — or
// here, without a writevFlush mark, if the queue is already dead.
//
//gengar:hotpath
func (q *frameQueue) enqueue(f *[]byte, sp *span.Span) error {
	q.mu.Lock()
	if q.err != nil || q.closed {
		err := q.err
		q.mu.Unlock()
		q.pool.put(f)
		sp.Finish()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	q.queue = append(q.queue, queuedFrame{f: f, sp: sp})
	q.flush()
	q.mu.Unlock()
	return nil
}

// cork(true) holds frames back until the matching cork(false) flushes
// them in one writev; nothing in between may wait on the peer.
func (q *frameQueue) cork(on bool) {
	q.mu.Lock()
	if on {
		q.corked++
	} else {
		q.corked--
		q.flush()
	}
	q.mu.Unlock()
}

// flush makes the caller the flusher unless there already is one; mu is
// held on entry and on return, dropped around each write. A write failure
// poisons the queue and closes the connection so the read side tears the
// session down — a response that cannot be delivered must kill the
// connection, not leave the read loop consuming requests to no effect.
//
//gengar:hotpath
func (q *frameQueue) flush() {
	if q.flushing {
		return
	}
	q.flushing = true
	for len(q.queue) > 0 && (q.corked == 0 || q.closed) {
		batch := q.queue
		q.queue = q.spare[:0]
		failed := q.err != nil
		q.mu.Unlock()
		if !failed {
			total := 0
			q.vecs = q.vecs[:0]
			for _, e := range batch {
				q.vecs = append(q.vecs, *e.f)
				total += len(*e.f)
			}
			if q.framesPerFlush != nil {
				q.framesPerFlush.Observe(int64(len(batch)))
			}
			if q.bytesPerSyscall != nil {
				q.bytesPerSyscall.Observe(int64(total))
			}
			var err error
			if len(batch) == 1 { // a lone frame needs no writev
				_, err = q.conn.Write(q.vecs[0])
			} else {
				q.sendv = q.vecs // WriteTo consumes the header; keep q.vecs anchored
				_, err = q.sendv.WriteTo(q.conn)
			}
			if err != nil {
				q.fail(err)
			}
		}
		for i, e := range batch {
			q.pool.put(e.f)
			if e.sp != nil {
				e.sp.Mark(span.StageWritevFlush)
				e.sp.Finish()
			}
			batch[i] = queuedFrame{}
		}
		q.mu.Lock()
		q.spare = batch[:0]
	}
	q.flushing = false
	if q.closed {
		q.idle.Broadcast()
	}
}

// fail records the first write error and severs the connection, which
// unblocks the connection's read loop and triggers teardown.
func (q *frameQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	_ = q.conn.Close()
}

// close refuses further frames, waits out a flusher in progress and
// writes what is still queued, corked or not. Safe to call twice.
func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	for q.flushing {
		q.idle.Wait()
	}
	q.flush()
	q.mu.Unlock()
}

// ---------------------------------------------------------------------
// Connection tuning.

// defaultKeepAlive is the keep-alive probe period on every connection,
// dialed or accepted.
const defaultKeepAlive = 30 * time.Second

// tuneConn applies the transport settings to a TCP connection: explicit
// TCP_NODELAY (the wire layer does its own coalescing in the frame
// queue, so Nagle's delayed small writes would only add latency) and
// keep-alive probes so half-dead peers are detected even when the
// protocol is idle. Non-TCP connections (in-process pipes in tests)
// pass through untouched.
func tuneConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(true)
	_ = tc.SetKeepAlive(true)
	_ = tc.SetKeepAlivePeriod(defaultKeepAlive)
}
