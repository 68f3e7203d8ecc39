package tcpnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gengar/internal/metrics"
)

// gatedConn wraps a net.Conn so tests can stall and fail its write
// side independently of the (still healthy) read side.
type gatedConn struct {
	net.Conn
	mu       sync.Mutex
	gate     chan struct{} // non-nil: writes block here first
	atGate   chan struct{} // with gate: receives a token per write that reaches it
	writeErr error         // non-nil: writes fail with this
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	gate, atGate, werr := c.gate, c.atGate, c.writeErr
	c.mu.Unlock()
	if gate != nil {
		atGate <- struct{}{}
		<-gate
	}
	if werr != nil {
		return 0, werr
	}
	return c.Conn.Write(b)
}

func (c *gatedConn) setWriteErr(err error) {
	c.mu.Lock()
	c.writeErr = err
	c.mu.Unlock()
}

// closeGate makes the next write block; the returned open lets it (and
// every later write) through. atGate tells the test a write is held.
func (c *gatedConn) closeGate() (atGate <-chan struct{}, open func()) {
	gate, at := make(chan struct{}), make(chan struct{}, 1)
	c.mu.Lock()
	c.gate, c.atGate = gate, at
	c.mu.Unlock()
	return at, func() {
		c.mu.Lock()
		c.gate, c.atGate = nil, nil
		c.mu.Unlock()
		close(gate)
	}
}

// pipeQueue returns a frame queue writing to a gated in-process pipe,
// its frame pool, and a channel delivering the id of every frame the
// far end receives, in order (closed when the pipe is).
func pipeQueue(t *testing.T) (*frameQueue, *framePool, *gatedConn, <-chan uint64) {
	t.Helper()
	c1, c2 := net.Pipe()
	gc := &gatedConn{Conn: c1}
	pool := new(framePool)
	q := newFrameQueue(gc, pool)
	q.framesPerFlush = new(metrics.Histogram)
	q.bytesPerSyscall = new(metrics.Histogram)
	ids := make(chan uint64, 64) // more than any test here sends
	go func() {
		defer close(ids)
		r := newFrameReader(c2, pool)
		for {
			id, _, frame, _, _, err := r.read()
			if err != nil {
				return
			}
			pool.put(frame)
			ids <- id
		}
	}()
	t.Cleanup(func() {
		_ = gc.Close()
		_ = c2.Close()
	})
	return q, pool, gc, ids
}

func testFrame(t *testing.T, pool *framePool, id uint64) *[]byte {
	t.Helper()
	f, err := pool.encodeFrame(id, statusOK, []byte("response"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlushCoalescing pins the combining flush. A lone enqueue on an
// idle queue is on the wire before enqueue returns. While a flusher is
// held inside Write, other goroutines' enqueues only append — they
// return at once, the flusher does not hold the queue lock against them
// (a parked handler and a flushing reader never block each other) — and
// everything they queued leaves in the flusher's one following writev.
func TestFlushCoalescing(t *testing.T) {
	q, pool, gc, ids := pipeQueue(t)

	if err := q.enqueue(testFrame(t, pool, 1), nil); err != nil {
		t.Fatal(err)
	}
	if n := q.framesPerFlush.Count(); n != 1 {
		t.Fatalf("%d writes by the time a lone enqueue returned, want 1", n)
	}
	if id := <-ids; id != 1 {
		t.Fatalf("far end got frame %d first, want 1", id)
	}

	atGate, open := gc.closeGate()
	flusher := make(chan error, 1)
	held := testFrame(t, pool, 2)
	go func() { flusher <- q.enqueue(held, nil) }()
	<-atGate // frame 2's enqueuer is the flusher, held in Write
	for id := uint64(3); id <= 5; id++ {
		if err := q.enqueue(testFrame(t, pool, id), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.framesPerFlush.Count(); n != 2 {
		t.Fatalf("%d writes while the flusher is held, want 2: an enqueue behind a flusher must only append", n)
	}
	open()
	if err := <-flusher; err != nil {
		t.Fatal(err)
	}
	for want := uint64(2); want <= 5; want++ {
		if id := <-ids; id != want {
			t.Fatalf("far end got frame %d, want %d", id, want)
		}
	}
	if n, most := q.framesPerFlush.Count(), int64(q.framesPerFlush.Max()); n != 3 || most != 3 {
		t.Fatalf("%d writes, largest %d frames; want 3 writes, the last carrying the 3 frames queued behind the flusher", n, most)
	}
	if q.bytesPerSyscall.Count() != 3 {
		t.Fatal("bytes-per-syscall histogram out of step with the flushes")
	}
}

// TestFrameQueueCloseWaitsForFlusher: close during a flush returns only
// once the flusher has retired, and an enqueue after it is refused with
// ErrClosed and its frame recycled.
func TestFrameQueueCloseWaitsForFlusher(t *testing.T) {
	q, pool, gc, ids := pipeQueue(t)
	atGate, open := gc.closeGate()
	flusher := make(chan error, 1)
	held := testFrame(t, pool, 1)
	go func() { flusher <- q.enqueue(held, nil) }()
	<-atGate
	if err := q.enqueue(testFrame(t, pool, 2), nil); err != nil { // queued behind the flusher
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		q.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while a flusher was still inside Write")
	case <-time.After(20 * time.Millisecond):
	}
	open()
	<-closed
	if err := <-flusher; err != nil {
		t.Fatal(err)
	}
	if a, b := <-ids, <-ids; a != 1 || b != 2 {
		t.Fatalf("far end got frames %d, %d; want 1, 2 (close must not drop what was queued)", a, b)
	}
	// sync.Pool drops a quarter of puts under the race detector, so look
	// for one recycled frame among several refused ones.
	before := pool.hits.Load()
	for i := 0; i < 50 && pool.hits.Load() == before; i++ {
		if err := q.enqueue(testFrame(t, pool, 3), nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("enqueue after close: %v, want ErrClosed", err)
		}
	}
	if pool.hits.Load() == before {
		t.Fatal("frames refused by a closed queue were not recycled")
	}
	q.close() // idempotent
}

// TestFrameQueueWriteErrorFailsWaiters: the caller that hits a write
// error on the inline path severs the connection, which fails its own
// waiter and every other request in flight on it.
func TestFrameQueueWriteErrorFailsWaiters(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() { _, _ = io.Copy(io.Discard, c2) }() // a peer that never answers
	gc := &gatedConn{Conn: c1}
	pool := new(framePool)
	sc := &serverConn{
		c: gc, q: newFrameQueue(gc, pool), frames: pool,
		pending: make(map[uint64]chan response), done: make(chan struct{}),
	}
	go sc.demux()
	defer sc.close()

	send := func() (chan response, error) {
		var w payloadWriter
		f := pool.newFrame(&w, 8)
		w.U64(1)
		return sc.start(f, &w, OpVersion, nil)
	}
	first, err := send() // written; its reply never comes
	if err != nil {
		t.Fatal(err)
	}
	gc.setWriteErr(errors.New("injected write failure"))
	second, err := send()
	if err != nil {
		t.Fatalf("start: %v (a write error reaches the caller through its waiter)", err)
	}
	for i, ch := range []chan response{first, second} {
		if _, err := sc.wait(ch, OpVersion, nil); err == nil {
			t.Fatalf("waiter %d survived a severed connection", i+1)
		}
	}
	if !sc.dead() {
		t.Fatal("connection not marked dead after a write error")
	}
	if _, err := send(); err == nil {
		t.Fatal("start on a dead connection succeeded")
	}
}

// TestFrameQueueConcurrentEnqueue hammers one queue from several
// goroutines over a real loopback: every frame arrives once, intact and
// in its goroutine's order. The far end reads nothing until all but one
// sender are done — which they can only be because an enqueue behind a
// blocked flusher appends and returns — so the backlog they leave must
// show up as multi-frame writevs.
func TestFrameQueueConcurrentEnqueue(t *testing.T) {
	const senders, perSender, size = 8, 192, 16 << 10 // 24 MiB: more than a socket buffers
	q, pool, peer := loopbackQueue(t)
	q.framesPerFlush = new(metrics.Histogram)

	var wg sync.WaitGroup
	finished := make(chan struct{}, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, size)
			for i := 0; i < perSender; i++ {
				f, err := pool.encodeFrame(uint64(g)<<32|uint64(i), statusOK, payload)
				if err == nil {
					err = q.enqueue(f, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			finished <- struct{}{}
		}(g)
	}
	for i := 0; i < senders-1; i++ {
		<-finished
	}
	r := newFrameReader(peer, pool)
	var next [senders]uint64
	for n := 0; n < senders*perSender; n++ {
		id, _, frame, payload, _, err := r.read()
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		g, i := int(id>>32), id&0xffffffff
		if g >= senders || i != next[g] {
			t.Fatalf("sender %d: got frame %d, want %d", g, i, next[g])
		}
		next[g]++
		if len(payload) != size || bytes.Count(payload, []byte{byte(g + 1)}) != size {
			t.Fatalf("sender %d frame %d arrived damaged", g, i)
		}
		pool.put(frame)
	}
	wg.Wait()
	if most := int64(q.framesPerFlush.Max()); most < 2 {
		t.Fatalf("largest writev carried %d frame(s): senders queued behind a blocked flusher did not coalesce", most)
	}
}

// TestFrameQueueChainIsOneWrite counts write calls with the flush
// histograms (one observation per Write or writev; a wrapping net.Conn
// cannot see a writev): a ReadMulti or a WriteMulti of 8 records to one
// home is one frame in one write each way — while each lone op is its
// own.
func TestFrameQueueChainIsOneWrite(t *testing.T) {
	srv, addr := startTracedServer(t, nil)
	p := dialPool(t, []string{addr})
	const k = 8
	base, err := p.Malloc(k * 256)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.connByID(base.Server())
	if err != nil {
		t.Fatal(err)
	}
	client := new(metrics.Histogram)
	sc.q.framesPerFlush = client
	writes := make([]WriteReq, k)
	reads := make([]ReadReq, k)
	for i := range writes {
		a := base.Add(int64(i * 256))
		writes[i] = WriteReq{Addr: a, Data: bytes.Repeat([]byte{byte(i + 1)}, 256)}
		reads[i] = ReadReq{Addr: a, Buf: make([]byte, 256)}
	}

	if err := p.WriteMulti(writes); err != nil {
		t.Fatal(err)
	}
	if n, most := client.Count(), int64(client.Max()); n != 1 || most != 1 {
		t.Fatalf("WriteMulti: %d client writes, largest %d frames; want one write of one frame", n, most)
	}
	replies := srv.framesPerFlush.Count()
	if err := p.ReadMulti(reads); err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if !bytes.Equal(reads[i].Buf, writes[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if n, most := client.Count(), int64(client.Max()); n != 2 || most != 1 {
		t.Fatalf("ReadMulti: %d client writes in all, largest %d frames; want 2 writes of one frame", n, most)
	}
	if n, most := srv.framesPerFlush.Count()-replies, int64(srv.framesPerFlush.Max()); n != 1 || most != 1 {
		t.Fatalf("ReadMulti: its reply left the daemon in %d writes, largest %d frames; want one write of one frame", n, most)
	}
	replies = srv.framesPerFlush.Count()
	if err := p.Read(base, reads[0].Buf); err != nil {
		t.Fatal(err)
	}
	if c, s := client.Count(), srv.framesPerFlush.Count()-replies; c != 3 || s != 1 {
		t.Fatalf("lone Read: %d client writes in all, %d daemon writes; want 3 and 1", c, s)
	}
}

// TestFrameQueuePartialFrameNeverCorks: a request's reply must not wait
// for a following request the client has only begun to send. Request A
// arrives whole together with the first 10 bytes of request B; A's reply
// comes back while B is still incomplete, then B is finished and
// answered.
func TestFrameQueuePartialFrameNeverCorks(t *testing.T) {
	srv, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c1, c2 := net.Pipe()
	defer c2.Close()
	go srv.serveConn(c1)
	_ = c2.SetDeadline(time.Now().Add(5 * time.Second)) // fail, not hang

	var pool framePool
	malloc := func(id uint64) []byte {
		var w payloadWriter
		f := pool.newFrame(&w, 8)
		w.I64(64)
		if err := encodeFrameInto(f, &w, id, uint8(OpMalloc)); err != nil {
			t.Fatal(err)
		}
		return *f
	}
	a, b := malloc(1), malloc(2)
	if _, err := c2.Write(append(append([]byte(nil), a...), b[:10]...)); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(c2, &pool)
	if id, tag, _, _, _, err := r.read(); err != nil || id != 1 || tag != statusOK {
		t.Fatalf("reply to A with B half sent: id=%d tag=%d err=%v", id, tag, err)
	}
	if _, err := c2.Write(b[10:]); err != nil {
		t.Fatal(err)
	}
	if id, tag, _, _, _, err := r.read(); err != nil || id != 2 || tag != statusOK {
		t.Fatalf("reply to B once complete: id=%d tag=%d err=%v", id, tag, err)
	}
}

// loopbackQueue returns a frame queue writing to one end of a real TCP
// loopback connection (so flushes take the writev path, which net.Pipe
// does not have), its frame pool, and the peer end to read from.
func loopbackQueue(t *testing.T) (*frameQueue, *framePool, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	pool := new(framePool)
	q := newFrameQueue(conn, pool)
	t.Cleanup(func() {
		q.close()
		_ = conn.Close()
		_ = peer.Close()
	})
	return q, pool, peer
}

// TestEnqueueFlushCycle is the race-mode twin of the allocation gate in
// wire_alloc_test.go: single frames through enqueue, its inline write,
// and the peer's read, one at a time.
func TestEnqueueFlushCycle(t *testing.T) {
	q, pool, peer := loopbackQueue(t)
	payload := bytes.Repeat([]byte{0xa7}, 200)
	got := make([]byte, frameHeader+len(payload))
	for i := 0; i < 200; i++ {
		payload[0] = byte(i)
		f, err := pool.encodeFrame(uint64(i+1), statusOK, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.enqueue(f, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[frameHeader:], payload) {
			t.Fatalf("frame %d: peer read different bytes", i)
		}
	}
}

// TestFrameReadCycle is the race-mode twin of TestFrameReadAllocs:
// single frames through enqueue, its write, and the frame reader on
// the peer end, one at a time, id, tag and payload intact.
func TestFrameReadCycle(t *testing.T) {
	q, pool, peer := loopbackQueue(t)
	r := newFrameReader(peer, pool)
	payload := bytes.Repeat([]byte{0xa7}, 200)
	for i := 0; i < 200; i++ {
		payload[0] = byte(i)
		f, err := pool.encodeFrame(uint64(i+1), statusOK, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.enqueue(f, nil); err != nil {
			t.Fatal(err)
		}
		id, tag, frame, got, _, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i+1) || tag != statusOK || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d: read id %d tag %d and different bytes", i, id, tag)
		}
		pool.put(frame)
	}
}

// TestAbortDrainsClaimedWaiter covers the start/failAll race: when a
// request's send fails because the connection died, failAll may already
// have claimed its id and sent a failure into the waiter channel. The
// abort path must drain that message before the channel returns to the
// pool — re-pooling it buffered hands the stale response (or another
// request's payload) to a future caller.
func TestAbortDrainsClaimedWaiter(t *testing.T) {
	var pool framePool
	sc := &serverConn{frames: &pool, pending: make(map[uint64]chan response)}

	// Uncontended path: the id is still pending; abort unregisters it
	// and the empty channel is safe to pool.
	ch := make(chan response, 1)
	sc.pending[1] = ch
	sc.abort(1, ch)
	if _, live := sc.pending[1]; live {
		t.Fatal("abort left the waiter registered")
	}
	select {
	case <-ch:
		t.Fatal("abort of a still-pending id produced a message")
	default:
	}

	// Raced path: failAll (or demux) claimed the id first and delivered
	// a response carrying a pooled frame. Abort must consume it so the
	// channel is empty — and the frame recycled — before re-pooling.
	ch = make(chan response, 1)
	f := pool.get(32)
	ch <- response{frame: f, payload: (*f)[:0]}
	sc.abort(2, ch)
	select {
	case <-ch:
		t.Fatal("abort left the claimed response buffered in the channel")
	default:
	}
}

// TestOversizedReadKeepsConnAlive covers the regression where an OpRead
// whose reply could not fit a frame only failed at stampFrame, which
// poisoned the frame queue and severed the connection. A read the pool
// can satisfy but the wire cannot must come back as an ordinary error
// frame on a connection that keeps serving.
func TestOversizedReadKeepsConnAlive(t *testing.T) {
	addrs := startServers(t, 1, func(c *ServerConfig) { c.PoolBytes = 32 << 20 })
	p := dialPool(t, addrs)

	a, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.connByID(a.Server())
	if err != nil {
		t.Fatal(err)
	}

	// Reply frame would be frameHeader+4+n+1 = maxFrame+1 bytes.
	big := make([]byte, maxFrame-frameHeader-4)
	err = p.Read(a, big)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("oversized read: got %v, want RemoteError", err)
	}
	if sc.dead() {
		t.Fatal("oversized read severed the connection")
	}
	if err := p.Read(a, make([]byte, 64)); err != nil {
		t.Fatalf("follow-up read on the same connection: %v", err)
	}
}

// TestOversizedBatchCountKeepsConnAlive sends OpWriteBatch frames whose
// leading count promises far more records than the 4-byte payload
// holds. The daemon used to size a slice by that count before
// reading one record (a 17-byte frame asked for gigabytes); it must
// answer with an error frame on a connection that keeps serving.
func TestOversizedBatchCountKeepsConnAlive(t *testing.T) {
	addrs := startServers(t, 1, nil)
	p := dialPool(t, addrs)

	a, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.connByID(a.Server())
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint32{0x0fffffff, 0xffffffff} {
		var w payloadWriter
		f := sc.frames.newFrame(&w, 4)
		w.U32(count)
		err := sc.call(f, &w, OpWriteBatch, nil)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("write batch with count %#x: got %v, want RemoteError", count, err)
		}
		if sc.dead() {
			t.Fatalf("write batch with count %#x severed the connection", count)
		}
		if err := p.Read(a, make([]byte, 64)); err != nil {
			t.Fatalf("read after write batch with count %#x: %v", count, err)
		}
	}
}

// TestOversizedReadBatchKeepsConnAlive: an OpReadBatch whose count its
// payload cannot hold, or whose records would sum to a reply larger than
// a frame, is answered with an error frame before anything is sized by
// it — on a connection that keeps serving.
func TestOversizedReadBatchKeepsConnAlive(t *testing.T) {
	p := dialPool(t, startServers(t, 1, func(c *ServerConfig) { c.PoolBytes = 32 << 20 }))
	a, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.connByID(a.Server())
	if err != nil {
		t.Fatal(err)
	}
	half := uint32(maxFrame/2 + 1) // each record fits the pool; two overflow a reply frame
	for _, tc := range []struct {
		name    string
		payload func(w *payloadWriter)
	}{
		{"count 1<<31", func(w *payloadWriter) { w.U32(1 << 31) }},
		{"summed length above maxFrame", func(w *payloadWriter) {
			w.U32(2).U64(uint64(a)).U32(half).U64(uint64(a)).U32(half)
		}},
	} {
		var w payloadWriter
		f := sc.frames.newFrame(&w, 28)
		tc.payload(&w)
		err := sc.call(f, &w, OpReadBatch, nil)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s: got %v, want RemoteError", tc.name, err)
		}
		if sc.dead() {
			t.Fatalf("%s severed the connection", tc.name)
		}
		if err := p.ReadMulti([]ReadReq{{Addr: a, Buf: make([]byte, 64)}}); err != nil {
			t.Fatalf("ReadMulti after %s: %v", tc.name, err)
		}
	}
}

// TestRetiredDigestOpIsUnknown: a client on an older build that still
// sends the retired digest op's code gets "unknown op" on a connection
// that keeps serving — not another op, and no digest lands.
func TestRetiredDigestOpIsUnknown(t *testing.T) {
	p := dialPool(t, startServers(t, 1, nil))
	a, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.connByID(a.Server())
	if err != nil {
		t.Fatal(err)
	}
	var w payloadWriter
	f := sc.frames.newFrame(&w, 20)
	w.U32(1).U64(uint64(a)).U32(500).U32(0) // the old digest layout
	err = sc.call(f, &w, Op(12), nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown op") {
		t.Fatalf("retired op 12: got %v, want unknown op", err)
	}
	if sc.dead() {
		t.Fatal("retired op severed the connection")
	}
	if err := p.Read(a, make([]byte, 64)); err != nil {
		t.Fatalf("read after retired op: %v", err)
	}
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Digests != 0 {
		t.Fatalf("%d digests landed", st[0].Digests)
	}
}

// TestRecordCountBound pins the bound itself: a leading count is
// accepted only if the rest of the payload can hold that many records
// of the op's minimum size, and rejected before anything is allocated.
func TestRecordCountBound(t *testing.T) {
	cases := []struct {
		name  string
		count uint32
		rest  int // payload bytes after the count
		ok    bool
	}{
		{"empty batch", 0, 0, true},
		{"largest count that fits", 3, 3*writeRecordMin + writeRecordMin - 1, true},
		{"one more than fits", 4, 3*writeRecordMin + writeRecordMin - 1, false},
		{"0x0fffffff", 0x0fffffff, 0, false},
		{"0xffffffff", 0xffffffff, 1 << 10, false},
	}
	for _, tc := range cases {
		var w payloadWriter
		w.U32(tc.count)
		req := newPayloadReader(append(w.Bytes(), make([]byte, tc.rest)...))
		n, err := req.Count(writeRecordMin)
		switch {
		case tc.ok && (err != nil || n != int(tc.count)):
			t.Errorf("%s: got (%d, %v), want (%d, nil)", tc.name, n, err, tc.count)
		case !tc.ok && err == nil:
			t.Errorf("%s: count %d accepted with %d payload bytes behind it", tc.name, tc.count, tc.rest)
		}
	}
	if _, err := newPayloadReader([]byte{0, 0, 1}).Count(writeRecordMin); err == nil {
		t.Error("truncated count accepted")
	}
}

// TestFramePoolDropsOversized checks that exact-size allocations above
// the largest class are dropped on release rather than donated to the
// 1 MiB class, where they would be pinned behind ~1 MiB requests.
func TestFramePoolDropsOversized(t *testing.T) {
	var p framePool
	big := make([]byte, 2<<20)
	p.put(&big)
	largest := frameClasses[len(frameClasses)-1]
	if f, ok := p.classes[len(frameClasses)-1].Get().(*[]byte); ok && f != nil && cap(*f) > largest {
		t.Fatalf("oversized buffer (cap %d) donated to the %d class", cap(*f), largest)
	}

	// A buffer of exactly the largest class still recycles. Under the
	// race detector sync.Pool drops a quarter of puts on purpose, so
	// retry until a put sticks rather than asserting on a single cycle.
	before := p.hits.Load()
	recycled := false
	for i := 0; i < 50 && !recycled; i++ {
		exact := make([]byte, largest)
		p.put(&exact)
		p.put(p.get(largest))
		recycled = p.hits.Load() > before
	}
	if !recycled {
		t.Fatal("largest-class buffer was not recycled")
	}
}

// TestReadMultiRoundtrip pipelines a batch of reads spanning servers
// and verifies every buffer lands, including the error path: a read of
// a never-allocated address fails without losing the batch's other
// responses.
func TestReadMultiRoundtrip(t *testing.T) {
	addrs := startServers(t, 3, nil)
	p := dialPool(t, addrs)

	const k = 12
	var writes []WriteReq
	for i := 0; i < k; i++ {
		a, err := p.Malloc(512)
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, WriteReq{Addr: a, Data: bytes.Repeat([]byte{byte(i + 1)}, 512)})
	}
	if err := p.WriteMulti(writes); err != nil {
		t.Fatal(err)
	}
	reads := make([]ReadReq, k)
	for i := range reads {
		reads[i] = ReadReq{Addr: writes[i].Addr, Buf: make([]byte, 512)}
	}
	if err := p.ReadMulti(reads); err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if !bytes.Equal(reads[i].Buf, writes[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}

	// One bad address mid-batch: the call reports the failure, and the
	// good records still fill.
	for i := range reads {
		reads[i].Buf = make([]byte, 512)
	}
	bad := reads
	bad[k/2].Addr = writes[k/2].Addr + 1<<30
	if err := p.ReadMulti(bad); err == nil {
		t.Fatal("ReadMulti with an unmapped address succeeded")
	}
	if !bytes.Equal(bad[0].Buf, writes[0].Data) || !bytes.Equal(bad[k-1].Buf, writes[k-1].Data) {
		t.Fatal("good records lost alongside the failed one")
	}
}

// TestWriteFailureTearsDownConn covers the regression where a response
// write error was ignored and the daemon kept consuming requests whose
// replies went nowhere. A write failure must sever the connection and
// unwind the session even though the read side is still healthy.
func TestWriteFailureTearsDownConn(t *testing.T) {
	srv, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, c2 := net.Pipe()
	defer c2.Close()
	gc := &gatedConn{Conn: c1}
	done := make(chan struct{})
	go func() {
		srv.serveConn(gc)
		close(done)
	}()

	var pool framePool
	r := newFrameReader(c2, &pool)
	hello, _ := pool.encodeFrame(1, uint8(OpHello), nil)
	if _, err := c2.Write(*hello); err != nil {
		t.Fatal(err)
	}
	if _, tag, frame, _, _, err := r.read(); err != nil || tag != statusOK {
		t.Fatalf("hello: tag=%d err=%v", tag, err)
	} else {
		pool.put(frame)
	}

	// Break the write side only, then issue a request. The response
	// write fails, which must tear the whole connection down.
	gc.setWriteErr(errors.New("injected write failure"))
	var w payloadWriter
	req := pool.newFrame(&w, 8)
	w.I64(64)
	if err := encodeFrameInto(req, &w, 2, uint8(OpMalloc)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write(*req); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection alive after a response-write failure")
	}
}
