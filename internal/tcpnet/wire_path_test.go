package tcpnet

import (
	"bytes"
	"errors"
	"io"
	"net"
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
	writeErr error         // non-nil: writes fail with this
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	gate, werr := c.gate, c.writeErr
	c.mu.Unlock()
	if gate != nil {
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

// TestFlushCoalescing drives the frame queue through a stalled first
// write and checks that frames enqueued during the stall leave as one
// batch — the writev coalescing the wire path is built around.
func TestFlushCoalescing(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	gate := make(chan struct{})
	gc := &gatedConn{Conn: c1, gate: gate}

	var pool framePool
	q := newFrameQueue(gc, &pool)
	q.framesPerFlush = new(metrics.Histogram)
	q.bytesPerSyscall = new(metrics.Histogram)

	// Drain everything the queue writes so the pipe never backs up once
	// the gate opens.
	drained := make(chan int)
	go func() {
		n, _ := io.Copy(io.Discard, c2)
		drained <- int(n)
	}()

	// First frame occupies the writer goroutine at the gate; the next
	// three pile up in the queue and must flush together.
	var total int
	for i := 0; i < 4; i++ {
		f, err := pool.encodeFrame(uint64(i+1), statusOK, []byte("response"))
		if err != nil {
			t.Fatal(err)
		}
		total += len(*f)
		if err := q.enqueue(f); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Give the writer goroutine time to reach the gate so the
			// remaining frames land in the same pending batch.
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(gate)
	q.close()
	_ = gc.Close()
	if got := <-drained; got != total {
		t.Fatalf("receiver got %d bytes, want %d", got, total)
	}
	if int64(q.framesPerFlush.Max()) < 3 {
		t.Fatalf("max frames per flush = %d, want >= 3 (no coalescing)", q.framesPerFlush.Max())
	}
	if q.framesPerFlush.Count() < 1 || q.bytesPerSyscall.Count() < 1 {
		t.Fatal("flush histograms never observed")
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
// wire_alloc_test.go: single frames through enqueue, the writer
// goroutine's writev, and the peer's read, one at a time.
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
		if err := q.enqueue(f); err != nil {
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
// single frames through enqueue, the writev, and the frame reader on
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
		if err := q.enqueue(f); err != nil {
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
	sc, err := p.conn(a)
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

// TestOversizedBatchCountKeepsConnAlive sends OpWriteBatch and OpDigest
// frames whose leading count promises far more records than the 4-byte
// payload holds. The daemon used to size a slice by that count before
// reading one record (a 17-byte frame asked for gigabytes); it must
// answer with an error frame on a connection that keeps serving.
func TestOversizedBatchCountKeepsConnAlive(t *testing.T) {
	addrs := startServers(t, 1, nil)
	p := dialPool(t, addrs)

	a, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := p.conn(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpWriteBatch, OpDigest} {
		for _, count := range []uint32{0x0fffffff, 0xffffffff} {
			var w payloadWriter
			f := sc.frames.newFrame(&w, 4)
			w.U32(count)
			err := sc.call(f, &w, op, nil)
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("%v with count %#x: got %v, want RemoteError", op, count, err)
			}
			if sc.dead() {
				t.Fatalf("%v with count %#x severed the connection", op, count)
			}
			if err := p.Read(a, make([]byte, 64)); err != nil {
				t.Fatalf("read after %v with count %#x: %v", op, count, err)
			}
		}
	}
}

// TestRecordCountBound pins the bound itself: a leading count is
// accepted only if the rest of the payload can hold that many records
// of the op's minimum size, and rejected before anything is allocated.
func TestRecordCountBound(t *testing.T) {
	cases := []struct {
		name        string
		count       uint32
		rest        int // payload bytes after the count
		recordBytes int
		ok          bool
	}{
		{"empty batch", 0, 0, writeRecordMin, true},
		{"write: largest count that fits", 3, 3*writeRecordMin + writeRecordMin - 1, writeRecordMin, true},
		{"write: one more than fits", 4, 3*writeRecordMin + writeRecordMin - 1, writeRecordMin, false},
		{"write: 0x0fffffff", 0x0fffffff, 0, writeRecordMin, false},
		{"write: 0xffffffff", 0xffffffff, 1 << 10, writeRecordMin, false},
		{"digest: largest count that fits", 5, 5 * digestEntryBytes, digestEntryBytes, true},
		{"digest: one more than fits", 6, 5 * digestEntryBytes, digestEntryBytes, false},
		{"digest: 0x0fffffff", 0x0fffffff, 0, digestEntryBytes, false},
		{"digest: 0xffffffff", 0xffffffff, 1 << 10, digestEntryBytes, false},
	}
	for _, tc := range cases {
		var w payloadWriter
		w.U32(tc.count)
		req := newPayloadReader(append(w.Bytes(), make([]byte, tc.rest)...))
		n, err := recordCount(req, tc.recordBytes)
		switch {
		case tc.ok && (err != nil || n != int(tc.count)):
			t.Errorf("%s: got (%d, %v), want (%d, nil)", tc.name, n, err, tc.count)
		case !tc.ok && err == nil:
			t.Errorf("%s: count %d accepted with %d payload bytes behind it", tc.name, tc.count, tc.rest)
		}
	}
	if _, err := recordCount(newPayloadReader([]byte{0, 0, 1}), writeRecordMin); err == nil {
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
