//go:build !race

// Allocation-regression tests for the wire path: request and response
// frames come from the size-classed frame pool and payloads are decoded
// off the pooled body in place, so a small-object round trip must stay
// within a handful of allocations — channel operations and the few
// interface conversions the runtime charges, not buffers. The race
// detector instruments allocations, so these run only in normal builds.

package tcpnet

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// Caps. The read cap is headroom over a measured 0: the point is
// catching a regression back to per-request buffer allocation (the old
// wire path charged ~23 allocs per round trip), not pinning the
// runtime's exact accounting. The write cap is the measured count: a
// staged record rides pooled frames, a pooled pending buffer and a typed
// worker channel, so one allocation per write is a regression (a record
// boxed on its way to the flush worker was exactly that).
const (
	maxReadAllocs  = 10
	maxWriteAllocs = 0
)

func allocPool(t *testing.T) *Pool {
	t.Helper()
	addrs := startServers(t, 1, func(c *ServerConfig) { c.PoolBytes = 1 << 22 })
	p, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestReadRoundTripAllocs(t *testing.T) {
	p := allocPool(t)
	a, err := p.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x6b}, 256)
	if err := p.Write(a, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	// Warm the frame pool and the daemon's session state.
	for i := 0; i < 64; i++ {
		if err := p.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(buf, want) {
		t.Fatal("read returned wrong bytes")
	}
	if avg > maxReadAllocs {
		t.Fatalf("OpRead round trip: %.1f allocs/op, want <= %d", avg, maxReadAllocs)
	}
}

// dialTracedPool dials its own single-server deployment with the given
// trace cadence. A cadence of 1<<30 never fires within a test, so every
// op runs the full sampling gate and traced-frame decision without ever
// allocating a span — the configuration the zero-allocation tracing
// claim covers.
func dialTracedPool(t *testing.T, sample int) *Pool {
	t.Helper()
	addrs := startServers(t, 1, func(c *ServerConfig) { c.PoolBytes = 1 << 22 })
	p, err := DialConfig(PoolConfig{Addrs: addrs, Timeout: 2 * time.Second, TraceSample: sample})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// minAllocs is the smallest of five AllocsPerRun(200, f) samples. The
// daemon's flush workers allocate on their own schedule and a GC empties
// the sync.Pools behind frames and pending buffers, so one sample can
// read one high; an allocation f itself makes is in every sample and
// still moves the minimum by one (core's scratch_alloc_test.go does the
// same for the sim mount).
func minAllocs(f func()) float64 {
	best := testing.AllocsPerRun(200, f)
	for i := 1; i < 5; i++ {
		if a := testing.AllocsPerRun(200, f); a < best {
			best = a
		}
	}
	return best
}

// measureOpAllocs reports steady-state allocs/op (minAllocs) for a read,
// a write, a 4-record ReadMulti and a 4-record WriteMulti against p.
func measureOpAllocs(t *testing.T, p *Pool) (read, write, readMulti, writeMulti float64) {
	t.Helper()
	a, err := p.Malloc(4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, 256)
	buf := make([]byte, 256)
	rreqs := make([]ReadReq, 4)
	wreqs := make([]WriteReq, 4)
	for i := range rreqs {
		rreqs[i] = ReadReq{Addr: a.Add(int64(i * 256)), Buf: make([]byte, 256)}
		wreqs[i] = WriteReq{Addr: a.Add(int64(i * 256)), Data: data}
	}
	for i := 0; i < 64; i++ {
		if err := p.Write(a, data); err != nil {
			t.Fatal(err)
		}
		if err := p.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteMulti(wreqs); err != nil {
			t.Fatal(err)
		}
		if err := p.ReadMulti(rreqs); err != nil {
			t.Fatal(err)
		}
	}
	read = minAllocs(func() {
		if err := p.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	})
	write = minAllocs(func() {
		if err := p.Write(a, data); err != nil {
			t.Fatal(err)
		}
	})
	readMulti = minAllocs(func() {
		if err := p.ReadMulti(rreqs); err != nil {
			t.Fatal(err)
		}
	})
	writeMulti = minAllocs(func() {
		if err := p.WriteMulti(wreqs); err != nil {
			t.Fatal(err)
		}
	})
	return read, write, readMulti, writeMulti
}

// TestUnsampledTracingAddsNoAllocs is the differential half of the
// tracing zero-cost claim: a pool with sampling configured (but never
// firing) must allocate exactly as much per op as a pool with tracing
// off entirely, across the whole op surface.
func TestUnsampledTracingAddsNoAllocs(t *testing.T) {
	baseR, baseW, baseRM, baseWM := measureOpAllocs(t, dialTracedPool(t, 0))
	trR, trW, trRM, trWM := measureOpAllocs(t, dialTracedPool(t, 1<<30))
	for _, c := range []struct {
		op           string
		base, traced float64
	}{
		{"Read", baseR, trR},
		{"Write", baseW, trW},
		{"ReadMulti", baseRM, trRM},
		{"WriteMulti", baseWM, trWM},
	} {
		if c.traced > c.base+0.5 {
			t.Errorf("%s: %.1f allocs/op with unsampled tracing, %.1f without — tracing must be free when unsampled",
				c.op, c.traced, c.base)
		}
	}
}

// TestBatchedCallsAllocateNothing gates an untraced 4-record ReadMulti
// and WriteMulti to one home at zero allocations per call in steady
// state, client and daemon together (the daemon runs in this process):
// the client groups records by home on the stack and the daemon decodes
// a small batch frame into a stack array.
func TestBatchedCallsAllocateNothing(t *testing.T) {
	_, _, readMulti, writeMulti := measureOpAllocs(t, allocPool(t))
	if readMulti != 0 || writeMulti != 0 {
		t.Fatalf("ReadMulti %.1f, WriteMulti %.1f allocs/call; want 0 each", readMulti, writeMulti)
	}
}

func TestWriteRoundTripAllocs(t *testing.T) {
	p := allocPool(t)
	a, err := p.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x3c}, 256)
	for i := 0; i < 64; i++ {
		if err := p.Write(a, data); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Write(a, data); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxWriteAllocs {
		t.Fatalf("OpWrite round trip: %.1f allocs/op, want <= %d", avg, maxWriteAllocs)
	}
}

// TestEnqueueFlushAllocs gates the send path at zero allocations, both
// shapes of it: a lone frame written by its enqueuer, and a corked pair
// leaving in one writev. The frames come from the pool, the queue slices
// are recycled, and the writev header lives in the queue (a local header
// escapes through (*net.Buffers).WriteTo and costs one per syscall).
func TestEnqueueFlushAllocs(t *testing.T) {
	q, pool, peer := loopbackQueue(t)
	payload := bytes.Repeat([]byte{0xa7}, 200)
	got := make([]byte, 3*(frameHeader+len(payload)))
	send := func() {
		f, err := pool.encodeFrame(1, statusOK, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.enqueue(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		send()
		q.cork(true)
		send()
		send()
		q.cork(false)
		// Waiting for all three frames paces the loop at two syscalls per cycle.
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the frame pool, both queue slices and the writev scratch
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("enqueue→flush: %.1f allocs per cycle, want 0", avg)
	}
}

// TestFrameReadAllocs gates the receive half of a round trip at zero
// allocations per frame: the body comes from the frame pool and the
// length prefix is read into the reader itself (a local prefix escapes
// through io.ReadFull and costs one per frame, on both ends).
func TestFrameReadAllocs(t *testing.T) {
	q, pool, peer := loopbackQueue(t)
	r := newFrameReader(peer, pool)
	payload := bytes.Repeat([]byte{0xa7}, 200)
	cycle := func() {
		f, err := pool.encodeFrame(1, statusOK, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.enqueue(f, nil); err != nil {
			t.Fatal(err)
		}
		_, _, frame, got, _, err := r.read()
		if err != nil || len(got) != len(payload) {
			t.Fatalf("read: %d bytes, %v", len(got), err)
		}
		pool.put(frame)
	}
	for i := 0; i < 64; i++ { // warm the frame pool and both queue slices
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("enqueue→flush→read: %.1f allocs per frame, want 0", avg)
	}
}
