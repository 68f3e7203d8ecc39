package rpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gengar/internal/rdma"
	"gengar/internal/simnet"
)

func testFabric(t *testing.T) (*rdma.Fabric, *rdma.Node, *rdma.Node) {
	t.Helper()
	f, err := rdma.NewFabric(simnet.LinkModel{
		PerOp:       600 * time.Nanosecond,
		Propagation: 300 * time.Nanosecond,
		BytesPerSec: 12.5e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cn, err := f.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := f.AddNode("server")
	if err != nil {
		t.Fatal(err)
	}
	return f, cn, sn
}

const (
	kindEcho Kind = iota + 1
	kindFail
	kindAdd
)

func newEchoServer(t *testing.T) (*Server, *rdma.Node, *rdma.Node) {
	t.Helper()
	_, cn, sn := testFabric(t)
	srv := NewServer(simnet.NewResource("cpu"), 0)
	srv.Handle(kindEcho, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		b := req.Blob()
		if err := req.Err(); err != nil {
			return at, err
		}
		resp.Blob(b)
		return at, nil
	})
	srv.Handle(kindFail, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		return at, errors.New("boom")
	})
	srv.Handle(kindAdd, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		a, b := req.U64(), req.U64()
		if err := req.Err(); err != nil {
			return at, err
		}
		resp.U64(a + b)
		return at, nil
	})
	return srv, cn, sn
}

func TestCallRoundtrip(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var w Writer
	w.Blob([]byte("hello"))
	var rx Writer
	resp, end, err := cl.Call(0, kindEcho, w.Bytes(), &rx)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := resp.Blob(); string(got) != "hello" {
		t.Fatalf("echo = %q", got)
	}
	// The receive buffer is the caller's, emptied and reused by each call.
	w.Reset(nil)
	w.Blob([]byte("hi"))
	if resp, _, err = cl.Call(end, kindEcho, w.Bytes(), &rx); err != nil {
		t.Fatalf("second Call: %v", err)
	}
	if got := resp.Blob(); string(got) != "hi" || len(rx.Bytes()) != 4+len("hi") {
		t.Fatalf("second echo = %q in a %d-byte buffer", got, len(rx.Bytes()))
	}
	if end <= 0 {
		t.Fatal("RPC charged no simulated time")
	}
	// An RPC must cost at least one network RTT plus the CPU charge.
	minCost := simnet.Duration(2*(600+300))*time.Nanosecond/time.Nanosecond + DefaultCPUPerRequest
	if simnet.Duration(end) < minCost {
		t.Fatalf("RPC too cheap: %v < %v", simnet.Duration(end), minCost)
	}
}

func TestRemoteError(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, _, err = cl.Call(0, kindFail, nil, new(Writer))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if re.Msg != "boom" || re.Kind != kindFail {
		t.Fatalf("RemoteError = %+v", re)
	}
	if re.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestUnknownKind(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Call(0, Kind(200), nil, new(Writer))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown kind error = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var w Writer
				w.U64(uint64(g)).U64(uint64(i))
				resp, _, err := cl.Call(0, kindAdd, w.Bytes(), new(Writer))
				if err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				if got := resp.U64(); got != uint64(g+i) {
					t.Errorf("add = %d, want %d", got, g+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	var clients []*Client
	for i := 0; i < 4; i++ {
		cl, err := Dial(cn, sn, srv)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	for i, cl := range clients {
		var w Writer
		w.U64(uint64(i)).U64(1)
		resp, _, err := cl.Call(0, kindAdd, w.Bytes(), new(Writer))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.U64(); got != uint64(i+1) {
			t.Fatalf("client %d: got %d", i, got)
		}
		cl.Close()
	}
}

func TestClientCloseFailsInflight(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, _, err := cl.Call(0, kindEcho, nil, new(Writer)); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := cl.Call(0, kindEcho, nil, new(Writer)); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after server close: %v", err)
	}
	srv.Close() // idempotent
}

// TestCallInstant pins the link model of one RPC to a hand-computed
// value: the request's flight on the client's queue pair, the server's
// CPU share, the handler's own time, the response's flight on the
// server's queue pair — each message a 32-byte verb header, the 9-byte
// RPC header and its payload. The handler runs on the caller's
// goroutine, so nothing else can move these instants.
func TestCallInstant(t *testing.T) {
	f, cn, sn := testFabric(t)
	m := f.Model()
	const cpuCost, handlerTime = 2 * time.Microsecond, 7 * time.Microsecond
	srv := NewServer(simnet.NewResource("cpu"), cpuCost)
	reply := make([]byte, 40)
	var handlerAt simnet.Time
	srv.Handle(kindEcho, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		handlerAt = at
		copy(resp.Extend(len(reply)), reply)
		return at.Add(handlerTime), nil
	})
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	flight := func(payload int) time.Duration {
		wire := 32 + 9 + payload
		return m.PerOp + m.SerializeTime(wire) + m.RespPerOp + m.Propagation + m.SerializeTime(wire)
	}
	const start = simnet.Time(1000)
	req := make([]byte, 100)
	_, end, err := cl.Call(start, kindEcho, req, new(Writer))
	if err != nil {
		t.Fatal(err)
	}
	if want := start.Add(flight(len(req)) + cpuCost); handlerAt != want {
		t.Fatalf("handler ran at %v, want %v", handlerAt, want)
	}
	if want := start.Add(flight(len(req)) + cpuCost + handlerTime + flight(len(reply))); end != want {
		t.Fatalf("call completed at %v, want %v", end, want)
	}
	if n := f.VerbCounts().Sends; n != 2 {
		t.Fatalf("Sends = %d, want one per message", n)
	}
}

func TestCPUSerializesRequests(t *testing.T) {
	// With a large CPU cost, N concurrent RPCs must take at least
	// N*cost of simulated time on the server CPU.
	_, cn, sn := testFabric(t)
	cpu := simnet.NewResource("cpu")
	const cost = 10 * time.Microsecond
	srv := NewServer(cpu, cost)
	srv.Handle(kindEcho, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		return at, nil
	})
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cl.Call(0, kindEcho, nil, new(Writer)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if busy := cpu.Stats().BusyTotal; busy != n*cost {
		t.Fatalf("CPU busy %v, want %v", busy, n*cost)
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	var w Writer
	w.U8(7).U16(300).U32(70000).U64(1 << 40).I64(-5).Str("hi").Blob([]byte{1, 2, 3})
	r := NewReader(w.Bytes())
	if r.U8() != 7 || r.U16() != 300 || r.U32() != 70000 || r.U64() != 1<<40 || r.I64() != -5 {
		t.Fatal("numeric roundtrip failed")
	}
	if r.Str() != "hi" {
		t.Fatal("string roundtrip failed")
	}
	if b := r.Blob(); len(b) != 3 || b[2] != 3 {
		t.Fatal("blob roundtrip failed")
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Error sticks; further reads are zero.
	if r.U8() != 0 || r.Str() != "" || r.Blob() != nil {
		t.Fatal("reads after error not zero-valued")
	}
}

func TestHandlerDeviceTimePropagates(t *testing.T) {
	// A handler that charges extra virtual time must delay the response.
	_, cn, sn := testFabric(t)
	srv := NewServer(simnet.NewResource("cpu"), time.Microsecond)
	const extra = 100 * time.Microsecond
	srv.Handle(kindEcho, func(at simnet.Time, req Reader, resp *Writer) (simnet.Time, error) {
		return at.Add(extra), nil
	})
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, end, err := cl.Call(0, kindEcho, nil, new(Writer))
	if err != nil {
		t.Fatal(err)
	}
	if simnet.Duration(end) < extra {
		t.Fatalf("completion %v does not include handler time %v", simnet.Duration(end), extra)
	}
}

func TestDialBadConnect(t *testing.T) {
	// Dialing across fabrics must fail cleanly.
	_, cn, _ := testFabric(t)
	f2, _ := rdma.NewFabric(simnet.LinkModel{})
	other, _ := f2.AddNode("other")
	srv := NewServer(simnet.NewResource("cpu"), 0)
	defer srv.Close()
	if _, err := Dial(cn, other, srv); err == nil {
		t.Fatal("cross-fabric dial succeeded")
	}
}

func ExampleWriter() {
	var w Writer
	w.U64(42).Str("pool")
	r := NewReader(w.Bytes())
	fmt.Println(r.U64(), r.Str())
	// Output: 42 pool
}
