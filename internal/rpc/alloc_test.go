//go:build !race

package rpc

import "testing"

// TestCallWithReceiveBufferAllocatesNothing: once the caller's receive
// buffer has grown, a call hands the handler its request and the caller
// its reply without allocating.
func TestCallWithReceiveBufferAllocatesNothing(t *testing.T) {
	srv, cn, sn := newEchoServer(t)
	defer srv.Close()
	cl, err := Dial(cn, sn, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var req, rx Writer
	req.U64(40).U64(2)
	call := func() {
		resp, _, err := cl.Call(0, kindAdd, req.Bytes(), &rx)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.U64(); got != 42 {
			t.Fatalf("add = %d, want 42", got)
		}
	}
	call()
	if a := testing.AllocsPerRun(100, call); a != 0 {
		t.Fatalf("Call allocates %.2f times per call, want 0", a)
	}
}
