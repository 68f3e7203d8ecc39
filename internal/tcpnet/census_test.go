package tcpnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettleAt polls until the process runs want goroutines
// (parked ops and joined goroutines take a moment to leave) and returns
// the last count seen.
func goroutinesSettleAt(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnectionGoroutineCensus is the TCP mount's goroutine census: a
// dialed connection costs exactly one goroutine at each end — the
// daemon's connection reader and the client's demultiplexer. Its
// session's staging writer and lock-table waits start none, with writes
// staged and locks taken; closing the pool returns both.
func TestConnectionGoroutineCensus(t *testing.T) {
	addrs := startServers(t, 1, nil)
	time.Sleep(10 * time.Millisecond) // earlier tests' goroutines exit
	base := runtime.NumGoroutine()

	const conns = 3
	pools := make([]*Pool, conns)
	for i := range pools {
		pools[i] = dialPool(t, addrs)
	}
	if n := goroutinesSettleAt(base + 2*conns); n != base+2*conns {
		t.Fatalf("%d connections run %d goroutines, want %d", conns, n-base, 2*conns)
	}
	for i, p := range pools {
		a, err := p.Malloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		for j := 0; j < 50; j++ {
			if err := p.LockExclusive(a); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(a, val); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteMulti([]WriteReq{{Addr: a, Data: val}, {Addr: a, Data: val}}); err != nil {
				t.Fatal(err)
			}
			if err := p.UnlockExclusive(a); err != nil {
				t.Fatal(err)
			}
			if err := p.Read(a, make([]byte, 1024)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := goroutinesSettleAt(base + 2*conns); n != base+2*conns {
		t.Fatalf("after staged writes and locks: %d goroutines over the daemon's, want %d", n-base, 2*conns)
	}
	for _, p := range pools {
		p.Close()
	}
	if n := goroutinesSettleAt(base); n != base {
		t.Fatalf("%d goroutine(s) left after the pools closed", n-base)
	}
}
