package tcpnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gengar/internal/lock"
	"gengar/internal/region"
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
// staged and locks taken, and a request that does not wait — an
// uncontended lock acquire, a free with nothing staged — is not handed
// one either; closing the pool returns both.
func TestConnectionGoroutineCensus(t *testing.T) {
	srv, addr := startTracedServer(t, nil)
	addrs := []string{addr}
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
	// The unlocks above drained every session, so nothing below waits.
	parked := srv.parked.Load()
	for _, p := range pools {
		a, err := p.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() error{
			func() error { return p.LockExclusive(a) },
			func() error { return p.Free(b) },
			func() error { return p.UnlockExclusive(a) },
			func() error { return p.LockShared(a) },
			func() error { return p.UnlockShared(a) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := srv.parked.Load() - parked; n != 0 {
		t.Fatalf("%d uncontended lock or unstaged free request(s) were handed a goroutine, want 0", n)
	}
	for _, p := range pools {
		p.Close()
	}
	if n := goroutinesSettleAt(base); n != base {
		t.Fatalf("%d goroutine(s) left after the pools closed", n-base)
	}
}

// TestContendedLockParksAlone: a lock acquire the grant step refuses
// still waits — on a goroutine of its own, not on the connection's
// reader. While one goroutine's request for Y waits behind another
// session's hold, the same session's UnlockExclusive(X) from another
// goroutine completes; Y is granted once its holder lets go.
func TestContendedLockParksAlone(t *testing.T) {
	srv, addr := startTracedServer(t, func(c *ServerConfig) { c.AcquireTimeout = 10 * time.Second })
	p := dialPool(t, []string{addr})
	holder := dialPool(t, []string{addr})
	x, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	slots := srv.Engine().Leases().Slots()
	var y region.GAddr
	for y == region.NilGAddr || lock.SlotIndex(y, slots) == lock.SlotIndex(x, slots) {
		if y, err = p.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.LockExclusive(x); err != nil {
		t.Fatal(err)
	}
	if err := holder.LockExclusive(y); err != nil {
		t.Fatal(err)
	}

	parked := srv.parked.Load()
	lockY := make(chan error, 1)
	go func() { lockY <- p.LockExclusive(y) }()
	for deadline := time.Now().Add(5 * time.Second); srv.parked.Load() == parked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the contended acquire never parked")
		}
	}
	unlockX := make(chan error, 1)
	go func() { unlockX <- p.UnlockExclusive(x) }()
	select {
	case err := <-unlockX:
		if err != nil {
			t.Fatalf("unlock X while Y waits: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unlock X blocked behind the session's contended acquire of Y")
	}
	select {
	case err := <-lockY:
		t.Fatalf("the acquire of Y returned (err %v) while another session holds Y", err)
	default:
	}
	if err := holder.UnlockExclusive(y); err != nil {
		t.Fatal(err)
	}
	if err := <-lockY; err != nil {
		t.Fatalf("Y after its holder let go: %v", err)
	}
	if err := p.UnlockExclusive(y); err != nil {
		t.Fatal(err)
	}
}
