package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gengar/internal/region"
)

// goroutinesSettleAt polls until the process runs want goroutines (a
// goroutine that has been joined may still be on its way out) and
// returns the last count seen.
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

// TestSessionStartsNoGoroutine is the sim mount's goroutine census: the
// only asynchronous actors of a cluster are its servers' flush workers.
// A session — control-plane client, staging writer, lock client per
// server — is calls on the user's goroutine, so connecting, a thousand
// mixed ops and closing leave the count where the cluster put it.
func TestSessionStartsNoGoroutine(t *testing.T) {
	c := newTestCluster(t, testConfig())
	time.Sleep(10 * time.Millisecond) // earlier tests' workers exit
	base := runtime.NumGoroutine()

	cl, err := Connect(c, "census")
	if err != nil {
		t.Fatal(err)
	}
	if n := goroutinesSettleAt(base); n != base {
		t.Fatalf("Connect started %d goroutine(s)", n-base)
	}
	addrs := make([]region.GAddr, 8)
	for i := range addrs {
		if addrs[i], err = cl.Malloc(256); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 256)
	for i := 0; i < 1000; i++ {
		a := addrs[i%len(addrs)]
		val := bytes.Repeat([]byte{byte(i)}, 256)
		switch i % 5 {
		case 0:
			err = cl.Write(a, val)
		case 1:
			err = cl.Read(a, buf)
		case 2:
			err = cl.WriteMulti([]region.GAddr{a, addrs[(i+1)%len(addrs)]}, [][]byte{val, val})
		case 3:
			err = cl.ReadMulti([]region.GAddr{a}, [][]byte{buf})
		case 4:
			if err = cl.LockExclusive(a); err == nil {
				if err = cl.Write(a, val); err == nil {
					err = cl.UnlockExclusive(a)
				}
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if n := goroutinesSettleAt(base); n != base {
		t.Fatalf("a session with staged writes runs %d goroutine(s) of its own", n-base)
	}
	cl.Close()
	if n := goroutinesSettleAt(base); n != base {
		t.Fatalf("%d goroutine(s) left after Close", n-base)
	}
}
