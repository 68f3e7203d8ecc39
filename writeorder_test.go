package gengar_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gengar/internal/config"
	"gengar/internal/core"
	"gengar/internal/proxy"
	"gengar/internal/region"
	"gengar/internal/server"
	"gengar/internal/tcpnet"
)

// writeOrderMount is what the cases need of a writing client, a second
// user of the same pool, and the home server's flusher.
type writeOrderMount struct {
	malloc     func(size int64) (region.GAddr, error)
	write      func(addr region.GAddr, data []byte) error
	writeMulti func(addrs []region.GAddr, bufs [][]byte) error
	read       func(addr region.GAddr, buf []byte) error // the writer's own view
	drain      func() error                              // every staged write applied
	readOther  func(addr region.GAddr, buf []byte) error // another user's view
	flusher    *proxy.Engine
}

// Both mounts take their ring geometry from the default configuration.
var (
	woSlots      = config.Default().Proxy.RingSlots
	woMaxPayload = proxy.Ring{SlotSize: config.Default().Proxy.RingSlotSize}.MaxPayload()
)

func simWriteOrderMount(t *testing.T) writeOrderMount {
	t.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 4 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.Hotness.DigestEvery = 1 << 30 // no promotion round may queue behind held flushers
	c, err := server.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	connect := func(name string) *core.Client {
		cl, err := core.Connect(c, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	w, other := connect("writer"), connect("other")
	return writeOrderMount{
		malloc:     w.Malloc,
		write:      w.Write,
		writeMulti: w.WriteMulti,
		read:       w.Read,
		drain:      w.Flush,
		readOther:  other.Read,
		flusher:    c.Registry().Servers()[0].Engine(),
	}
}

func tcpWriteOrderMount(t *testing.T) writeOrderMount {
	t.Helper()
	srv, err := tcpnet.NewPoolServer(tcpnet.ServerConfig{ID: 1, PoolBytes: 4 << 20, DigestEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(srv.Close)
	dial := func() *tcpnet.Pool {
		p, err := tcpnet.Dial([]string{lis.Addr().String()}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	w, other := dial(), dial()
	return writeOrderMount{
		malloc: w.Malloc,
		write:  w.Write,
		writeMulti: func(addrs []region.GAddr, bufs [][]byte) error {
			reqs := make([]tcpnet.WriteReq, len(addrs))
			for i := range reqs {
				reqs[i] = tcpnet.WriteReq{Addr: addrs[i], Data: bufs[i]}
			}
			return w.WriteMulti(reqs)
		},
		read:      w.Read,
		drain:     srv.Engine().Flusher().Barrier,
		readOther: other.Read,
		flusher:   srv.Engine().Flusher(),
	}
}

// woRec is one write of a case: n bytes at offset off of the object.
type woRec struct{ off, n int }

// TestWriteOrder pins the one rule the write path exists to keep, on
// both mounts: whatever sizes and counts a client's gwrites come in,
// the bytes it reads back — at once, and after a drain — are those of
// a plain byte slice with the same writes applied in request order. A
// mount that lets a write larger than a ring slot go straight to NVM,
// past the session's still-staged records, fails it: the older small
// write overtakes and permanently replaces the newer large one.
func TestWriteOrder(t *testing.T) {
	m := woMaxPayload
	longChain := make([]woRec, woSlots+3) // overlapping, more records than ring slots
	for i := range longChain {
		longChain[i] = woRec{off: i * 16, n: 64}
	}
	cases := []struct {
		name string
		recs []woRec
	}{
		{"one byte", []woRec{{5, 1}}},
		{"one slot", []woRec{{0, m}}},
		{"slot plus one", []woRec{{3, m + 1}}},
		{"three slots and a tail", []woRec{{0, 3*m + 17}}},
		{"chain longer than the ring", longChain},
		{"small then large", []woRec{{512, 1024}, {0, 2 * m}}},
		{"large then small", []woRec{{0, 2 * m}, {512, 1024}}},
		{"mixed", []woRec{{100, 300}, {0, 3*m + 17}, {m - 10, 20}, {2 * m, m + 1}, {7, 1}}},
	}
	objSize := 4 * m

	for _, mount := range []struct {
		name string
		mk   func(*testing.T) writeOrderMount
	}{{"sim", simWriteOrderMount}, {"tcp", tcpWriteOrderMount}} {
		t.Run(mount.name, func(t *testing.T) {
			mt := mount.mk(t)
			obj, err := mt.malloc(int64(objSize))
			if err != nil {
				t.Fatal(err)
			}
			model, got := make([]byte, objSize), make([]byte, objSize)
			stamp := byte(0)
			// check compares a view of the object with the model.
			check := func(t *testing.T, when string, read func(region.GAddr, []byte) error) {
				t.Helper()
				if err := read(obj, got); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if i := firstDiff(got, model); i >= 0 {
					t.Fatalf("%s: byte %d is %#x, the writes applied in request order give %#x", when, i, got[i], model[i])
				}
			}
			for _, tc := range cases {
				for _, multi := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/multi=%v", tc.name, multi), func(t *testing.T) {
						// Start from what is there, so one failing case does
						// not fail the ones after it.
						if err := mt.readOther(obj, model); err != nil {
							t.Fatal(err)
						}
						addrs := make([]region.GAddr, len(tc.recs))
						bufs := make([][]byte, len(tc.recs))
						for i, r := range tc.recs {
							stamp++
							addrs[i] = obj.Add(int64(r.off))
							bufs[i] = bytes.Repeat([]byte{stamp}, r.n)
							copy(model[r.off:], bufs[i])
						}
						if multi {
							if err := mt.writeMulti(addrs, bufs); err != nil {
								t.Fatal(err)
							}
						} else {
							for i := range addrs {
								if err := mt.write(addrs[i], bufs[i]); err != nil {
									t.Fatal(err)
								}
							}
						}
						check(t, "read-your-writes", mt.read)
						if err := mt.drain(); err != nil {
							t.Fatal(err)
						}
						check(t, "after drain, writer", mt.read)
						check(t, "after drain, another user", mt.readOther)
					})
				}
			}

			// The deterministic form: with the flush workers held, the small
			// write is certainly still staged when the large one arrives.
			t.Run("held flushers", func(t *testing.T) {
				held, free, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
				go func() { done <- mt.flusher.Submit(func() { close(held); <-free }) }()
				<-held
				var once sync.Once
				release := func() { once.Do(func() { close(free) }) }
				defer release() // also when a check fails: teardown waits for the flushers
				small, large := bytes.Repeat([]byte{0xA1}, 1024), bytes.Repeat([]byte{0xB2}, 2*m)
				for _, data := range [][]byte{small, large} {
					copy(model, data)
					if err := mt.write(obj, data); err != nil {
						t.Fatal(err)
					}
				}
				check(t, "read-your-writes, flushers held", mt.read)
				release()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if err := mt.drain(); err != nil {
					t.Fatal(err)
				}
				check(t, "after drain, another user", mt.readOther)
			})

			// The racy form, on an idle flusher: one chain of 64 small
			// records and then a large one, all to the same address.
			t.Run("mixed chain x200", func(t *testing.T) {
				const smalls = 64
				addrs := make([]region.GAddr, smalls+1)
				bufs := make([][]byte, smalls+1)
				for i := range addrs {
					addrs[i] = obj
					bufs[i] = make([]byte, 1024)
				}
				bufs[smalls] = make([]byte, 2*m)
				for iter := 0; iter < 200; iter++ {
					for i, b := range bufs {
						fill(b, byte(iter+i))
					}
					copy(model, bufs[smalls])
					if err := mt.writeMulti(addrs, bufs); err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("iteration %d", iter), mt.read)
				}
				if err := mt.drain(); err != nil {
					t.Fatal(err)
				}
				check(t, "after drain, another user", mt.readOther)
			})
		})
	}
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
