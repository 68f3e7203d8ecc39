package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gengar/internal/region"
)

// startServers launches n daemons on loopback and returns their
// addresses.
func startServers(t *testing.T, n int, mutate func(*ServerConfig)) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := ServerConfig{ID: uint16(i + 1), PoolBytes: 1 << 20}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := NewPoolServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		go func() {
			if err := srv.Serve(lis); err != nil {
				t.Errorf("serve: %v", err)
			}
		}()
		t.Cleanup(srv.Close)
	}
	return addrs
}

func dialPool(t *testing.T, addrs []string) *Pool {
	t.Helper()
	p, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewPoolServer(ServerConfig{ID: 0, PoolBytes: 1 << 20}); err == nil {
		t.Fatal("zero ID accepted")
	}
	if _, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1000}); err == nil {
		t.Fatal("non-pow2 pool accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(nil, time.Second); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestRoundtripAcrossServers(t *testing.T) {
	addrs := startServers(t, 3, nil)
	p := dialPool(t, addrs)

	seen := make(map[uint16]bool)
	for i := 0; i < 6; i++ {
		addr, err := p.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		seen[addr.Server()] = true
		want := bytes.Repeat([]byte{byte(i + 1)}, 256)
		if err := p.Write(addr, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 256)
		if err := p.Read(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("roundtrip %d mismatch", i)
		}
		if err := p.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("round robin hit %d servers, want 3", len(seen))
	}
}

func TestErrorsPropagate(t *testing.T) {
	addrs := startServers(t, 1, nil)
	p := dialPool(t, addrs)

	if _, err := p.Malloc(-1); err == nil {
		t.Fatal("negative malloc accepted")
	}
	var re *RemoteError
	_, err := p.Malloc(1 << 30)
	if !errors.As(err, &re) {
		t.Fatalf("oversize malloc error: %v", err)
	}
	// Unknown server in address.
	bogus := region.MustGAddr(42, 64)
	if err := p.Read(bogus, make([]byte, 4)); err == nil {
		t.Fatal("read from unknown server accepted")
	}
	// Wrong home rejected server-side.
	addr, _ := p.Malloc(64)
	wrong := region.MustGAddr(1, 1<<21) // out of pool
	if err := p.Write(wrong, []byte("x")); err == nil {
		t.Fatal("out-of-pool write accepted")
	}
	if err := p.Read(wrong, make([]byte, 8)); err == nil {
		t.Fatal("out-of-pool read accepted")
	}
	_ = p.Free(addr)
	if err := p.Free(addr); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestStats(t *testing.T) {
	addrs := startServers(t, 2, nil)
	p := dialPool(t, addrs)
	a, _ := p.Malloc(128)
	_ = a
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 {
		t.Fatalf("stats for %d servers", len(st))
	}
	var objs int64
	for _, s := range st {
		if s.PoolBytes != 1<<20 {
			t.Fatalf("pool bytes %d", s.PoolBytes)
		}
		objs += s.Objects
	}
	if objs != 1 {
		t.Fatalf("objects = %d", objs)
	}
}

func TestConcurrentClientsPipelined(t *testing.T) {
	addrs := startServers(t, 2, nil)
	p := dialPool(t, addrs)
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				addr, err := p.Malloc(64)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				val := []byte{byte(g), byte(i)}
				if err := p.Write(addr, val); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, 2)
				if err := p.Read(addr, got); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, val) {
					t.Errorf("mismatch %v != %v", got, val)
					return
				}
				if err := p.Free(addr); err != nil {
					t.Errorf("free: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLockedCounterAcrossClients(t *testing.T) {
	addrs := startServers(t, 1, nil)
	setup := dialPool(t, addrs)
	counter, err := setup.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	// The initial value is published the way every later one is, under
	// the lock: a write is acknowledged once staged, and only the release
	// drains it. Left unpublished, the zeros sit in the setup session's
	// ring — another flush worker's queue, unordered against the clients'
	// rings — and can land on top of increments made meanwhile.
	if err := setup.LockExclusive(counter); err != nil {
		t.Fatal(err)
	}
	if err := setup.Write(counter, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := setup.UnlockExclusive(counter); err != nil {
		t.Fatal(err)
	}

	const clients, per = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		p := dialPool(t, addrs) // separate session per client
		wg.Add(1)
		go func(p *Pool) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < per; i++ {
				if err := p.LockExclusive(counter); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if err := p.Read(counter, buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				binary.BigEndian.PutUint64(buf, binary.BigEndian.Uint64(buf)+1)
				if err := p.Write(counter, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := p.UnlockExclusive(counter); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	got := make([]byte, 8)
	if err := setup.Read(counter, got); err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint64(got); n != clients*per {
		t.Fatalf("lost updates: %d, want %d", n, clients*per)
	}
}

func TestSharedLocksAndWriterExclusion(t *testing.T) {
	addrs := startServers(t, 1, func(c *ServerConfig) {
		c.AcquireTimeout = 150 * time.Millisecond
	})
	r1 := dialPool(t, addrs)
	r2 := dialPool(t, addrs)
	w := dialPool(t, addrs)
	addr, _ := r1.Malloc(64)

	if err := r1.LockShared(addr); err != nil {
		t.Fatal(err)
	}
	if err := r2.LockShared(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.LockExclusive(addr); !strings.Contains(fmt.Sprint(err), "timed out") {
		t.Fatalf("writer with readers: %v", err)
	}
	if err := r1.UnlockShared(addr); err != nil {
		t.Fatal(err)
	}
	if err := r2.UnlockShared(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.LockExclusive(addr); err != nil {
		t.Fatalf("writer after readers: %v", err)
	}
	// Release validation.
	if err := r1.UnlockShared(addr); err == nil {
		t.Fatal("unlock of unheld shared lock accepted")
	}
	if err := r1.UnlockExclusive(addr); err == nil {
		t.Fatal("unlock of other's exclusive lock accepted")
	}
}

// TestLeaseRecoversCrashedHolder: a client that dies holding a lock
// wedges its object only until the lease lapses — the one it asked for,
// or the daemon's DefaultLease when it asked for more.
func TestLeaseRecoversCrashedHolder(t *testing.T) {
	for _, tc := range []struct {
		name          string
		defaultLease  time.Duration // the daemon's bound; 0 selects 5s
		victimRequest time.Duration
	}{
		{"client lease", 0, 100 * time.Millisecond},
		{"request clamped to DefaultLease", 100 * time.Millisecond, time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := startServers(t, 1, func(c *ServerConfig) {
				c.AcquireTimeout = 2 * time.Second
				c.DefaultLease = tc.defaultLease
			})
			victim := dialPool(t, addrs)
			victim.SetLease(tc.victimRequest)
			addr, _ := victim.Malloc(64)
			if err := victim.LockExclusive(addr); err != nil {
				t.Fatal(err)
			}
			victim.Close() // "crash" while holding the lock

			survivor := dialPool(t, addrs)
			start := time.Now()
			if err := survivor.LockExclusive(addr); err != nil {
				t.Fatalf("lease steal failed: %v", err)
			}
			if waited := time.Since(start); waited > time.Second {
				t.Fatalf("lease recovery took %v", waited)
			}
		})
	}
}

func TestServerCloseIsGraceful(t *testing.T) {
	cfg := ServerConfig{ID: 1, PoolBytes: 1 << 20}
	srv, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	p, err := Dial([]string{lis.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Malloc(64); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	// Calls now fail cleanly.
	if _, err := p.Malloc(64); err == nil {
		t.Fatal("malloc after server close succeeded")
	}
	p.Close()
	srv.Close() // idempotent
}

func TestFrameValidation(t *testing.T) {
	var pool framePool
	// A frame larger than the cap is rejected at encode time.
	if _, err := pool.encodeFrame(1, 1, make([]byte, maxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
	// Garbage length is rejected by the frame reader.
	r := newFrameReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), &pool)
	if _, _, _, _, _, err := r.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("garbage length: %v", err)
	}
}

func TestHelloReportsGeometry(t *testing.T) {
	addrs := startServers(t, 1, func(c *ServerConfig) { c.PoolBytes = 1 << 18 })
	p := dialPool(t, addrs)
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].ServerID != 1 || st[0].PoolBytes != 1<<18 {
		t.Fatalf("hello geometry: %+v", st[0])
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pool.snap"

	cfg := ServerConfig{ID: 3, PoolBytes: 1 << 18}
	srv, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	go func() { _ = srv.Serve(lis) }()
	p, err := Dial([]string{lis.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := p.Malloc(256)
	a2, _ := p.Malloc(1024)
	want1 := bytes.Repeat([]byte{7}, 256)
	want2 := bytes.Repeat([]byte{9}, 1024)
	if err := p.Write(a1, want1); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(a2, want2); err != nil {
		t.Fatal(err)
	}
	p.Close()
	srv.Close()
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon restores the pool: data and allocation state.
	srv2, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.RestoreSnapshot(path); err != nil {
		t.Fatal(err)
	}
	lis2, _ := net.Listen("tcp", "127.0.0.1:0")
	go func() { _ = srv2.Serve(lis2) }()
	defer srv2.Close()
	p2, err := Dial([]string{lis2.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	got := make([]byte, 256)
	if err := p2.Read(a1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want1) {
		t.Fatal("a1 data lost across restart")
	}
	got2 := make([]byte, 1024)
	if err := p2.Read(a2, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want2) {
		t.Fatal("a2 data lost across restart")
	}
	// Old allocations survive as live: freeing works, double free fails.
	if err := p2.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := p2.Free(a1); err == nil {
		t.Fatal("restored allocation state wrong: double free accepted")
	}
	// New allocations never overlap restored ones.
	a3, err := p2.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a2 {
		t.Fatal("fresh allocation reused a live restored block")
	}
	st, err := p2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Objects != 2 { // a2 restored + a3; a1 freed
		t.Fatalf("objects after restore+ops = %d", st[0].Objects)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pool.snap"
	cfg := ServerConfig{ID: 1, PoolBytes: 1 << 16}
	srv, _ := NewPoolServer(cfg)
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0xFF
	bad := path + ".bad"
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, _ := NewPoolServer(cfg)
	if err := srv2.RestoreSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	// Truncated file.
	if err := os.WriteFile(bad, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv2.RestoreSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated snapshot: %v", err)
	}
	// Mismatched geometry.
	srv3, _ := NewPoolServer(ServerConfig{ID: 2, PoolBytes: 1 << 16})
	if err := srv3.RestoreSnapshot(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("wrong-ID snapshot: %v", err)
	}
	// Missing file is a plain I/O error.
	if err := srv2.RestoreSnapshot(dir + "/nope.snap"); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestFrameRoundtripProperty(t *testing.T) {
	// Property: any (id, tag, payload) under the size cap survives the
	// framing intact.
	var pool framePool
	f := func(id uint64, tag uint8, payload []byte) bool {
		// The traced bit is not a free tag value: it announces a trace
		// extension ahead of the payload (covered by FuzzReadFrame).
		tag &^= tagTraced
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		fr, err := pool.encodeFrame(id, tag, payload)
		if err != nil {
			return false
		}
		r := newFrameReader(bytes.NewReader(*fr), &pool)
		gotID, gotTag, frame, gotPayload, _, err := r.read()
		if err != nil {
			return false
		}
		ok := gotID == id && gotTag == tag && bytes.Equal(gotPayload, payload)
		pool.put(frame)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	// A client that writes garbage must not crash the daemon or poison
	// other sessions.
	addrs := startServers(t, 1, nil)
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	_ = raw.Close()

	p := dialPool(t, addrs)
	if _, err := p.Malloc(64); err != nil {
		t.Fatalf("daemon poisoned by garbage connection: %v", err)
	}
}
