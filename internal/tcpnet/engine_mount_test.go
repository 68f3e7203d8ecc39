package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"gengar/internal/hotness"
	"gengar/internal/region"
)

// These tests exercise the TCP mount as an engine mount: the wire-visible
// behavior of the paper's mechanisms (cache-served reads, staged-write
// acknowledgment, hotness-driven promotion) and the operational
// satellites (reconnect, snapshot compatibility).

// TestCacheHitAndStagedAckOverTCP is the mount's acceptance check: a TCP
// client observes a cache-served read (hit flag on the wire plus the hit
// counter) and staged-write acknowledgment (proxy ring telemetry), with
// promotion driven by the daemon's own hotness digests.
func TestCacheHitAndStagedAckOverTCP(t *testing.T) {
	addrs := startServers(t, 1, func(c *ServerConfig) { c.DigestEvery = 4 })
	p := dialPool(t, addrs)

	a, err := p.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := p.Write(a, want); err != nil {
		t.Fatal(err)
	}

	// The write must have been acknowledged from the staging ring, not
	// the pool: proxy telemetry shows it staged.
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Staged == 0 {
		t.Fatalf("write was not staged: %+v", st[0])
	}

	// Read-your-writes holds immediately, before any flush completes.
	got := make([]byte, 4096)
	if err := p.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read-your-writes violated over TCP")
	}

	// Repeated reads make the object hot; the daemon digests every 4
	// accesses and promotes it, after which reads report cache hits.
	deadline := time.Now().Add(5 * time.Second)
	hit := false
	for !hit && time.Now().Before(deadline) {
		if hit, err = p.ReadCheck(a, got); err != nil {
			t.Fatal(err)
		}
		if !hit {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !hit {
		t.Fatal("reads never hit the DRAM cache")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache-served read returned wrong bytes")
	}
	st, err = p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].CacheHits == 0 || st[0].Promotions == 0 || st[0].Promoted == 0 {
		t.Fatalf("promotion not visible in stats: %+v", st[0])
	}
	if st[0].Digests == 0 {
		t.Fatalf("daemon never digested accesses: %+v", st[0])
	}
}

func TestFeatureSwitchesOverTCP(t *testing.T) {
	addrs := startServers(t, 1, func(c *ServerConfig) {
		c.NoCache = true
		c.NoProxy = true
		c.DigestEvery = 2
	})
	// The hello handshake reports both features off.
	var frames framePool
	sc, err := dialServer(addrs[0], &PoolConfig{Timeout: time.Second}, &frames)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.close()
	if sc.features != featureTrace {
		t.Fatalf("features = %b, want trace only", sc.features)
	}

	p := dialPool(t, addrs)
	a, err := p.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{3}, 1024)
	if err := p.Write(a, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	for i := 0; i < 32; i++ {
		hit, err := p.ReadCheck(a, got)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("cache hit with caching disabled")
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("roundtrip broken with features off")
	}
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Staged != 0 || st[0].CacheHits != 0 || st[0].Promotions != 0 {
		t.Fatalf("disabled mechanisms still active: %+v", st[0])
	}

	// The default deployment advertises both features.
	full := startServers(t, 1, func(c *ServerConfig) { c.ID = 7 })
	sc2, err := dialServer(full[0], &PoolConfig{Timeout: time.Second}, &frames)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.close()
	if sc2.features != featureCache|featureProxy|featureTrace|featurePeerCache {
		t.Fatalf("features = %b, want cache|proxy|trace|peerCache", sc2.features)
	}
}

func TestWriteMultiRoundtrip(t *testing.T) {
	addrs := startServers(t, 3, nil)
	p := dialPool(t, addrs)

	// Interleave records across the three homes, small and ring-oversized
	// payloads mixed, and verify per-address contents.
	var reqs []WriteReq
	var live []region.GAddr
	for i := 0; i < 9; i++ {
		size := int64(512)
		if i%4 == 3 {
			size = 8192 // larger than a ring slot: falls back to direct writes
		}
		a, err := p.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
		reqs = append(reqs, WriteReq{Addr: a, Data: bytes.Repeat([]byte{byte(i + 1)}, int(size))})
	}
	if err := p.WriteMulti(reqs); err != nil {
		t.Fatal(err)
	}
	for i, a := range live {
		got := make([]byte, len(reqs[i].Data))
		if err := p.Read(a, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reqs[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Batches that fit the ring were staged as chains.
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var staged int64
	for _, s := range st {
		staged += s.Staged
	}
	if staged == 0 {
		t.Fatal("no batched record was staged")
	}
	if err := p.WriteMulti(nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionBumpsOnExclusiveRelease(t *testing.T) {
	addrs := startServers(t, 1, nil)
	p := dialPool(t, addrs)
	a, err := p.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := p.Version(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LockExclusive(a); err != nil {
		t.Fatal(err)
	}
	if err := p.UnlockExclusive(a); err != nil {
		t.Fatal(err)
	}
	v1, err := p.Version(a)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0+1 {
		t.Fatalf("version after exclusive release: %d -> %d", v0, v1)
	}
	// Shared cycles leave it alone.
	if err := p.LockShared(a); err != nil {
		t.Fatal(err)
	}
	if err := p.UnlockShared(a); err != nil {
		t.Fatal(err)
	}
	if v2, _ := p.Version(a); v2 != v1 {
		t.Fatalf("version after shared release: %d -> %d", v1, v2)
	}
}

// restartableServer runs one daemon whose listener address survives a
// kill/restart cycle.
type restartableServer struct {
	t    *testing.T
	cfg  ServerConfig
	addr string
	srv  *PoolServer
}

func startRestartable(t *testing.T, cfg ServerConfig) *restartableServer {
	t.Helper()
	rs := &restartableServer{t: t, cfg: cfg}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs.addr = lis.Addr().String()
	rs.serveOn(lis)
	t.Cleanup(func() { rs.srv.Close() })
	return rs
}

func (rs *restartableServer) serveOn(lis net.Listener) {
	rs.t.Helper()
	srv, err := NewPoolServer(rs.cfg)
	if err != nil {
		rs.t.Fatal(err)
	}
	rs.srv = srv
	go func() { _ = srv.Serve(lis) }()
}

// kill stops the daemon; restart brings a fresh one up on the same
// address (retrying the bind while the old socket drains).
func (rs *restartableServer) kill() { rs.srv.Close() }

func (rs *restartableServer) restart() {
	rs.t.Helper()
	var lis net.Listener
	var err error
	for try := 0; try < 50; try++ {
		if lis, err = net.Listen("tcp", rs.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		rs.t.Fatalf("rebind %s: %v", rs.addr, err)
	}
	rs.serveOn(lis)
}

func TestPoolReconnectsAfterDaemonRestart(t *testing.T) {
	rs := startRestartable(t, ServerConfig{ID: 1, PoolBytes: 1 << 20})
	p := dialPool(t, []string{rs.addr})

	a, err := p.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(a, bytes.Repeat([]byte{8}, 512)); err != nil {
		t.Fatal(err)
	}

	rs.kill()
	rs.restart()

	// Mid-workload operations ride the redial path: the first calls may
	// fail while the daemon comes back, then the pool reconnects and the
	// workload continues. Volatile state (allocations) restarted empty, so
	// the workload allocates afresh.
	var b region.GAddr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err = p.Malloc(512); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reconnected: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	want := bytes.Repeat([]byte{9}, 512)
	if err := p.Write(b, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := p.Read(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-restart roundtrip mismatch")
	}
	// The restarted daemon has no memory of pre-kill allocations. (The
	// fresh allocator may have handed b the same offset a had; free b
	// first so a cannot alias a live object.)
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err == nil {
		t.Fatal("pre-restart allocation survived a restart without a snapshot")
	}
}

func TestPoolReconnectConcurrentWorkload(t *testing.T) {
	// Writers hammering the pool across a kill/restart all recover: no
	// wedged callers, every worker completes a post-restart roundtrip.
	rs := startRestartable(t, ServerConfig{ID: 1, PoolBytes: 1 << 20})
	p := dialPool(t, []string{rs.addr})

	const workers = 4
	kill := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			<-kill
			deadline := time.Now().Add(10 * time.Second)
			for {
				a, err := p.Malloc(256)
				if err == nil {
					data := bytes.Repeat([]byte{byte(w + 1)}, 256)
					if err = p.Write(a, data); err == nil {
						got := make([]byte, 256)
						if err = p.Read(a, got); err == nil && !bytes.Equal(got, data) {
							errs <- errors.New("roundtrip mismatch after reconnect")
							return
						}
					}
				}
				if err == nil {
					errs <- nil
					return
				}
				if time.Now().After(deadline) {
					errs <- err
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(w)
	}

	rs.kill()
	rs.restart()
	close(kill)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed after restart: %v", err)
		}
	}
}

func TestPoolReconnectGivesUpWithoutDaemon(t *testing.T) {
	rs := startRestartable(t, ServerConfig{ID: 1, PoolBytes: 1 << 20})
	p := dialPool(t, []string{rs.addr})
	if _, err := p.Malloc(64); err != nil {
		t.Fatal(err)
	}
	rs.kill()
	// The op that was racing the kill fails with a connection error; once
	// the pool notices the dead connection, operations report the bounded
	// reconnect giving up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := p.Malloc(64)
		if err == nil {
			t.Fatal("malloc succeeded against a dead daemon")
		}
		if strings.Contains(err.Error(), "reconnect") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("error never reported the bounded reconnect: %v", err)
		}
	}
}

// rewriteSnapshot applies mutate to the decoded snapshot bytes and
// recomputes the trailing checksum, so the result is structurally valid
// but carries the mutated content.
func rewriteSnapshot(t *testing.T, path string, mutate func(body []byte)) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), raw[:len(raw)-4]...)
	mutate(body)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	out := path + ".mut"
	if err := os.WriteFile(out, append(body, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotForwardCompat(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pool.snap"
	cfg := ServerConfig{ID: 1, PoolBytes: 1 << 16}
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
	_ = p.Write(a1, bytes.Repeat([]byte{1}, 256))
	_ = p.Write(a2, bytes.Repeat([]byte{2}, 1024))
	p.Close()
	srv.Close()
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// A snapshot from a future format version is rejected outright even
	// though its checksum is intact.
	future := rewriteSnapshot(t, path, func(body []byte) {
		binary.BigEndian.PutUint32(body[len(snapshotMagic):], snapshotVersion+1)
	})
	srv2, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	baseObjects := srv2.eng.Stats().Objects
	basePool := srv2.eng.Pool().AllocatedBytes()
	if err := srv2.RestoreSnapshot(future); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("future-version snapshot: %v", err)
	}

	// A snapshot whose trailing checksum is cut off is rejected.
	raw, _ := os.ReadFile(path)
	cut := dir + "/cut.snap"
	if err := os.WriteFile(cut, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv2.RestoreSnapshot(cut); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated-checksum snapshot: %v", err)
	}

	// Overlapping allocation records are rejected before any state lands:
	// corrupt the second live record to collide with the first.
	overlap := rewriteSnapshot(t, path, func(body []byte) {
		recs := body[len(snapshotMagic)+4+2+8:]
		n := binary.BigEndian.Uint32(recs)
		recs = recs[4:]
		var firstOff uint64
		seen := 0
		for i := uint32(0); i < n; i++ {
			rec := recs[i*16:]
			off := binary.BigEndian.Uint64(rec)
			if off == 0 {
				continue // the nil-address guard block is skipped on restore
			}
			seen++
			if seen == 1 {
				firstOff = off
			} else {
				binary.BigEndian.PutUint64(rec, firstOff)
				return
			}
		}
		t.Fatalf("snapshot carries %d live records, want >= 2", seen)
	})
	if err := srv2.RestoreSnapshot(overlap); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("overlapping snapshot: %v", err)
	}

	// Records that are not naturally aligned power-of-two blocks inside
	// the pool — what the allocator and the object index both assume —
	// are rejected up front too, including an end that overflows int64.
	for _, bad := range [][2]uint64{
		{1024, 100},             // size not a power of two
		{1024 + 64, 256},        // start not aligned to the size
		{1 << 15, 1 << 16},      // ends past the pool
		{1 << 62, 1 << 62},      // off+size overflows
		{1024, 1<<64 - 1024},    // negative size
		{1<<64 - 1024, 1 << 10}, // negative offset
	} {
		shaped := rewriteSnapshot(t, path, func(body []byte) {
			recs := body[len(snapshotMagic)+4+2+8+4:]
			for ; binary.BigEndian.Uint64(recs) == 0; recs = recs[16:] {
			}
			binary.BigEndian.PutUint64(recs, bad[0])
			binary.BigEndian.PutUint64(recs[8:], bad[1])
		})
		if err := srv2.RestoreSnapshot(shaped); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("snapshot with record [%d,+%d): %v", bad[0], bad[1], err)
		}
	}

	// No partial restore: every rejected snapshot left the engine
	// untouched, so a valid restore still starts from a clean slate.
	if got := srv2.eng.Stats().Objects; got != baseObjects {
		t.Fatalf("rejected restores leaked %d objects", got-baseObjects)
	}
	if got := srv2.eng.Pool().AllocatedBytes(); got != basePool {
		t.Fatalf("rejected restores leaked pool bytes: %d != %d", got, basePool)
	}
	if err := srv2.RestoreSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if got := srv2.eng.Stats().Objects; got != 2 {
		t.Fatalf("valid restore after rejections: %d objects", got)
	}
}

func TestSnapshotRestoreThenMallocReusesFreedRange(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pool.snap"
	cfg := ServerConfig{ID: 1, PoolBytes: 1 << 16}
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
	// Fill the pool completely so the allocator has no slack.
	var live []region.GAddr
	for {
		a, err := p.Malloc(4096)
		if err != nil {
			break
		}
		live = append(live, a)
	}
	if len(live) < 2 {
		t.Fatalf("pool filled after only %d allocations", len(live))
	}
	p.Close()
	srv.Close()
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}

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

	// The restored allocator is still full...
	if _, err := p2.Malloc(4096); err == nil {
		t.Fatal("restored full pool accepted another allocation")
	}
	// ...and freeing one restored block makes exactly its range
	// allocatable again.
	victim := live[len(live)/2]
	if err := p2.Free(victim); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if got != victim {
		t.Fatalf("freed range not reused: freed %v, malloc returned %v", victim, got)
	}
}

// TestSnapshotRoundtripManyObjects restores a pool of more than 50 000
// live objects: validation is one sort and the object index adopts each
// block in constant time, so the restore takes a fraction of a second
// where per-object index clones and a pairwise overlap check took
// minutes, and the restored engine resolves addresses exactly as the
// original did.
func TestSnapshotRoundtripManyObjects(t *testing.T) {
	path := t.TempDir() + "/pool.snap"
	cfg := ServerConfig{ID: 2, PoolBytes: 8 << 20}
	srv, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []region.GAddr
	for i := 0; i < 60000; i++ {
		size := int64(64)
		if i%1000 == 999 {
			size = 4096
		}
		a, err := srv.eng.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 { // leave holes, so the inventory is not one dense run
			if err := srv.eng.Free(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var stamp [8]byte
		binary.BigEndian.PutUint64(stamp[:], uint64(a))
		if err := srv.eng.NVM().WriteRaw(a.Offset(), stamp[:]); err != nil {
			t.Fatal(err)
		}
		live = append(live, a)
	}
	if len(live) < 50000 {
		t.Fatalf("only %d live objects", len(live))
	}
	srv.Close()
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewPoolServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	start := time.Now()
	if err := srv2.RestoreSnapshot(path); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Logf("restored %d objects in %v", len(live), took)
	if took > time.Second {
		t.Errorf("restore of %d objects took %v, want well under a second", len(live), took)
	}

	if got, want := srv2.eng.Stats().Objects, srv.eng.Stats().Objects; got != want || want != len(live) {
		t.Fatalf("objects: restored %d, original %d, live %d", got, want, len(live))
	}
	if got, want := srv2.eng.Pool().AllocatedBytes(), srv.eng.Pool().AllocatedBytes(); got != want {
		t.Fatalf("allocated bytes: restored %d, original %d", got, want)
	}
	var stamp [8]byte
	for i, a := range live {
		probe := a.Add(int64(i % 64))
		b1, s1, ok1 := srv.eng.ObjectSpan(probe, 1)
		b2, s2, ok2 := srv2.eng.ObjectSpan(probe, 1)
		if !ok1 || b1 != a || b2 != b1 || s2 != s1 || ok2 != ok1 {
			t.Fatalf("ObjectSpan(%v): original %v,%d,%v restored %v,%d,%v", probe, b1, s1, ok1, b2, s2, ok2)
		}
		if i%97 != 0 {
			continue
		}
		if err := srv2.eng.NVM().ReadRaw(a.Offset(), stamp[:]); err != nil {
			t.Fatal(err)
		}
		if got := region.GAddr(binary.BigEndian.Uint64(stamp[:])); got != a {
			t.Fatalf("object %v carries stamp %v after restore", a, got)
		}
	}
	// A freed hole stays a hole on both sides.
	for off := int64(64); off < cfg.PoolBytes; off += 4096 + 64 {
		probe := region.MustGAddr(cfg.ID, off)
		_, _, ok1 := srv.eng.ObjectSpan(probe, 1)
		_, _, ok2 := srv2.eng.ObjectSpan(probe, 1)
		if ok1 != ok2 {
			t.Fatalf("ObjectSpan(%v): original live=%v restored live=%v", probe, ok1, ok2)
		}
	}
}

// TestHugeDigestIntervalBoundedSession opens a session on a daemon whose
// digest interval means "never" (1<<30): the session stages past the
// buffer's up-front chunk (see hotness.NewStaging) without a digest and
// keeps every observation, and every session reads the interval the
// engine holds.
func TestHugeDigestIntervalBoundedSession(t *testing.T) {
	for _, every := range []int{0, 8, 1 << 30} {
		srv, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1 << 20, DigestEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		want := every
		if want == 0 {
			want = 64 // the default
		}
		if got := srv.eng.Config().Hotness.DigestEvery; got != want {
			t.Errorf("DigestEvery=%d: engine digests every %d, want %d", every, got, want)
		}
		sess := srv.openSession()
		if every == 1<<30 {
			a, err := srv.eng.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3 * 4096
			for i := 0; i < n; i++ {
				sess.observe(a, false)
			}
			if d := srv.eng.Stats().Digests; d != 0 {
				t.Errorf("%d digests after %d observations, want none", d, n)
			}
			var staged []hotness.Entry
			sess.hot.Flush(func(e []hotness.Entry) { staged = append(staged, e...) })
			if len(staged) != 1 || staged[0].Reads != n {
				t.Errorf("staged %+v, want %d reads of %v", staged, n, a)
			}
		}
		sess.close()
		srv.Close()
	}
	if _, err := NewPoolServer(ServerConfig{ID: 1, PoolBytes: 1 << 20, DigestEvery: -1}); err == nil {
		t.Error("negative DigestEvery accepted")
	}
}
