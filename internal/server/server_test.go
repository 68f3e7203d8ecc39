package server

import (
	"errors"
	"strings"
	"testing"

	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/rdma"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/simnet"
)

func testCfg() config.Cluster {
	cfg := config.Default()
	cfg.Servers = 2
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.RingBytes = 1 << 23
	return cfg
}

func newCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// dial opens a control channel to a server from a fresh client node.
func dial(t *testing.T, c *Cluster, s *Server, name string) *rpc.Client {
	t.Helper()
	node, err := c.Fabric().AddNode(name)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rpc.Dial(node, s.Node(), s.RPC())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestNodeName(t *testing.T) {
	if NodeName(3) != "server-3" {
		t.Fatalf("NodeName = %q", NodeName(3))
	}
}

func TestNewClusterValidates(t *testing.T) {
	cfg := testCfg()
	cfg.Servers = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestClusterBasics(t *testing.T) {
	c := newCluster(t)
	if len(c.Registry().Servers()) != 2 {
		t.Fatal("server count")
	}
	if c.NextClientID() == 0 || c.NextClientID() == c.NextClientID() {
		t.Fatal("client IDs must be nonzero and unique")
	}
	if _, ok := c.Registry().ByID(1); !ok {
		t.Fatal("ByID(1)")
	}
	if _, ok := c.Registry().ByID(99); ok {
		t.Fatal("phantom ByID")
	}
	if _, ok := c.Registry().ByNode("server-2"); !ok {
		t.Fatal("ByNode")
	}
	if _, ok := c.Registry().ByNode("nope"); ok {
		t.Fatal("phantom ByNode")
	}
	if c.Config().Servers != 2 {
		t.Fatal("Config roundtrip")
	}
}

func TestRegistryJoinDuplicate(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	if err := c.Registry().Join(s); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestRegistryNextGenMonotonic(t *testing.T) {
	r := NewRegistry()
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		g := r.nextGen()
		if g <= prev {
			t.Fatalf("gen not monotonic: %d after %d", g, prev)
		}
		prev = g
	}
}

func TestMallocFreeRPC(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")

	var w rpc.Writer
	w.I64(500)
	resp, _, err := ctl.Call(0, KindMalloc, w.Bytes(), new(rpc.Writer))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	addr := region.GAddr(resp.U64())
	if addr.IsNil() || addr.Server() != 1 {
		t.Fatalf("addr = %v", addr)
	}
	if addr.Offset() == 0 {
		t.Fatal("object allocated at offset 0 (nil-address hazard)")
	}
	st := s.Stats()
	if st.Mallocs != 1 || st.Objects != 1 || st.PoolUsed < 500 {
		t.Fatalf("stats after malloc: %+v", st)
	}

	var f rpc.Writer
	f.U64(uint64(addr))
	if _, _, err := ctl.Call(0, KindFree, f.Bytes(), new(rpc.Writer)); err != nil {
		t.Fatalf("free: %v", err)
	}
	if st := s.Stats(); st.Frees != 1 || st.Objects != 0 {
		t.Fatalf("stats after free: %+v", st)
	}
	// Double free is an error.
	if _, _, err := ctl.Call(0, KindFree, f.Bytes(), new(rpc.Writer)); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestMallocRejectsBadSize(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")
	var w rpc.Writer
	w.I64(-5)
	if _, _, err := ctl.Call(0, KindMalloc, w.Bytes(), new(rpc.Writer)); err == nil {
		t.Fatal("negative malloc accepted")
	}
}

func TestFreeWrongHome(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")
	var w rpc.Writer
	w.U64(uint64(region.MustGAddr(2, 64))) // homed on server 2
	_, _, err := ctl.Call(0, KindFree, w.Bytes(), new(rpc.Writer))
	if err == nil || !strings.Contains(err.Error(), "not homed") {
		t.Fatalf("wrong-home free: %v", err)
	}
}

func TestOpenCloseSession(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")

	resp, _, err := ctl.Call(0, KindOpenSession, nil, new(rpc.Writer))
	if err != nil {
		t.Fatal(err)
	}
	ringRKey := resp.U32()
	ringBase := resp.I64()
	slots := resp.U32()
	slotSize := resp.U32()
	nvmRKey := resp.U32()
	lockRKey := resp.U32()
	_ = resp.I64() // lock base
	lockSlots := resp.U32()
	if err := resp.Err(); err != nil {
		t.Fatal(err)
	}
	if ringRKey == 0 || nvmRKey == 0 || lockRKey == 0 {
		t.Fatal("zero rkeys in session")
	}
	if int(slots) != testCfg().Proxy.RingSlots || int(slotSize) != testCfg().Proxy.RingSlotSize {
		t.Fatalf("ring geometry %dx%d", slots, slotSize)
	}
	if int(lockSlots) != testCfg().LockSlots {
		t.Fatalf("lock slots %d", lockSlots)
	}

	// Second session gets a disjoint ring.
	resp2, _, err := ctl.Call(0, KindOpenSession, nil, new(rpc.Writer))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.U32()
	ringBase2 := resp2.I64()
	if ringBase2 == ringBase {
		t.Fatal("sessions share a ring")
	}

	// Close the first; reopening reuses its ring.
	var w rpc.Writer
	w.I64(ringBase)
	if _, _, err := ctl.Call(0, KindCloseSession, w.Bytes(), new(rpc.Writer)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.Call(0, KindCloseSession, w.Bytes(), new(rpc.Writer)); err == nil {
		t.Fatal("double ring close accepted")
	}
	resp3, _, err := ctl.Call(0, KindOpenSession, nil, new(rpc.Writer))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.U32()
	if got := resp3.I64(); got != ringBase {
		t.Fatalf("freed ring not reused: %d != %d", got, ringBase)
	}
}

func TestCloseSessionValidatesBase(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")
	var w rpc.Writer
	w.I64(12345) // not ring-aligned, never allocated
	if _, _, err := ctl.Call(0, KindCloseSession, w.Bytes(), new(rpc.Writer)); err == nil {
		t.Fatal("bogus ring close accepted")
	}
}

func TestRegistryPlacePrefersMostFree(t *testing.T) {
	c := newCluster(t)
	r := c.Registry()
	s1, _ := r.ByID(1)
	s2, _ := r.ByID(2)
	// Consume most of s1's arena so s2 has more free space.
	if _, err := s1.bufp.Place(s1.bufp.Capacity() / 2); err != nil {
		t.Fatal(err)
	}
	target, off, err := r.place(s1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if target != s2 {
		t.Fatalf("placed on %d, want 2", target.ID())
	}
	if err := s2.bufp.Release(off); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPlaceExhaustion(t *testing.T) {
	c := newCluster(t)
	r := c.Registry()
	s1, _ := r.ByID(1)
	_, _, err := r.place(s1, 1<<30)
	if !errors.Is(err, ErrNoBufferSpace) {
		t.Fatalf("oversize place: %v", err)
	}
}

func TestRegistryReleaseUnknownNode(t *testing.T) {
	c := newCluster(t)
	// Must not panic.
	c.Registry().release(cache.Location{Node: "ghost"})
}

func TestWriteThroughRPC(t *testing.T) {
	// Covered end-to-end in core; here: wrong home is rejected, unknown
	// object is a no-op success.
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-a")
	var w rpc.Writer
	w.U32(1).U64(uint64(region.MustGAddr(2, 64))).U32(8)
	if _, _, err := ctl.Call(0, KindWriteThroughBatch, w.Bytes(), new(rpc.Writer)); err == nil {
		t.Fatal("wrong-home write-through accepted")
	}
	var w2 rpc.Writer
	w2.U32(1).U64(uint64(region.MustGAddr(1, 64))).U32(8)
	if _, _, err := ctl.Call(0, KindWriteThroughBatch, w2.Bytes(), new(rpc.Writer)); err != nil {
		t.Fatalf("unknown-object write-through: %v", err)
	}
}

func TestServerStatsSnapshot(t *testing.T) {
	c := newCluster(t)
	s, _ := c.Registry().ByID(1)
	st := s.Stats()
	if st.Objects != 0 || st.Promoted != 0 || st.RemapEpoch != 0 {
		t.Fatalf("fresh stats: %+v", st)
	}
	if st.PoolUsed == 0 {
		t.Fatal("offset-0 guard block not accounted")
	}
}

func TestMeshConnected(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Registry().ByID(1)
	s2, _ := c.Registry().ByID(2)
	s1.mu.Lock()
	qp12 := s1.peers[2]
	s1.mu.Unlock()
	s2.mu.Lock()
	qp21 := s2.peers[1]
	s2.mu.Unlock()
	if qp12 == nil || qp21 == nil {
		t.Fatal("mesh QPs missing")
	}
	// The mesh QP can actually move bytes into the peer's cache arena.
	dst := rdma.RemoteAddr{
		Region: rdma.RegionHandle{Node: s2.Node().ID(), RKey: s2.cacheMR.RKey()},
		Offset: 0,
	}
	if _, err := qp12.Write(simnet.Time(0), []byte("mesh"), dst); err != nil {
		t.Fatalf("mesh write: %v", err)
	}
	got := make([]byte, 4)
	if err := s2.cacheDev.ReadRaw(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "mesh" {
		t.Fatalf("mesh data %q", got)
	}
}
