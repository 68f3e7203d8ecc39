package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"gengar/internal/cache"
	"gengar/internal/config"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/simnet"
)

// planCfg builds a config whose epochs trigger easily.
func planCfg() config.Cluster {
	cfg := testCfg()
	cfg.Hotness.MinWeight = 2
	cfg.Hotness.PlanEvery = time.Microsecond
	return cfg
}

// mallocOn allocates an object directly through a server's RPC handler.
func mallocOn(t *testing.T, ctl *rpc.Client, size int64) region.GAddr {
	t.Helper()
	var w rpc.Writer
	w.I64(size)
	resp, _, err := ctl.Call(0, KindMalloc, w.Bytes(), new(rpc.Writer))
	if err != nil {
		t.Fatal(err)
	}
	addr := region.GAddr(resp.U64())
	if err := resp.Err(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// digest reports synthetic access counts for one object.
func digest(t *testing.T, ctl *rpc.Client, at simnet.Time, addr region.GAddr, reads uint32) uint64 {
	t.Helper()
	var w rpc.Writer
	w.U32(1).U64(uint64(addr)).U32(reads).U32(0)
	resp, _, err := ctl.Call(at, KindDigest, w.Bytes(), new(rpc.Writer))
	if err != nil {
		t.Fatal(err)
	}
	epoch := resp.U64()
	if err := resp.Err(); err != nil {
		t.Fatal(err)
	}
	return epoch
}

func TestPlanPromotesHotObject(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")

	addr := mallocOn(t, ctl, 512)
	want := bytes.Repeat([]byte{0xEE}, 512)
	if err := s.nvm.WriteRaw(addr.Offset(), want); err != nil {
		t.Fatal(err)
	}

	digest(t, ctl, 0, addr, 100)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}

	epoch, snap := s.remap.Snapshot()
	if epoch == 0 || len(snap) != 1 {
		t.Fatalf("promotion missing: epoch=%d snap=%v", epoch, snap)
	}
	loc, ok := snap[addr]
	if !ok {
		t.Fatalf("promoted set %v lacks %v", snap, addr)
	}
	if loc.Size != 512 || loc.Gen == 0 {
		t.Fatalf("location fields: %+v", loc)
	}

	// The copy carries the generation header followed by the NVM data.
	host, ok := c.Registry().ByNode(loc.Node)
	if !ok {
		t.Fatalf("copy host %q unknown", loc.Node)
	}
	hdr := make([]byte, cache.CopyHeaderBytes+512)
	if err := host.cacheDev.ReadRaw(loc.Off, hdr); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(hdr) != loc.Gen {
		t.Fatal("generation header mismatch")
	}
	if !bytes.Equal(hdr[cache.CopyHeaderBytes:], want) {
		t.Fatal("copy data mismatch")
	}
	if s.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d", s.Stats().Promotions)
	}
}

func TestPlanDemotesWhenDisplaced(t *testing.T) {
	cfg := planCfg()
	cfg.DRAMBufferBytes = 1 << 10 // fits one 512 B copy (576 B footprint), not two
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")

	a := mallocOn(t, ctl, 512)
	b := mallocOn(t, ctl, 512)
	digest(t, ctl, 0, a, 10)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, snap := s.remap.Snapshot(); len(snap) != 1 {
		t.Fatalf("first promotion: %v", snap)
	}
	// b becomes far hotter; with room for one copy, a must be displaced.
	// (Advance simulated time so the plan period elapses.)
	digest(t, ctl, simnet.Time(10*time.Millisecond), b, 1000)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	_, snap := s.remap.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("after displacement: %v", snap)
	}
	if _, stillA := snap[a]; stillA {
		t.Fatal("cold incumbent survived a 100x hotter challenger")
	}
	if _, hasB := snap[b]; !hasB {
		t.Fatal("hot challenger not promoted")
	}
	if s.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d", s.Stats().Demotions)
	}
	// Exactly one copy's worth of arena is in use cluster-wide (the
	// challenger may have spilled to the peer while the incumbent still
	// held the local arena).
	var used int64
	for _, srv := range c.Registry().Servers() {
		used += srv.bufp.UsedBytes()
	}
	if used != cache.CopyFootprint(512) {
		t.Fatalf("cluster buffer bytes %d after displacement (leak?)", used)
	}
}

func TestDigestIgnoresUnknownAddresses(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")

	// A digest naming an address that was never allocated must not
	// promote anything or error.
	digest(t, ctl, 0, region.MustGAddr(1, 1<<16), 100)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, snap := s.remap.Snapshot(); len(snap) != 0 {
		t.Fatalf("phantom promotion: %v", snap)
	}
}

// TestDigestOversizedCountRejected sends a digest whose count promises
// 1<<31 entries and carries none: the server must answer with an error
// before sizing anything by that count.
func TestDigestOversizedCountRejected(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")
	var w rpc.Writer
	w.U32(1 << 31)
	var re *rpc.RemoteError
	if _, _, err := ctl.Call(0, KindDigest, w.Bytes(), new(rpc.Writer)); !errors.As(err, &re) {
		t.Fatalf("digest with count 1<<31 and no body: got %v, want RemoteError", err)
	}
	if got := s.Stats().Digests; got != 0 {
		t.Fatalf("%d digests landed", got)
	}
}

func TestWriteThroughRefreshesPromotedCopy(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")

	addr := mallocOn(t, ctl, 256)
	digest(t, ctl, 0, addr, 100)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	_, snap := s.remap.Snapshot()
	loc, ok := snap[addr]
	if !ok {
		t.Fatal("not promoted")
	}

	// Simulate a client's direct NVM write of a sub-range, then the
	// write-through RPC; the copy must reflect it.
	patch := []byte("PATCH")
	if err := s.nvm.WriteRaw(addr.Offset()+100, patch); err != nil {
		t.Fatal(err)
	}
	var w rpc.Writer
	w.U32(1).U64(uint64(addr.Add(100))).U32(uint32(len(patch)))
	if _, _, err := ctl.Call(0, KindWriteThroughBatch, w.Bytes(), new(rpc.Writer)); err != nil {
		t.Fatal(err)
	}
	host, _ := c.Registry().ByNode(loc.Node)
	got := make([]byte, len(patch))
	if err := host.cacheDev.ReadRaw(loc.Off+cache.CopyHeaderBytes+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patch) {
		t.Fatalf("copy not refreshed: %q", got)
	}
}

func TestApplyToCacheBoundsAndMisses(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")
	addr := mallocOn(t, ctl, 128)

	// Not promoted: hook is a no-op returning the input time.
	if got := s.applyToCache(42, addr, []byte("x")); got != 42 {
		t.Fatalf("unpromoted applyToCache returned %v", got)
	}
	// Unknown object: also a no-op.
	if got := s.applyToCache(42, region.MustGAddr(1, 1<<20), []byte("x")); got != 42 {
		t.Fatalf("unknown-object applyToCache returned %v", got)
	}

	digest(t, ctl, 0, addr, 100)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	// Promoted: a write inside bounds advances time.
	if got := s.applyToCache(42, addr, []byte("ok")); got <= 42 {
		t.Fatalf("promoted applyToCache returned %v", got)
	}
}

func TestFreeWhilePromotedReleasesCopy(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")
	addr := mallocOn(t, ctl, 256)
	digest(t, ctl, 0, addr, 100)
	if err := s.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	if s.remap.Len() != 1 {
		t.Fatal("not promoted")
	}
	var w rpc.Writer
	w.U64(uint64(addr))
	if _, _, err := ctl.Call(0, KindFree, w.Bytes(), new(rpc.Writer)); err != nil {
		t.Fatal(err)
	}
	if s.remap.Len() != 0 || s.bufp.UsedBytes() != 0 {
		t.Fatalf("free left copy behind: promoted=%d used=%d", s.remap.Len(), s.bufp.UsedBytes())
	}
}

func TestCopyFootprint(t *testing.T) {
	c, err := NewCluster(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, _ := c.Registry().ByID(1)
	ctl := dial(t, c, s, "client-x")
	addr := mallocOn(t, ctl, 1024)
	// 16 header + 1024 data, in whole 64-byte granules: 1088.
	if got, want := s.copyFootprint(addr), cache.CopyFootprint(1024); got != want || want != 1088 {
		t.Fatalf("copyFootprint = %d, want %d (1088)", got, want)
	}
	if got := s.copyFootprint(region.MustGAddr(1, 1<<20)); got != 0 {
		t.Fatalf("phantom footprint = %d", got)
	}
}

func TestPlanSpillsToPeerWhenLocalArenaFull(t *testing.T) {
	cfg := planCfg()
	cfg.DRAMBufferBytes = 1 << 12
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s1, _ := c.Registry().ByID(1)
	s2, _ := c.Registry().ByID(2)
	ctl := dial(t, c, s1, "client-x")

	// Consume server 1's whole arena so placement must go to server 2.
	if _, err := s1.bufp.Place(s1.bufp.Capacity()); err != nil {
		t.Fatal(err)
	}
	addr := mallocOn(t, ctl, 256)
	digest(t, ctl, 0, addr, 100)
	if err := s1.Engine().Barrier(); err != nil {
		t.Fatal(err)
	}
	_, snap := s1.remap.Snapshot()
	loc, ok := snap[addr]
	if !ok {
		t.Fatal("not promoted despite peer space")
	}
	if loc.Node != s2.Node().ID() {
		t.Fatalf("copy placed on %s, want peer %s", loc.Node, s2.Node().ID())
	}
	// The remote install actually wrote the generation header.
	hdr := make([]byte, 8)
	if err := s2.cacheDev.ReadRaw(loc.Off, hdr); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(hdr) != loc.Gen {
		t.Fatal("remote install missing generation header")
	}
}
