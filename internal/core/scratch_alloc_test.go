//go:build !race

// Allocation gates for the sim mount: in steady state every data-path op
// and the digest/remap control path allocate nothing. Each op runs from
// scratch the client reuses (ReadMulti's pooled tmps, the write chain's
// grouping slices, the cache-hit copy buffer, the control-plane request
// and receive buffers, the view's spare table). The race detector
// instruments allocations, so these run only in normal builds.

package core

import (
	"bytes"
	"testing"

	"gengar/internal/config"
	"gengar/internal/hotness"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/server"
)

const (
	allocObjects  = 8 // promoted objects, and as many never observed
	allocObjBytes = 512
	allocServers  = 4
)

// allocFixture is a sim cluster whose client has allocObjects promoted
// objects in its views and allocObjects that were never observed, homed
// round-robin over allocServers servers. Copies are placed on the
// servers with the most free buffer space, so a ReadMulti of all of them
// posts a chain of about four records to each node: no chain is longer
// than the eight WQEs rdma validates from a stack array. Digests go out
// only where a test sends one.
type allocFixture struct {
	c     *server.Cluster
	cl    *Client
	addrs []region.GAddr // hot, then cold
	hot   []region.GAddr // promoted: reads hit their DRAM copies
	cold  []region.GAddr // never observed: reads go to home NVM
	bufs  [][]byte
	one   []byte
}

func newAllocFixture(t *testing.T, sample int) *allocFixture {
	t.Helper()
	cfg := testConfig()
	cfg.Servers = allocServers
	cfg.Hotness.DigestEvery = 1 << 30
	c := newTestCluster(t, cfg)
	c.Tracer().SetSampleEvery(sample)
	fx := &allocFixture{c: c, cl: connect(t, c, "u1"), one: make([]byte, allocObjBytes)}
	for i := 0; i < 2*allocObjects; i++ {
		a, err := fx.cl.Malloc(allocObjBytes)
		if err != nil {
			t.Fatal(err)
		}
		fx.addrs = append(fx.addrs, a)
		fx.bufs = append(fx.bufs, bytes.Repeat([]byte{byte(i)}, allocObjBytes))
	}
	fx.hot, fx.cold = fx.addrs[:allocObjects], fx.addrs[allocObjects:]
	if err := fx.cl.WriteMulti(fx.hot, fx.bufs[:allocObjects]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		for _, a := range fx.hot {
			if err := fx.cl.Read(a, fx.one); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first sync reports the reads and the plans promote; the second
	// fetches the tables the promotions published.
	for range 2 {
		for _, s := range c.Registry().Servers() {
			if err := s.Engine().Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.cl.SyncAllViews(); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range fx.addrs {
		before := fx.cl.Stats().CacheHits
		if err := fx.cl.Read(a, fx.one); err != nil {
			t.Fatal(err)
		}
		if hit := fx.cl.Stats().CacheHits > before; hit != (i < allocObjects) {
			t.Fatalf("object %d: cache hit %v, want %v", i, hit, i < allocObjects)
		}
	}
	return fx
}

// simOp names one sim data-path op the gates measure.
type simOp int

const (
	opReadHit simOp = iota
	opReadMiss
	opWrite
	opReadMulti
	opWriteMulti
)

// simOps are the measured ops, each with the cache hits one call must be
// served with — so a gate cannot pass by measuring the wrong path.
var simOps = [...]struct {
	name string
	hits int64
	run  func(fx *allocFixture) error
}{
	opReadHit:  {"Read of a promoted object", 1, func(fx *allocFixture) error { return fx.cl.Read(fx.hot[0], fx.one) }},
	opReadMiss: {"Read miss", 0, func(fx *allocFixture) error { return fx.cl.Read(fx.cold[0], fx.one) }},
	opWrite:    {"Write", 0, func(fx *allocFixture) error { return fx.cl.Write(fx.cold[0], fx.bufs[0]) }},
	opReadMulti: {"ReadMulti of 8 cached + 8 uncached records", allocObjects,
		func(fx *allocFixture) error { return fx.cl.ReadMulti(fx.addrs, fx.bufs) }},
	opWriteMulti: {"WriteMulti", 0,
		func(fx *allocFixture) error { return fx.cl.WriteMulti(fx.cold, fx.bufs[allocObjects:]) }},
}

// allocs runs op in steady state and returns its allocs per call
// (minAllocs), after checking that one call is served with the op's
// cache hits.
func (fx *allocFixture) allocs(t *testing.T, op simOp) float64 {
	t.Helper()
	o := simOps[op]
	f := func() {
		if err := o.run(fx); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
	}
	for i := 0; i < 16; i++ {
		f() // every scratch buffer grows to its high-water mark
	}
	before := fx.cl.Stats().CacheHits
	f()
	if got := fx.cl.Stats().CacheHits - before; got != o.hits {
		t.Fatalf("%s: %d cache hits per call, want %d", o.name, got, o.hits)
	}
	return minAllocs(f)
}

func requireNoAllocs(t *testing.T, op simOp) {
	if a := newAllocFixture(t, 0).allocs(t, op); a != 0 {
		t.Fatalf("%s allocates %.2f times per call in steady state, want 0", simOps[op].name, a)
	}
}

func TestReadHitSteadyStateAllocs(t *testing.T)  { requireNoAllocs(t, opReadHit) }
func TestReadMissSteadyStateAllocs(t *testing.T) { requireNoAllocs(t, opReadMiss) }
func TestWriteSteadyStateAllocs(t *testing.T)    { requireNoAllocs(t, opWrite) }

func TestReadMultiCachedSteadyStateAllocs(t *testing.T) { requireNoAllocs(t, opReadMulti) }
func TestWriteMultiSteadyStateAllocs(t *testing.T)      { requireNoAllocs(t, opWriteMulti) }

// TestDigestRefreshSteadyStateAllocs measures the control path: one
// digest exchange whose reply shows the home's epoch moved, so the client
// fetches the remap table and decodes it into its view.
func TestDigestRefreshSteadyStateAllocs(t *testing.T) {
	fx := newAllocFixture(t, 0)
	cl := fx.cl
	conn, err := cl.conn(fx.hot[0])
	if err != nil {
		t.Fatal(err)
	}
	// Only this home's promoted objects are reported, so the plan rounds
	// the digests trigger keep the promoted set as it is.
	var entries []hotness.Entry
	for _, a := range fx.hot {
		if a.Server() == fx.hot[0].Server() {
			entries = append(entries, hotness.Entry{Addr: a, Reads: 1})
		}
	}
	// An epoch-0 snapshot installs unconditionally: it makes the view
	// stale, so the next exchange sees the epoch move and refreshes.
	var stale rpc.Writer
	stale.U64(0).U32(0)
	epoch := conn.view.Epoch()
	exchange := func() {
		var r rpc.Reader
		r.Reset(stale.Bytes())
		if err := conn.view.DecodeSnapshot(&r); err != nil {
			t.Fatal(err)
		}
		cl.mu.Lock()
		cl.digestExchange(conn, cl.now, entries)
		cl.mu.Unlock()
	}
	for i := 0; i < 16; i++ {
		exchange()
	}
	if conn.view.Epoch() != epoch || conn.view.Len() != len(entries) {
		t.Fatalf("view after an exchange: epoch %d with %d entries, want %d with %d",
			conn.view.Epoch(), conn.view.Len(), epoch, len(entries))
	}
	if a := minAllocs(exchange); a != 0 {
		t.Fatalf("a digest exchange with a remap refresh allocates %.2f times, want 0", a)
	}
}

func TestWriteMultiDirectSteadyStateAllocs(t *testing.T) {
	// No proxy, so a chain goes straight to NVM; with the cache on it
	// also pays the write-through RPC, whose request and reply reuse the
	// client's control-plane buffers.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Features = config.Features{Cache: true}
	cfg.Hotness.DigestEvery = 1 << 30
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	// Eight WQEs is the longest chain rdma validates from a stack array;
	// a longer one allocates its region list, once per chain.
	const k = 8
	addrs := make([]region.GAddr, k)
	bufs := make([][]byte, k)
	for i := range addrs {
		a, err := cl.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
		bufs[i] = bytes.Repeat([]byte{byte(i)}, 128)
	}
	run := func() {
		if err := cl.WriteMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch
	if allocs := minAllocs(run); allocs != 0 {
		t.Fatalf("direct WriteMulti allocates %.2f times per call for %d entries, want 0", allocs, k)
	}
}

// minAllocs is the smallest of five AllocsPerRun(50, f) samples. The
// cluster's flush workers allocate on their own schedule (scratch
// growth, batch slices) and AllocsPerRun counts the whole process, so
// one sample can read one high; an allocation f itself makes is in
// every sample and still moves the minimum by one.
func minAllocs(f func()) float64 {
	best := testing.AllocsPerRun(50, f)
	for i := 1; i < 5; i++ {
		if a := testing.AllocsPerRun(50, f); a < best {
			best = a
		}
	}
	return best
}

// TestUnsampledTracingAddsNoAllocsSim is the sim-mount half of the
// tracing zero-cost claim: with the cluster tracer's sampling gate
// armed but never firing, every data-path op must allocate exactly as
// much as with tracing disabled.
func TestUnsampledTracingAddsNoAllocsSim(t *testing.T) {
	base, traced := newAllocFixture(t, 0), newAllocFixture(t, 1<<30)
	for op := range simOps {
		b, tr := base.allocs(t, simOp(op)), traced.allocs(t, simOp(op))
		if tr > b+0.5 {
			t.Errorf("%s: %.1f allocs/op with unsampled tracing, %.1f without — tracing must be free when unsampled",
				simOps[op].name, tr, b)
		}
	}
}
