//go:build !race

// Allocation-regression tests: the vectored data-path ops run from
// pooled scratch, so their steady state must not allocate per entry.
// The race detector instruments allocations, so these run only in
// normal builds.

package core

import (
	"bytes"
	"testing"

	"gengar/internal/config"
	"gengar/internal/region"
)

func TestReadMultiCachedSteadyStateAllocs(t *testing.T) {
	// Promote one object, then hammer it with vectored cached reads. Each
	// entry needs a header+payload staging buffer; those come from the
	// scratch pool, so allocations must stay far below one per entry.
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Hotness.DigestEvery = 1 << 30 // keep digest traffic out of the loop
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	a, _ := cl.Malloc(512)
	if err := cl.Write(a, bytes.Repeat([]byte{0x5a}, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 32; i++ {
		if err := cl.Read(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c, cl, a)
	settle(t, c, cl, a)
	srv, _ := c.Registry().ByID(1)
	if srv.Stats().Promoted == 0 {
		t.Skip("promotion did not land")
	}

	const k = 16
	addrs := make([]region.GAddr, k)
	bufs := make([][]byte, k)
	for i := range addrs {
		addrs[i] = a
		bufs[i] = make([]byte, 512)
	}
	run := func() {
		if err := cl.ReadMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool and per-node groups
	if hits := cl.Stats().CacheHits; hits < k {
		t.Skipf("cached path not taken (hits=%d)", hits)
	}
	allocs := testing.AllocsPerRun(50, run)
	// One chain bookkeeping alloc per call is fine; one per entry is the
	// regression this guards against.
	if allocs >= k/2 {
		t.Fatalf("ReadMulti allocates %.1f times per call for %d cached entries", allocs, k)
	}
}

func TestWriteMultiDirectSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Features = config.Features{} // direct path: chain + one fence
	c := newTestCluster(t, cfg)
	cl := connect(t, c, "u1")
	const k = 16
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
	run() // warm the scratch pool
	allocs := testing.AllocsPerRun(50, run)
	if allocs >= k/2 {
		t.Fatalf("WriteMulti allocates %.1f times per call for %d entries", allocs, k)
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

// measureSimOpAllocs reports steady-state allocs/op (minAllocs) for
// Read, Write, ReadMulti and WriteMulti against a fresh single-server
// sim cluster.
func measureSimOpAllocs(t *testing.T, sample int) (read, write, readMulti, writeMulti float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Servers = 1
	cfg.Hotness.DigestEvery = 1 << 30
	c := newTestCluster(t, cfg)
	c.Tracer().SetSampleEvery(sample)
	cl := connect(t, c, "u1")
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
	one := make([]byte, 128)
	warm := func() {
		if err := cl.Write(addrs[0], bufs[0]); err != nil {
			t.Fatal(err)
		}
		if err := cl.Read(addrs[0], one); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
		if err := cl.ReadMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		warm()
	}
	read = minAllocs(func() {
		if err := cl.Read(addrs[0], one); err != nil {
			t.Fatal(err)
		}
	})
	write = minAllocs(func() {
		if err := cl.Write(addrs[0], bufs[0]); err != nil {
			t.Fatal(err)
		}
	})
	readMulti = minAllocs(func() {
		if err := cl.ReadMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	})
	writeMulti = minAllocs(func() {
		if err := cl.WriteMulti(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	})
	return read, write, readMulti, writeMulti
}

// TestUnsampledTracingAddsNoAllocsSim is the sim-mount half of the
// tracing zero-cost claim: with the cluster tracer's sampling gate
// armed but never firing, every data-path op must allocate exactly as
// much as with tracing disabled.
func TestUnsampledTracingAddsNoAllocsSim(t *testing.T) {
	baseR, baseW, baseRM, baseWM := measureSimOpAllocs(t, 0)
	trR, trW, trRM, trWM := measureSimOpAllocs(t, 1<<30)
	for _, c := range []struct {
		op           string
		base, traced float64
	}{
		{"Read", baseR, trR},
		{"Write", baseW, trW},
		{"ReadMulti", baseRM, trRM},
		{"WriteMulti", baseWM, trWM},
	} {
		if c.traced > c.base+0.5 {
			t.Errorf("%s: %.1f allocs/op with unsampled tracing, %.1f without — tracing must be free when unsampled",
				c.op, c.traced, c.base)
		}
	}
}
