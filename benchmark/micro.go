package main

import (
	"time"

	"gengar/internal/alloc"
	"gengar/internal/config"
	"gengar/internal/engine"
	"gengar/internal/hotness"
	"gengar/internal/proxy"
	"gengar/internal/region"
	"gengar/internal/ycsb"
)

// Direct-call timings for the traced run: the key stream of client 0 is
// replayed against a bare engine.Engine, with no socket between the
// caller and the layer, so that
//
//	read_p50_us ≈ tcpnet.rtt_null_us + engine.read_*_ns + payload copy
//
// can be checked. Calls are timed in batches, never one by one: two
// clock reads cost about as much as a cache hit.
const (
	microWarmKeys = 2000000 // reads that let the planner fill the cache
	microKeys     = 200000  // keys timed per measurement
	microPlans    = 50
)

// microMetrics fills the *_ns per-layer metrics.
func microMetrics(seed int64, m map[string]float64) error {
	// The cluster configuration the TCP daemon derives from its defaults.
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = tcpPoolBytes
	cfg.DRAMBufferBytes = tcpCacheBytes
	eng, err := engine.New(engine.Config{ID: 1, Cluster: cfg, Clock: engine.NewWallClock()})
	if err != nil {
		return err
	}
	defer eng.Close()
	eng.SetPlacer(engine.NewLocalPlacer(eng))

	addrs := make([]region.GAddr, zipfObjects)
	buf := make([]byte, recordBytes)
	t0 := time.Now()
	for i := range addrs {
		if addrs[i], err = eng.Malloc(recordBytes); err != nil {
			return err
		}
	}
	m["engine.malloc_ns"] = perCall(time.Since(t0), len(addrs))
	for i, addr := range addrs {
		stampRecord(buf, stamp{obj: uint64(i)})
		if _, err := eng.WriteNVM(eng.Now(), addr, buf); err != nil {
			return err
		}
	}

	gen, err := newGenerator(ycsb.C(), zipfObjects, seed, 0)
	if err != nil {
		return err
	}
	// Warm the cache the way a daemon session does: one digest per 64
	// observed accesses, plans on the engine's own schedule.
	obs := make([]hotness.Obs, 0, 64)
	for i := 0; i < microWarmKeys; i++ {
		addr := addrs[gen.Next().Key]
		if _, _, err := eng.ReadAt(eng.Now(), addr, buf); err != nil {
			return err
		}
		if obs = append(obs, hotness.Obs{Addr: addr}); len(obs) == cap(obs) {
			eng.Digest(eng.Now(), hotness.AggregateObs(obs))
			obs = obs[:0]
		}
	}
	if err := eng.Flusher().Barrier(); err != nil {
		return err
	}

	// Split the next keys of the stream by where the engine serves
	// them from now, then time each side alone.
	var hits, misses []region.GAddr
	for len(hits) < microKeys || len(misses) < microKeys {
		addr := addrs[gen.Next().Key]
		_, src, err := eng.ReadAt(eng.Now(), addr, buf)
		if err != nil {
			return err
		}
		if src.Hit() && len(hits) < microKeys {
			hits = append(hits, addr)
		} else if !src.Hit() && len(misses) < microKeys {
			misses = append(misses, addr)
		}
	}
	for _, side := range []struct {
		name  string
		addrs []region.GAddr
	}{{"engine.read_hit_ns", hits}, {"engine.read_miss_ns", misses}} {
		at := eng.Now()
		t0 := time.Now()
		for _, addr := range side.addrs {
			if _, _, err := eng.ReadAt(at, addr, buf); err != nil {
				return err
			}
		}
		m[side.name] = perCall(time.Since(t0), len(side.addrs))
	}

	// Staging: a session's ring, as tcpnet's openSession builds it.
	base, err := eng.OpenRing()
	if err != nil {
		return err
	}
	slots, slotSize := eng.RingGeometry()
	w, err := proxy.NewLocalWriter(eng.Flusher(), proxy.Ring{ID: 1, Base: base, DevBase: base, Slots: slots, SlotSize: slotSize})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < microKeys; i++ {
		addr := addrs[gen.Next().Key]
		if _, err := w.Stage(eng.Now(), addr, addr.Offset(), buf); err != nil {
			return err
		}
	}
	m["proxy.stage_ns"] = perCall(time.Since(t0), microKeys)
	w.Close()
	if err := eng.CloseRing(base); err != nil {
		return err
	}

	t0 = time.Now()
	for _, addr := range addrs {
		if err := eng.Free(addr); err != nil {
			return err
		}
	}
	m["engine.free_ns"] = perCall(time.Since(t0), len(addrs))

	// Hotness: the sketch and the planner on the same stream.
	sketch := hotness.NewSpaceSaving(cfg.Hotness.SketchK)
	t0 = time.Now()
	for i := 0; i < microKeys; i++ {
		sketch.Add(addrs[gen.Next().Key], 2)
	}
	m["hotness.sketch_add_ns"] = perCall(time.Since(t0), microKeys)
	policy := hotness.Policy{
		BudgetBytes: cfg.DRAMBufferBytes, MinWeight: cfg.Hotness.MinWeight,
		Hysteresis: cfg.Hotness.Hysteresis, MaxChurn: cfg.Hotness.MaxChurn,
	}
	footprint := func(region.GAddr) int64 { return alloc.BlockSize(recordBytes + 16) }
	promoted := make(map[region.GAddr]bool)
	t0 = time.Now()
	for i := 0; i < microPlans; i++ {
		promote, _ := policy.Plan(sketch, footprint, promoted)
		for _, a := range promote {
			promoted[a] = true
		}
	}
	m["hotness.plan_ns"] = perCall(time.Since(t0), microPlans)

	// Allocator: sharded-pool pairs at the record size.
	pool, err := alloc.NewSharded(tcpPoolBytes)
	if err != nil {
		return err
	}
	offs := make([]int64, zipfObjects)
	t0 = time.Now()
	for i := range offs {
		if offs[i], err = pool.Alloc(recordBytes); err != nil {
			return err
		}
	}
	m["alloc.alloc_ns"] = perCall(time.Since(t0), len(offs))
	t0 = time.Now()
	for _, off := range offs {
		if err := pool.Free(off); err != nil {
			return err
		}
	}
	m["alloc.free_ns"] = perCall(time.Since(t0), len(offs))
	return nil
}

func perCall(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
