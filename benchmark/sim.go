package main

import (
	"errors"
	"fmt"
	"time"

	"gengar/internal/config"
	"gengar/internal/core"
	"gengar/internal/region"
	"gengar/internal/server"
	"gengar/internal/simnet"
	"gengar/internal/ycsb"
)

// The sim mount: server.NewCluster + core.Connect, every media and
// network cost charged to a virtual clock. Four servers, 4096 × 1 KiB
// records, a DRAM buffer of 256 KiB per server (a quarter of the data),
// YCSB-A with full-record updates so that every image carries stamps.
const (
	simServers    = 4
	simObjects    = 4096
	simBufferByte = 256 << 10
	simWarmOps    = 200000 // per client, then Barrier + SyncAllViews
	// simBaseOps is how much of the same op stream the NVM-Direct
	// comparator replays (traced run only): it has no cache to warm, so
	// its virtual throughput is steady from the first op.
	simBaseOps = 200000

	// simPacing bounds the virtual-clock skew between the two clients,
	// as ycsb.Run does, so their timelines interleave.
	simPacing = 3 * time.Microsecond
)

func simConfig(direct bool) config.Cluster {
	cfg := config.Default()
	if direct {
		cfg = config.NVMDirect()
	}
	cfg.Servers = simServers
	cfg.DRAMBufferBytes = simBufferByte
	cfg.Hotness.DigestEvery = 512
	cfg.Hotness.PlanEvery = 200 * time.Microsecond
	return cfg
}

type simClient struct {
	cl     *core.Client
	gen    *ycsb.Generator
	pace   *simnet.GateHandle
	writer uint32
	seq    uint32
	own    []uint32
	buf    []byte
	spans  *spanLog
	opID   uint64

	reads, writes     samples // wall ns per Read / Write call
	vreads            samples // virtual ns per Read
	vReadNS, vWriteNS int64   // virtual ns spent in Read / Write
	nReads, nWrites   int64
	stale             int64 // reads that returned an older own write
	vStart, vEnd      simnet.Time
}

type simInstance struct {
	cluster *server.Cluster
	clients [numClients]*simClient
	addrs   []region.GAddr
	// vSpan is the virtual time the closed phases since the last reset
	// covered; openSpan is the rest.
	vSpan time.Duration

	warmOps, warmFailed int64
}

func setupSim(p params) (instance, error) {
	s, err := newSim(simConfig(false), p)
	if err != nil {
		return nil, err
	}
	s.warmOps = simWarmOps * numClients
	if s.warmFailed, err = warmUp(s, simWarmOps, p); err != nil {
		s.close()
		return nil, err
	}
	// Quiesce the flushers and give every client a current remap view,
	// twice: the first sync can itself trigger a plan.
	for pass := 0; pass < 2; pass++ {
		if _, err := s.quiesce(); err != nil {
			s.close()
			return nil, err
		}
		for _, c := range s.clients {
			if err := c.cl.SyncAllViews(); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	s.cluster.Telemetry().Reset()
	if p.traced {
		s.cluster.Tracer().SetSampleEvery(1)
	}
	for _, c := range s.clients {
		c.reads.reset()
		c.vreads.reset()
		c.writes.reset()
		c.vReadNS, c.vWriteNS, c.nReads, c.nWrites, c.stale = 0, 0, 0, 0, 0
		c.vStart, c.vEnd = 0, 0
		c.spans.reset()
	}
	s.vSpan = 0
	return s, nil
}

// newSim builds a cluster, connects the clients and loads the records.
func newSim(cfg config.Cluster, p params) (*simInstance, error) {
	cluster, err := server.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	s := &simInstance{cluster: cluster}
	for c := range s.clients {
		cl, err := core.Connect(cluster, fmt.Sprintf("c%d", c))
		if err != nil {
			s.close()
			return nil, err
		}
		gen, err := newGenerator(simWorkload(), simObjects, p.seed, c)
		if err != nil {
			cl.Close()
			s.close()
			return nil, err
		}
		n := int(p.window.Seconds()*200000) + simWarmOps
		sc := &simClient{
			cl: cl, gen: gen, writer: uint32(c + 1),
			own: make([]uint32, simObjects), buf: make([]byte, recordBytes),
			reads: newSamples(n), writes: newSamples(n), vreads: newSamples(n),
		}
		if p.traced {
			sc.spans = newSpanLog(c, p.window)
		}
		s.clients[c] = sc
	}
	if err := s.load(p); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func simWorkload() ycsb.Workload {
	w := ycsb.A()
	w.UpdateBytes = recordBytes
	return w
}

// load writes version 0 of every record through client 0 and flushes:
// Flush is the sim mount's publication point for unlocked readers.
func (s *simInstance) load(p params) error {
	cl := s.clients[0].cl
	s.addrs = make([]region.GAddr, simObjects)
	rows := make([][]byte, loadBurst)
	for i := range rows {
		rows[i] = make([]byte, recordBytes)
	}
	for i := 0; i < simObjects; i += loadBurst {
		for b := 0; b < loadBurst; b++ {
			addr, err := cl.Malloc(recordBytes)
			if err != nil {
				return fmt.Errorf("load record %d: %w", i+b, err)
			}
			s.addrs[i+b] = addr
			stampRecord(rows[b], stamp{obj: uint64(i + b)})
		}
		if err := cl.WriteMulti(s.addrs[i:i+loadBurst], rows); err != nil {
			return fmt.Errorf("load records %d..: %w", i, err)
		}
		if (i+loadBurst)%loadLap == 0 {
			if err := p.lapNow(); err != nil {
				return err
			}
		}
	}
	return cl.Flush()
}

// phase starts both clients from the same virtual instant — the fabric
// frontier — and joins them to a fresh pacing gate before either runs.
func (s *simInstance) phase() {
	s.vSpan += s.openSpan()
	var start simnet.Time
	for _, c := range s.clients {
		c.cl.AdvanceToFrontier()
		if now := c.cl.Now(); now > start {
			start = now
		}
	}
	gate := simnet.NewGate(simPacing)
	for _, c := range s.clients {
		c.cl.AdvanceTo(start)
		c.vStart, c.vEnd = start, start
		c.pace = gate.Join(start)
	}
}

func (s *simInstance) leave(c int) { s.clients[c].pace.Leave() }

func (s *simInstance) cut() {
	for _, c := range s.clients {
		c.reads.cut()
		c.writes.cut()
		c.vreads.cut()
	}
}

// openSpan is the virtual time the current phase has covered so far:
// it began with both clients at one instant and reaches to the later of
// their last completions.
func (s *simInstance) openSpan() time.Duration {
	end := s.clients[0].vStart
	for _, c := range s.clients {
		if c.vEnd > end {
			end = c.vEnd
		}
	}
	return end.Sub(s.clients[0].vStart)
}

func (s *simInstance) step(i int) (time.Time, int) {
	c := s.clients[i]
	c.opID++
	op := c.gen.Next()
	obj := uint64(op.Key)
	addr := s.addrs[obj]
	before := c.cl.Now()
	c.pace.Advance(before)
	if op.Kind == ycsb.OpUpdate {
		c.seq++
		stampRecord(c.buf, stamp{obj: obj, writer: c.writer, seq: c.seq})
		t0 := time.Now()
		err := c.cl.Write(addr, c.buf)
		t1 := time.Now()
		c.vEnd = c.cl.Now()
		c.writes.add(t1.Sub(t0))
		c.vWriteNS += int64(c.vEnd.Sub(before))
		c.nWrites++
		c.spans.add("Write", c.opID, noParent, t0, t1)
		if err != nil {
			return t1, 1
		}
		c.own[obj] = c.seq
		return t1, 0
	}
	t0 := time.Now()
	err := c.cl.Read(addr, c.buf)
	t1 := time.Now()
	c.vEnd = c.cl.Now()
	c.reads.add(t1.Sub(t0))
	c.vreads.add(c.vEnd.Sub(before))
	c.vReadNS += int64(c.vEnd.Sub(before))
	c.nReads++
	c.spans.add("Read", c.opID, noParent, t0, t1)
	if err == nil {
		err = verifyRecord(c.buf, obj, c.writer, c.own[obj])
	}
	if errors.Is(err, errStaleOwn) {
		// The client's remap view can lag a demotion: the released copy
		// no longer receives write-throughs, and until the next digest
		// exchange reads of it go stale — the client's own flushed
		// writes included (a finding of this benchmark at its seed
		// commit, see README.md). The caller does what an application
		// that knows what it wrote can do: refresh the view and read
		// again. The event is counted; the op fails only if the second
		// read is wrong too.
		c.stale++
		if err = c.cl.SyncView(addr); err == nil {
			err = c.cl.Read(addr, c.buf)
		}
		if err == nil {
			err = verifyRecord(c.buf, obj, c.writer, c.own[obj])
		}
		t1 = time.Now()
		c.vEnd = c.cl.Now()
	}
	if err != nil {
		return t1, 1
	}
	return t1, 0
}

func (s *simInstance) quiesce() (time.Duration, error) {
	t0 := time.Now()
	for _, srv := range s.cluster.Registry().Servers() {
		if err := srv.Engine().Barrier(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// virtualKops is the throughput on the virtual clock, in ops per
// virtual millisecond, and the virtual span it was measured over.
func (s *simInstance) virtualKops() (kops float64, span time.Duration) {
	var ops int64
	for _, c := range s.clients {
		ops += c.nReads + c.nWrites
	}
	if span = s.vSpan + s.openSpan(); span <= 0 {
		return 0, 0
	}
	return float64(ops) / (float64(span) / 1e6), span
}

func (s *simInstance) finish(r *windowResult) error {
	var reads, writes, vreads []samples
	var vRead, vWrite, nRead, nWrite int64
	for _, c := range s.clients {
		reads = append(reads, c.reads)
		writes = append(writes, c.writes)
		vreads = append(vreads, c.vreads)
		vRead += c.vReadNS
		vWrite += c.vWriteNS
		nRead += c.nReads
		nWrite += c.nWrites
	}
	m := r.metrics
	// The median is what a simulated read costs the simulator, on the
	// wall clock; the tail is what it costs the simulated caller, on the
	// virtual clock like op_mean_us. (The virtual median is a constant of
	// the configuration — one DRAM hit, 1.527 µs — and cannot move; the
	// wall-clock tail of a 0.8 µs call is timer and collector noise.)
	m["read_p50_us"] = sliceQuantileUS(reads, r.scales, 0.5)
	m["read_p99_us"] = sliceQuantileUS(vreads, nil, 0.99)
	m["simnet.read_wall_p99_us"] = sliceQuantileUS(reads, r.scales, 0.99)
	m["client.write_p50_us"] = sliceQuantileUS(writes, r.scales, 0.5)
	m["client.write_p99_us"] = sliceQuantileUS(writes, r.scales, 0.99)
	reportTail("read", reads)
	kops, span := s.virtualKops()
	m["sim.kops"] = kops
	// The callers live on the virtual clock, so the latency one of
	// them sees per op is virtual: clients ÷ virtual throughput.
	m["op_mean_us"] = float64(numClients) * float64(span) / 1e3 / float64(nRead+nWrite)
	if nRead > 0 {
		m["sim.read_mean_us"] = float64(vRead) / float64(nRead) / 1e3
	}
	if nWrite > 0 {
		m["sim.update_mean_us"] = float64(vWrite) / float64(nWrite) / 1e3
	}
	hit := r.after["core.hits"] - r.before["core.hits"]
	miss := r.after["core.misses"] - r.before["core.misses"]
	if hit+miss > 0 {
		m["dram_hit_frac"] = hit / (hit + miss)
	}
	simLayerMetrics(s, r)
	stageMetrics(r, map[string]float64{"read": float64(vRead), "write": float64(vWrite)})
	return nil
}

func (s *simInstance) warmed() (ops, failed int64) { return s.warmOps, s.warmFailed }

func (s *simInstance) spanLogs() []*spanLog {
	var logs []*spanLog
	for _, c := range s.clients {
		logs = append(logs, c.spans)
	}
	return logs
}

func (s *simInstance) close() {
	for _, c := range s.clients {
		if c != nil {
			c.cl.Close()
		}
	}
	s.cluster.Close()
}

func (s *simInstance) snapshot() counters {
	c := counters{}
	v := s.cluster.Fabric().VerbCounts()
	c["rdma.one_sided"] = float64(v.Reads + v.Writes + v.CAS + v.FetchAdd)
	c["rdma.sends"] = float64(v.Sends)
	for _, srv := range s.cluster.Registry().Servers() {
		st := srv.Stats()
		c["engine.promotions"] += float64(st.Promotions)
		c["engine.demotions"] += float64(st.Demotions)
		c["engine.promoted"] += float64(st.Promoted)
		c["engine.buffer_used"] += float64(st.BufferUsed)
		c["engine.remap_epoch"] += float64(st.RemapEpoch)
		c["engine.digests"] += float64(st.Digests)
		c["proxy.staged"] += float64(st.Proxy.Staged)
		c["proxy.flushed"] += float64(st.Proxy.Flushed)
		c["proxy.nvm_writes"] += float64(st.Proxy.NVMWrites)
		c["proxy.bytes_flushed"] += float64(st.Proxy.BytesFlushed)
		c["proxy.gate_waits"] += float64(st.Proxy.GateWaits)
		// Levels and quantiles do not add up across servers: the worst
		// server speaks for the cluster.
		c.max("proxy.queue_hw", float64(st.Proxy.QueueHighWater))
		c.max("proxy.backoff", float64(st.Proxy.BackoffLevel))
		c.max("proxy.lag_p50_ns", float64(st.Proxy.FlushLag.P50))
		c.max("proxy.lag_p99_ns", float64(st.Proxy.FlushLag.P99))
		ws := srv.Core().NVM().WriteStats()
		c["hmem.write_ops"] += float64(ws.Ops)
		c["hmem.write_bytes"] += float64(ws.Bytes)
		c["hmem.ctrl_busy_ns"] += float64(srv.Core().NVM().ControllerStats().BusyTotal)
	}
	// One tracer covers client and servers here, so every stage of an
	// op is on the caller's side of the (simulated) wire.
	addStages(c, "c", s.cluster.Tracer().StageSummaries())
	for _, cl := range s.clients {
		st := cl.cl.Stats()
		c["core.hits"] += float64(st.CacheHits)
		c["core.misses"] += float64(st.CacheMiss)
		c["core.stale_gen"] += float64(st.StaleGenRetries)
		c.max("core.read_p50_ns", float64(st.ReadLatency.P50))
		c.max("core.read_p99_ns", float64(st.ReadLatency.P99))
		c.max("core.update_p99_ns", float64(st.WriteLat.P99))
	}
	return c
}

// nvmDirectKops replays the first simBaseOps ops of the same stream on
// the NVM-Direct configuration (same substrate, no cache, no proxy) and
// returns its virtual throughput: the base of sim.gain_vs_nvmdirect.
func nvmDirectKops(p params) (float64, int64, error) {
	p.traced = false
	s, err := newSim(simConfig(true), p)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	for _, c := range s.clients {
		c.nReads, c.nWrites = 0, 0
	}
	p.lap = nil
	failed, err := warmUp(s, simBaseOps, p)
	kops, _ := s.virtualKops()
	return kops, failed, err
}
