package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"gengar/internal/region"
	"gengar/internal/tcpnet"
	"gengar/internal/ycsb"
)

// The TCP mount: one gengard engine served on 127.0.0.1 in this
// process, two tcpnet.Pool connections, wall-clock time. The daemon
// keeps gengard's defaults (8 MiB of staging rings, digest every 64
// accesses) except the DRAM cache, which is 4 MiB, not 8: at this
// commit every Malloc clones the engine's object index, so loading the
// 16384 objects that are twice the default cache takes 5 to 8 s, and a
// run sets up three times. Half the objects over half the cache keep
// the 2:1 pressure and load in a quarter of the time.
const (
	tcpPoolBytes  = 256 << 20
	tcpCacheBytes = 4 << 20

	zipfObjects = 8192 // × 1 KiB = 8 MiB = 2× the DRAM cache
	txnObjects  = 1024 // × 1 KiB = 1 MiB, fits the cache

	// Warm-up is a fixed amount of work, not a fixed time, so that
	// setup_s moves when the program gets slower at doing it.
	zipfWarmOps = 50000 // per client
	txnWarmOps  = 5000  // per client

	scratchBytes = 64 // the allocator's smallest block

	loadBurst = 32   // records per WriteMulti while loading
	loadLap   = 1024 // records per lap of the set-up timer
)

// tcpKind selects what one op is.
type tcpKind int

const (
	kindRead   tcpKind = iota // 100 % ReadCheck
	kindUpdate                // 50 % ReadCheck, 50 % full-record Write
	kindTxn                   // lock, ReadMulti, increment, WriteMulti, unlock
)

// tcpClient is one closed-loop caller and everything only it touches.
type tcpClient struct {
	pool   *tcpnet.Pool
	gen    *ycsb.Generator
	writer uint32   // stamp identity: index + 1
	seq    uint32   // last write sequence number used
	own    []uint32 // own[obj] = seq of this client's last write to obj
	buf    []byte
	spans  *spanLog
	opID   uint64

	reads, writes              samples // ReadCheck / Write (ReadMulti / WriteMulti in txns)
	acquires, releases, drains samples
	txns                       samples
	scratch                    region.GAddr
	fields                     [txnFields][]byte
	rreqs                      []tcpnet.ReadReq
	wreqs                      []tcpnet.WriteReq
	lost, timeout              int64
}

type tcpInstance struct {
	kind    tcpKind
	srv     *tcpnet.PoolServer
	served  chan error
	clients [numClients]*tcpClient
	addrs   []region.GAddr
	// expected[obj] is the counter the last committed transaction on
	// obj wrote. Only the holder of obj's exclusive lock touches it;
	// it is atomic so that a broken lock shows as a lost update, not
	// as a data race in the benchmark.
	expected []atomic.Uint64

	warmOps, warmFailed int64
}

func setupTCP(kind tcpKind, p params) (instance, error) {
	t := &tcpInstance{kind: kind, served: make(chan error, 1)}
	sample := 0
	if p.traced {
		sample = 1
	}
	srv, err := tcpnet.NewPoolServer(tcpnet.ServerConfig{
		ID: 1, PoolBytes: tcpPoolBytes, CacheBytes: tcpCacheBytes, TraceSample: sample,
	})
	if err != nil {
		return nil, err
	}
	t.srv = srv
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	go func() { t.served <- srv.Serve(lis) }()

	objects, workload, warm := zipfObjects, ycsb.C(), zipfWarmOps
	switch kind {
	case kindUpdate:
		workload = ycsb.A()
	case kindTxn:
		objects, warm = txnObjects, txnWarmOps
	}
	for c := range t.clients {
		pool, err := tcpnet.DialConfig(tcpnet.PoolConfig{
			Addrs: []string{lis.Addr().String()}, Timeout: 5 * time.Second, TraceSample: sample,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		gen, err := newGenerator(workload, objects, p.seed, c)
		if err != nil {
			pool.Close()
			t.close()
			return nil, err
		}
		cl := &tcpClient{
			pool: pool, gen: gen, writer: uint32(c + 1),
			own: make([]uint32, objects), buf: make([]byte, recordBytes),
		}
		if p.traced {
			cl.spans = newSpanLog(c, p.window)
		}
		t.clients[c] = cl
	}
	if err := p.lapNow(); err != nil {
		t.close()
		return nil, err
	}
	if err := t.load(objects, p); err != nil {
		t.close()
		return nil, err
	}
	t.allocSamples(p.window)
	t.warmOps = int64(warm) * numClients
	if t.warmFailed, err = warmUp(t, warm, p); err != nil {
		t.close()
		return nil, err
	}
	if _, err := t.quiesce(); err != nil {
		t.close()
		return nil, err
	}
	// Histograms and counters from here on describe the window only.
	srv.Telemetry().Reset()
	t.resetSamples()
	return t, nil
}

// load allocates the data set through client 0 and writes version 0 of
// every record in bursts, then waits for the flusher: client 1 reads
// through another session and would otherwise see unflushed zeros.
func (t *tcpInstance) load(objects int, p params) error {
	cl := t.clients[0]
	t.addrs = make([]region.GAddr, objects)
	t.expected = make([]atomic.Uint64, objects)
	rows := make([][]byte, loadBurst)
	for i := range rows {
		rows[i] = make([]byte, recordBytes)
	}
	reqs := make([]tcpnet.WriteReq, 0, loadBurst)
	for i := 0; i < objects; i += loadBurst {
		reqs = reqs[:0]
		for b := 0; b < loadBurst && i+b < objects; b++ {
			addr, err := cl.pool.Malloc(recordBytes)
			if err != nil {
				return fmt.Errorf("load object %d: %w", i+b, err)
			}
			t.addrs[i+b] = addr
			if t.kind == kindTxn {
				for f := 0; f < txnFields; f++ {
					stampField(rows[b][f*txnFieldBytes:(f+1)*txnFieldBytes], uint64(i+b), f, 0)
				}
			} else {
				stampRecord(rows[b], stamp{obj: uint64(i + b)})
			}
			reqs = append(reqs, tcpnet.WriteReq{Addr: addr, Data: rows[b]})
		}
		if err := cl.pool.WriteMulti(reqs); err != nil {
			return fmt.Errorf("load objects %d..: %w", i, err)
		}
		if (i+loadBurst)%loadLap == 0 {
			if err := p.lapNow(); err != nil {
				return err
			}
		}
	}
	if t.kind == kindTxn {
		for _, cl := range t.clients {
			for f := range cl.fields {
				cl.fields[f] = make([]byte, txnFieldBytes)
			}
			cl.rreqs = make([]tcpnet.ReadReq, txnFields)
			cl.wreqs = make([]tcpnet.WriteReq, txnFields)
			var err error
			if cl.scratch, err = cl.pool.Malloc(scratchBytes); err != nil {
				return err
			}
		}
	}
	return t.srv.Engine().Flusher().Barrier()
}

// allocSamples sizes every latency buffer for the window up front, so
// recording a sample never allocates inside it.
func (t *tcpInstance) allocSamples(window time.Duration) {
	for _, cl := range t.clients {
		if t.kind == kindTxn {
			n := int(window.Seconds()*40000) + txnWarmOps
			for _, s := range cl.sampleSets() {
				*s = newSamples(n)
			}
			continue
		}
		n := int(window.Seconds()*150000) + zipfWarmOps
		cl.reads = newSamples(n)
		if t.kind == kindUpdate {
			cl.writes = newSamples(n)
		}
	}
}

// sampleSets lists every latency buffer of the client.
func (cl *tcpClient) sampleSets() []*samples {
	return []*samples{&cl.reads, &cl.writes, &cl.acquires, &cl.releases, &cl.drains, &cl.txns}
}

func (t *tcpInstance) resetSamples() {
	for _, cl := range t.clients {
		for _, s := range cl.sampleSets() {
			s.reset()
		}
		cl.lost, cl.timeout = 0, 0
		cl.spans.reset()
	}
}

func (t *tcpInstance) cut() {
	for _, cl := range t.clients {
		for _, s := range cl.sampleSets() {
			s.cut()
		}
	}
}

// Wall-clock callers need no pacing between them.
func (t *tcpInstance) phase()    {}
func (t *tcpInstance) leave(int) {}

func (t *tcpInstance) step(c int) (time.Time, int) {
	cl := t.clients[c]
	cl.opID++
	if t.kind == kindTxn {
		return t.txn(cl)
	}
	op := cl.gen.Next()
	obj := uint64(op.Key)
	addr := t.addrs[obj]
	if op.Kind == ycsb.OpUpdate {
		cl.seq++
		stampRecord(cl.buf, stamp{obj: obj, writer: cl.writer, seq: cl.seq})
		t0 := time.Now()
		err := cl.pool.Write(addr, cl.buf)
		t1 := time.Now()
		cl.writes.add(t1.Sub(t0))
		cl.spans.add("Write", cl.opID, noParent, t0, t1)
		if err != nil {
			return t1, 1
		}
		cl.own[obj] = cl.seq
		return t1, 0
	}
	t0 := time.Now()
	_, err := cl.pool.ReadCheck(addr, cl.buf)
	t1 := time.Now()
	cl.reads.add(t1.Sub(t0))
	cl.spans.add("ReadCheck", cl.opID, noParent, t0, t1)
	if err != nil || verifyRecord(cl.buf, obj, cl.writer, cl.own[obj]) != nil {
		return t1, 1
	}
	return t1, 0
}

// txn is one shared transaction: take the object's exclusive lock, read
// its eight fields, add one to each counter, write them back, publish,
// release. Objects are drawn zipfian, so the two clients contend.
//
// The publish step (Free + Malloc of a 64-byte scratch object) is not
// part of the transaction a user would write. At this commit OpUnlockEx
// releases the lease without draining the session's staging ring
// (ROADMAP open item 0), so the next holder can read pre-write NVM and
// 0.1–0.2 % of the updates are lost. OpFree does drain the session's
// ring — pending overlay included, which a flusher barrier alone leaves
// behind — so it is the one wire op that publishes staged writes. Once
// unlock drains by itself the step can go.
func (t *tcpInstance) txn(cl *tcpClient) (time.Time, int) {
	obj := uint64(cl.gen.Next().Key)
	base := t.addrs[obj]
	for f := 0; f < txnFields; f++ {
		cl.rreqs[f] = tcpnet.ReadReq{Addr: base.Add(int64(f * txnFieldBytes)), Buf: cl.fields[f]}
		cl.wreqs[f] = tcpnet.WriteReq{Addr: cl.rreqs[f].Addr, Data: cl.fields[f]}
	}
	failed := 0
	t0 := time.Now()
	parent := cl.spans.open("txn", cl.opID, t0)
	if err := cl.pool.LockExclusive(base); err != nil {
		cl.timeout++
		return time.Now(), 1
	}
	t1 := time.Now()
	err := cl.pool.ReadMulti(cl.rreqs)
	t2 := time.Now()
	if err != nil {
		failed++
	}
	// Under the lock every field must hold the counter the previous
	// holder wrote; anything else is a lost or torn update.
	want := t.expected[obj].Load()
	stale := false
	for f := 0; f < txnFields; f++ {
		got, err := verifyField(cl.fields[f], obj, f)
		if err != nil || got != want {
			stale = true
		}
	}
	if stale && err == nil {
		cl.lost++
		failed++
	}
	for f := 0; f < txnFields; f++ {
		stampField(cl.fields[f], obj, f, want+1)
	}
	t3 := time.Now()
	if err := cl.pool.WriteMulti(cl.wreqs); err != nil {
		failed++
	} else {
		t.expected[obj].Store(want + 1)
	}
	t4 := time.Now()
	if err := cl.pool.Free(cl.scratch); err != nil {
		failed++
	}
	if cl.scratch, err = cl.pool.Malloc(scratchBytes); err != nil {
		failed++
	}
	t5 := time.Now()
	if err := cl.pool.UnlockExclusive(base); err != nil {
		failed++
	}
	t6 := time.Now()

	cl.acquires.add(t1.Sub(t0))
	cl.reads.add(t2.Sub(t1))
	cl.writes.add(t4.Sub(t3))
	cl.drains.add(t5.Sub(t4))
	cl.releases.add(t6.Sub(t5))
	cl.txns.add(t6.Sub(t0))
	cl.spans.add("LockExclusive", cl.opID, parent, t0, t1)
	cl.spans.add("ReadMulti", cl.opID, parent, t1, t2)
	cl.spans.add("WriteMulti", cl.opID, parent, t3, t4)
	cl.spans.add("Free+Malloc", cl.opID, parent, t4, t5)
	cl.spans.add("UnlockExclusive", cl.opID, parent, t5, t6)
	cl.spans.close(parent, t6)
	if failed > 1 {
		failed = 1 // one transaction is one op
	}
	return t6, failed
}

func (t *tcpInstance) quiesce() (time.Duration, error) {
	t0 := time.Now()
	err := t.srv.Engine().Flusher().Barrier()
	return time.Since(t0), err
}

// finish sweeps the transaction objects once the flusher has drained:
// every stored counter must be the one its last committed transaction
// wrote. It then derives the client-side metrics of the window.
func (t *tcpInstance) finish(r *windowResult) error {
	cl0 := t.clients[0]
	var lost, timeouts int64
	if t.kind == kindTxn {
		buf := make([]byte, recordBytes)
		for obj, addr := range t.addrs {
			if err := cl0.pool.Read(addr, buf); err != nil {
				return fmt.Errorf("final sweep of object %d: %w", obj, err)
			}
			want := t.expected[obj].Load()
			for f := 0; f < txnFields; f++ {
				got, err := verifyField(buf[f*txnFieldBytes:(f+1)*txnFieldBytes], uint64(obj), f)
				if err != nil || got != want {
					lost++
					r.failed++
					break
				}
			}
		}
	}
	for _, cl := range t.clients {
		lost += cl.lost
		timeouts += cl.timeout
	}
	// of gathers one latency buffer from every client.
	of := func(pick func(*tcpClient) samples) []samples {
		sets := make([]samples, len(t.clients))
		for c, cl := range t.clients {
			sets[c] = pick(cl)
		}
		return sets
	}
	reads := of(func(cl *tcpClient) samples { return cl.reads })
	writes := of(func(cl *tcpClient) samples { return cl.writes })
	m := r.metrics
	p50 := func(sets []samples) float64 { return sliceQuantileUS(sets, r.scales, 0.5) }
	p99 := func(sets []samples) float64 { return sliceQuantileUS(sets, r.scales, 0.99) }
	m["read_p50_us"], m["read_p99_us"] = p50(reads), p99(reads)
	reportTail("read", reads)
	switch t.kind {
	case kindUpdate:
		m["client.write_p50_us"], m["client.write_p99_us"] = p50(writes), p99(writes)
		reportTail("write", writes)
	case kindTxn:
		acquires := of(func(cl *tcpClient) samples { return cl.acquires })
		txns := of(func(cl *tcpClient) samples { return cl.txns })
		m["tcpnet.readmulti_p50_us"] = m["read_p50_us"]
		m["tcpnet.writemulti_p50_us"] = p50(writes)
		m["lock.acquire_p50_us"], m["lock.acquire_p99_us"] = p50(acquires), p99(acquires)
		m["lock.release_p50_us"] = p50(of(func(cl *tcpClient) samples { return cl.releases }))
		m["lock.publish_p50_us"] = p50(of(func(cl *tcpClient) samples { return cl.drains }))
		m["lock.txn_p50_us"], m["lock.txn_p99_us"] = p50(txns), p99(txns)
		m["lock.lost_updates"] = float64(lost)
		m["lock.acquire_timeouts"] = float64(timeouts)
		reportTail("txn", txns)
	}
	// ReadMulti does not report where a read was served from, so the
	// hit fraction of every TCP workload comes from the engine.
	hit := r.after["engine.hits"] - r.before["engine.hits"]
	miss := r.after["engine.misses"] - r.before["engine.misses"]
	if hit+miss > 0 {
		m["dram_hit_frac"] = hit / (hit + miss)
	}
	tcpLayerMetrics(t, r)
	measured := map[string]float64{"read": sumNS(reads)}
	if t.kind == kindUpdate {
		measured["write"] = sumNS(writes)
	}
	stageMetrics(r, measured)
	return nil
}

// nullRTT is the median round trip of the smallest frame both ways
// (Pool.Version), taken on an idle daemon after the window.
func nullRTT(t *tcpInstance) float64 {
	const calls = 2000
	cl := t.clients[0]
	rtts := newSamples(calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if _, err := cl.pool.Version(t.addrs[0]); err != nil {
			return 0
		}
		rtts.add(time.Since(t0))
	}
	return quantileUS(mergeSorted(rtts.ns), 0.5)
}

func (t *tcpInstance) warmed() (ops, failed int64) { return t.warmOps, t.warmFailed }

func (t *tcpInstance) spanLogs() []*spanLog {
	var logs []*spanLog
	for _, cl := range t.clients {
		logs = append(logs, cl.spans)
	}
	return logs
}

func (t *tcpInstance) close() {
	for _, cl := range t.clients {
		if cl != nil {
			cl.pool.Close()
		}
	}
	t.srv.Close()
	<-t.served
}

// snapshot flattens every cumulative counter the daemon exposes.
func (t *tcpInstance) snapshot() counters {
	eng := t.srv.Engine()
	st := eng.Stats()
	ws := eng.NVM().WriteStats()
	cs := eng.NVM().ControllerStats()
	c := counters{
		"engine.hits":          float64(st.Hits + st.PeerHits),
		"engine.misses":        float64(st.Misses),
		"engine.seq_retries":   float64(st.SeqRetries),
		"engine.seq_fallbacks": float64(st.SeqFallbacks),
		"engine.promotions":    float64(st.Promotions),
		"engine.demotions":     float64(st.Demotions),
		"engine.promoted":      float64(st.Promoted),
		"engine.buffer_used":   float64(st.BufferUsed),
		"engine.remap_epoch":   float64(st.RemapEpoch),
		"engine.digests":       float64(st.Digests),
		"proxy.staged":         float64(st.Proxy.Staged),
		"proxy.flushed":        float64(st.Proxy.Flushed),
		"proxy.nvm_writes":     float64(st.Proxy.NVMWrites),
		"proxy.bytes_flushed":  float64(st.Proxy.BytesFlushed),
		"proxy.queue_hw":       float64(st.Proxy.QueueHighWater),
		"proxy.backoff":        float64(st.Proxy.BackoffLevel),
		"proxy.gate_waits":     float64(st.Proxy.GateWaits),
		"proxy.lag_p50_ns":     float64(st.Proxy.FlushLag.P50),
		"proxy.lag_p99_ns":     float64(st.Proxy.FlushLag.P99),
		"hmem.write_ops":       float64(ws.Ops),
		"hmem.write_bytes":     float64(ws.Bytes),
		"hmem.ctrl_busy_ns":    float64(cs.BusyTotal),
	}
	var lo, hi int64 = -1, 0
	for _, s := range eng.Pool().ShardStats() {
		if lo < 0 || s.UserBytes < lo {
			lo = s.UserBytes
		}
		if s.UserBytes > hi {
			hi = s.UserBytes
		}
	}
	c["alloc.shard_min"], c["alloc.shard_max"] = float64(lo), float64(hi)
	snap := t.srv.Telemetry().Snapshot()
	c["tcpnet.ops"] = float64(snap.Sum("gengar_tcp_ops_total"))
	c["tcpnet.failures"] = float64(snap.Sum("gengar_tcp_failures_total"))
	c["tcpnet.rx_bytes"] = float64(snap.Sum("gengar_tcp_rx_bytes_total"))
	c["tcpnet.srv_pool_hits"] = float64(snap.Sum("gengar_tcp_frame_pool_hits_total"))
	c["tcpnet.srv_pool_misses"] = float64(snap.Sum("gengar_tcp_frame_pool_misses_total"))
	for _, h := range snap.Histograms {
		switch h.Name {
		case "gengar_tcp_frames_per_flush":
			c["tcpnet.flushes"] = float64(h.Count)
		case "gengar_tcp_bytes_per_syscall":
			c["tcpnet.flush_bytes"] = float64(h.SumNanos)
		case "gengar_tcp_request_latency_seconds":
			c["tcpnet.op_ns."+h.Labels["op"]] = float64(h.SumNanos)
			c["tcpnet.op_n."+h.Labels["op"]] = float64(h.Count)
		}
	}
	addStages(c, "s", t.srv.Tracer().StageSummaries())
	for _, cl := range t.clients {
		hits, misses := cl.pool.WireStats()
		c["tcpnet.cli_pool_hits"] += float64(hits)
		c["tcpnet.cli_pool_misses"] += float64(misses)
		addStages(c, "c", cl.pool.Tracer().StageSummaries())
	}
	return c
}
