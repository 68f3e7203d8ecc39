package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gengar/internal/telemetry/span"
)

// counters is one reading of every cumulative counter a mount exposes,
// by name; per-layer metrics are differences of two readings.
type counters map[string]float64

// max keeps the larger of the stored reading and v.
func (c counters) max(name string, v float64) {
	if v > c[name] {
		c[name] = v
	}
}

// metricSpec names one reported metric. BENCHMARK.json carries the same
// table; a test keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the metrics a user of either mount sees, defined on
// every workload. See README.md for what each means on each workload
// and for the metrics of ISSUE 13's table that are per-layer here
// because they do not exist on every workload.
//
// Times and rates are scaled to a reference host's speed, slice by
// slice (calibrate.go), and carry the largest bound the contract allows:
// ten runs of one commit on the 2-vCPU reference host spread them by
// 1–7 % while the host's own speed, by the stopwatch, moved by 20–47 %
// between the runs (README.md, "Recorded seed baseline"); the widest
// spreads are the simulator's, whose cost the loopback yardstick tracks
// least well. Every bound is at least three times the spread seen.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_mean_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"dram_hit_frac", "ratio", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer are the metrics of single layers, named <module>.<metric>.
// A metric that does not exist on a workload reads 0 there.
var perLayer = []metricSpec{
	// The host under the run: the calibration yardstick and the
	// throughput before it is applied (calibrate.go).
	lower("host.loopback_rtt_us", "us"),
	higher("host.stopwatch_ops_per_s", "1/s"),
	// Client-side observations that are not defined on every workload.
	lower("client.write_p50_us", "us"),
	lower("client.write_p99_us", "us"),
	lower("client.failed_frac", "ratio"),
	lower("client.txn_self_us", "us"), // txn span minus its child spans
	// Wire path (TCP mount).
	lower("tcpnet.rtt_null_us", "us"),
	lower("tcpnet.server_op_us.read", "us"),
	lower("tcpnet.server_op_us.write", "us"),
	lower("tcpnet.server_op_us.lock_ex", "us"),
	lower("tcpnet.server_op_us.unlock_ex", "us"),
	lower("tcpnet.server_op_us.write_batch", "us"),
	higher("tcpnet.frames_per_writev", "count"),
	higher("tcpnet.bytes_per_syscall", "B"),
	lower("tcpnet.frame_pool_miss_frac", "ratio"),
	lower("tcpnet.failures", "count"),
	lower("tcpnet.readmulti_p50_us", "us"),
	lower("tcpnet.writemulti_p50_us", "us"),
	// Engine read path and allocator, direct calls (traced run).
	lower("engine.read_hit_ns", "ns"),
	lower("engine.read_miss_ns", "ns"),
	lower("engine.malloc_ns", "ns"),
	lower("engine.free_ns", "ns"),
	lower("engine.seq_retries_per_kread", "count"),
	lower("engine.seq_fallbacks", "count"),
	lower("alloc.alloc_ns", "ns"),
	lower("alloc.free_ns", "ns"),
	lower("alloc.shard_imbalance", "ratio"),
	// DRAM cache and hotness identification.
	lower("cache.promotions_per_s", "1/s"),
	lower("cache.demotions_per_s", "1/s"),
	higher("cache.promoted_objects", "count"),
	higher("cache.buffer_used_frac", "ratio"),
	lower("cache.remap_epochs_per_s", "1/s"),
	lower("hotness.digests_per_s", "1/s"),
	lower("hotness.sketch_add_ns", "ns"),
	lower("hotness.plan_ns", "ns"),
	// Proxied write path and the NVM device behind it.
	higher("proxy.staged_per_s", "1/s"),
	higher("proxy.flushed_per_s", "1/s"),
	higher("proxy.merge_ratio", "ratio"),
	lower("proxy.nvm_bytes_per_user_byte", "ratio"),
	lower("proxy.flush_lag_p50_us", "us"),
	lower("proxy.flush_lag_p99_us", "us"),
	lower("proxy.queue_high_water", "count"),
	lower("proxy.backoff_level", "count"),
	lower("proxy.gate_waits", "count"),
	lower("proxy.drain_ms", "ms"),
	lower("proxy.stage_ns", "ns"),
	lower("hmem.nvm_write_ops_per_s", "1/s"),
	lower("hmem.nvm_write_bytes_per_s", "B/s"),
	lower("hmem.nvm_ctrl_util", "ratio"),
	// Lock path (tcp_shared_txn only).
	lower("lock.acquire_p50_us", "us"),
	lower("lock.acquire_p99_us", "us"),
	lower("lock.release_p50_us", "us"),
	lower("lock.publish_p50_us", "us"),
	lower("lock.txn_p50_us", "us"),
	lower("lock.txn_p99_us", "us"),
	lower("lock.lost_updates", "count"),
	lower("lock.acquire_timeouts", "count"),
	// Sim mount: virtual-time results and the simulator's own cost.
	higher("sim.kops", "1/ms"),
	lower("sim.read_mean_us", "us"),
	lower("sim.update_mean_us", "us"),
	higher("sim.gain_vs_nvmdirect", "ratio"),
	higher("sim.nvmdirect_kops", "1/ms"),
	lower("rdma.verbs_per_op", "count"),
	lower("rpc.calls_per_op", "count"),
	lower("core.stale_gen_retries", "count"),
	lower("core.stale_own_reads", "count"),
	lower("core.read_p50_vus", "us"),
	lower("core.read_p99_vus", "us"),
	lower("core.update_p99_vus", "us"),
	lower("simnet.wall_ns_per_op", "ns"),
	lower("simnet.read_wall_p99_us", "us"),
	lower("simnet.sys_cpu_frac", "ratio"),
	// Go runtime under the whole process.
	lower("runtime.gc_cycles", "count"),
	lower("runtime.gc_pause_ms", "ms"),
	lower("runtime.goroutines_peak", "count"),
	lower("runtime.sys_cpu_frac", "ratio"),
	lower("runtime.alloc_bytes_per_op", "B"),
	// The program's own op tracer at 100 % sampling (traced run).
	lower("stage.read.encode_us", "us"),
	lower("stage.read.queueWait_us", "us"),
	lower("stage.read.dispatch_us", "us"),
	lower("stage.read.cacheHit_us", "us"),
	lower("stage.read.nvmCopy_us", "us"),
	lower("stage.read.writevFlush_us", "us"),
	lower("stage.read.netWait_us", "us"),
	lower("stage.read.decode_us", "us"),
	lower("stage.write.encode_us", "us"),
	lower("stage.write.queueWait_us", "us"),
	lower("stage.write.dispatch_us", "us"),
	lower("stage.write.ringStage_us", "us"),
	lower("stage.write.writevFlush_us", "us"),
	lower("stage.write.netWait_us", "us"),
	lower("stage.write.flushPersist_us", "us"),
	lower("stage.write.flushGate_us", "us"),
	lower("stage.lock_ex.lockWait_us", "us"),
	lower("stage.lock_ex.netWait_us", "us"),
	lower("stage.write_batch.ringStage_us", "us"),
	lower("stage.write_batch.netWait_us", "us"),
	lower("stage.read.wire_us", "us"),
	lower("stage.write.wire_us", "us"),
	lower("trace.residual_frac.read", "ratio"),
	lower("trace.residual_frac.write", "ratio"),
	lower("trace.overhead_frac", "ratio"),
}

// commonMetrics derives what every workload reports the same way.
func commonMetrics(r *windowResult) {
	m := r.metrics
	ops := float64(r.ops)
	// Rates and CPU times are scaled slice by slice to the reference
	// host's speed; the metric is the median over the slices.
	rate := make([]float64, len(r.slices))
	cpu := make([]float64, len(r.slices))
	for i, s := range r.slices {
		rate[i] = float64(s.ops) / s.wall.Seconds() / r.scales[i].mean
		cpu[i] = float64((s.user + s.sys).Nanoseconds()) / 1e3 / float64(s.ops) * r.scales[i].cpu
	}
	m["ops_per_s"] = medianFloat(rate)
	m["cpu_us_per_op"] = medianFloat(cpu)
	m["host.loopback_rtt_us"] = float64(r.rawRTT.Nanoseconds()) / 1e3
	m["host.stopwatch_ops_per_s"] = ops / r.wall.Seconds()
	fmt.Printf("# host: raw loopback round trip %.3f us (reference %.3f us); by the stopwatch %.0f ops/s, %.3f CPU us per op\n",
		m["host.loopback_rtt_us"], float64(refRoundTrip.Nanoseconds())/1e3,
		m["host.stopwatch_ops_per_s"], float64((r.userCPU+r.sysCPU).Nanoseconds())/1e3/ops)
	if _, ok := m["op_mean_us"]; !ok {
		// Wall-clock callers: two of them wait in turn, so the latency
		// one sees per op is clients ÷ throughput. (The sim mount sets
		// its own, on the virtual clock its callers live on.)
		m["op_mean_us"] = numClients * 1e6 / m["ops_per_s"]
	}
	m["allocs_per_op"] = float64(r.mallocs) / ops
	m["peak_rss_mb"] = r.peakRSSMB
	m["client.failed_frac"] = float64(r.failed) / ops
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_ms"] = float64(r.gcPause.Microseconds()) / 1e3
	m["runtime.goroutines_peak"] = float64(r.goroutines)
	if cpu := r.userCPU + r.sysCPU; cpu > 0 {
		m["runtime.sys_cpu_frac"] = float64(r.sysCPU) / float64(cpu)
	}
	m["runtime.alloc_bytes_per_op"] = float64(r.allocBytes) / ops
}

// cacheProxyMetrics are the engine-side layers both mounts share.
func cacheProxyMetrics(r *windowResult, cacheBytes float64) {
	m := r.metrics
	d := func(name string) float64 { return r.after[name] - r.before[name] }
	secs := r.wall.Seconds()
	m["cache.promotions_per_s"] = d("engine.promotions") / secs
	m["cache.demotions_per_s"] = d("engine.demotions") / secs
	m["cache.promoted_objects"] = r.after["engine.promoted"]
	m["cache.buffer_used_frac"] = r.after["engine.buffer_used"] / cacheBytes
	m["cache.remap_epochs_per_s"] = d("engine.remap_epoch") / secs
	m["hotness.digests_per_s"] = d("engine.digests") / secs
	m["proxy.staged_per_s"] = d("proxy.staged") / secs
	m["proxy.flushed_per_s"] = d("proxy.flushed") / secs
	if w := d("proxy.nvm_writes"); w > 0 {
		m["proxy.merge_ratio"] = d("proxy.flushed") / w
	}
	m["proxy.flush_lag_p50_us"] = r.after["proxy.lag_p50_ns"] / 1e3
	m["proxy.flush_lag_p99_us"] = r.after["proxy.lag_p99_ns"] / 1e3
	m["proxy.queue_high_water"] = r.after["proxy.queue_hw"]
	m["proxy.backoff_level"] = r.after["proxy.backoff"]
	m["proxy.gate_waits"] = d("proxy.gate_waits")
	m["proxy.drain_ms"] = float64(r.drain.Microseconds()) / 1e3
	m["hmem.nvm_write_ops_per_s"] = d("hmem.write_ops") / secs
	m["hmem.nvm_write_bytes_per_s"] = d("hmem.write_bytes") / secs
}

func tcpLayerMetrics(t *tcpInstance, r *windowResult) {
	cacheProxyMetrics(r, tcpCacheBytes)
	m := r.metrics
	d := func(name string) float64 { return r.after[name] - r.before[name] }
	if user := d("tcpnet.rx_bytes"); user > 0 {
		m["proxy.nvm_bytes_per_user_byte"] = d("hmem.write_bytes") / user
	}
	// The daemon's NVM model runs on the wall clock, so controller
	// occupancy over the window's wall time is its utilisation.
	m["hmem.nvm_ctrl_util"] = d("hmem.ctrl_busy_ns") / float64(r.wall)
	for _, op := range []string{"read", "write", "lock_ex", "unlock_ex", "write_batch"} {
		if n := d("tcpnet.op_n." + op); n > 0 {
			m["tcpnet.server_op_us."+op] = d("tcpnet.op_ns."+op) / n / 1e3
		}
	}
	if f := d("tcpnet.flushes"); f > 0 {
		m["tcpnet.frames_per_writev"] = d("tcpnet.ops") / f
		m["tcpnet.bytes_per_syscall"] = d("tcpnet.flush_bytes") / f
	}
	hits := d("tcpnet.srv_pool_hits") + d("tcpnet.cli_pool_hits")
	miss := d("tcpnet.srv_pool_misses") + d("tcpnet.cli_pool_misses")
	if hits+miss > 0 {
		m["tcpnet.frame_pool_miss_frac"] = miss / (hits + miss)
	}
	m["tcpnet.failures"] = d("tcpnet.failures")
	if reads := d("engine.hits") + d("engine.misses"); reads > 0 {
		m["engine.seq_retries_per_kread"] = d("engine.seq_retries") / reads * 1e3
	}
	m["engine.seq_fallbacks"] = d("engine.seq_fallbacks")
	if hi := r.after["alloc.shard_max"]; hi > 0 {
		m["alloc.shard_imbalance"] = (hi - r.after["alloc.shard_min"]) / hi
	}
	m["tcpnet.rtt_null_us"] = nullRTT(t)
}

func simLayerMetrics(s *simInstance, r *windowResult) {
	cacheProxyMetrics(r, simServers*simBufferByte)
	m := r.metrics
	d := func(name string) float64 { return r.after[name] - r.before[name] }
	ops := float64(r.ops)
	if user := d("proxy.staged") * recordBytes; user > 0 {
		m["proxy.nvm_bytes_per_user_byte"] = d("hmem.write_bytes") / user
	}
	// The sim's NVM controllers are busy in virtual time.
	if _, span := s.virtualKops(); span > 0 {
		m["hmem.nvm_ctrl_util"] = d("hmem.ctrl_busy_ns") / float64(span) / simServers
	}
	m["rdma.verbs_per_op"] = d("rdma.one_sided") / ops
	m["rpc.calls_per_op"] = d("rdma.sends") / 2 / ops
	m["core.stale_gen_retries"] = d("core.stale_gen")
	for _, c := range s.clients {
		m["core.stale_own_reads"] += float64(c.stale)
	}
	m["core.read_p50_vus"] = r.after["core.read_p50_ns"] / 1e3
	m["core.read_p99_vus"] = r.after["core.read_p99_ns"] / 1e3
	m["core.update_p99_vus"] = r.after["core.update_p99_ns"] / 1e3
	m["simnet.wall_ns_per_op"] = float64(r.wall) / ops
	m["simnet.sys_cpu_frac"] = m["runtime.sys_cpu_frac"]
}

// reportTail prints the highest percentile the sample supports, with
// the sample count, next to the fixed p50/p99 the metrics carry.
func reportTail(what string, sets []samples) {
	sorted := all(sets)
	name, q, ok := highestPercentile(len(sorted))
	if !ok {
		fmt.Printf("# %s latency by the stopwatch: %d samples, too few for a percentile\n", what, len(sorted))
		return
	}
	fmt.Printf("# %s latency by the stopwatch: p50 %.2f us, %s %.2f us (n = %d, %d beyond)\n",
		what, quantileUS(sorted, 0.5), name, quantileUS(sorted, q),
		len(sorted), int(math.Round(float64(len(sorted))*(1-q))))
}

// printMetrics lists the given metrics, by name and unit, in the
// table's order.
func printMetrics(specs []metricSpec, values map[string]float64) {
	width := 0
	for _, s := range specs {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range specs {
		fmt.Printf("%-*s  %14.4f %s\n", width, s.Name, values[s.Name], s.Unit)
	}
}

// unknownMetrics lists values no table names: a typo in a metric name
// would otherwise vanish silently.
func unknownMetrics(values map[string]float64) []string {
	known := make(map[string]bool)
	for _, s := range endToEnd {
		known[s.Name] = true
	}
	for _, s := range perLayer {
		known[s.Name] = true
	}
	var out []string
	for name := range values {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// addStages folds a tracer's per-(op, stage) digests into a counter
// reading, as a count and a total per stage, so that two readings give
// the window's own mean. side is "c" for stages on the caller's side
// of the wire and "s" for the daemon's.
func addStages(c counters, side string, sums []span.StageSummary) {
	for _, s := range sums {
		key := "stage." + side + "." + s.Op + "." + s.Stage
		c[key+".n"] += float64(s.Summary.Count)
		c[key+".ns"] += float64(s.Summary.Mean) * float64(s.Summary.Count)
	}
}

// offPath are the stages the flusher observes after the op was acked.
var offPath = map[string]bool{"flushPersist": true, "flushGate": true}

// stageMetrics turns the program's own op tracer into per-layer
// metrics: the mean of every named stage, and per op how much of the
// latency the benchmark measured the caller-side stages leave
// unexplained. measured is the total the benchmark timed per op, in ns.
func stageMetrics(r *windowResult, measured map[string]float64) {
	m := r.metrics
	d := func(name string) float64 { return r.after[name] - r.before[name] }
	for _, spec := range perLayer {
		parts := strings.Split(spec.Name, ".")
		if parts[0] != "stage" || len(parts) != 3 || parts[2] == "wire_us" {
			continue
		}
		op, stage := parts[1], strings.TrimSuffix(parts[2], "_us")
		for _, side := range []string{"c", "s"} {
			key := "stage." + side + "." + op + "." + stage
			if n := d(key + ".n"); n > 0 {
				m[spec.Name] = d(key+".ns") / n / 1e3
			}
		}
	}
	for op, total := range measured {
		if d("stage.c."+op+".encode.n") > 0 && d("stage.c."+op+".netWait.n") == 0 {
			// A chain of eight frames: the tracer keeps eight marks per
			// span, the encodes fill them, and netWait is dropped —
			// nothing to close the sum with.
			continue
		}
		var caller, daemon float64
		for name := range r.after {
			parts := strings.Split(name, ".")
			if len(parts) != 5 || parts[0] != "stage" || parts[2] != op || parts[4] != "ns" || offPath[parts[3]] {
				continue
			}
			if parts[1] == "c" {
				caller += d(name)
			} else {
				daemon += d(name)
			}
		}
		if total == 0 || caller == 0 {
			continue // untraced run: the tracer saw nothing
		}
		m["trace.residual_frac."+op] = (total - caller) / total
		// netWait covers the daemon's stages; what is left of it is
		// kernel, loopback and goroutine wake-ups.
		if n := d("stage.c." + op + ".netWait.n"); n > 0 && daemon > 0 {
			m["stage."+op+".wire_us"] = (d("stage.c."+op+".netWait.ns") - daemon) / n / 1e3
		}
	}
}

func sumNS(sets []samples) float64 {
	var sum float64
	for _, s := range sets {
		for _, v := range s.ns {
			sum += float64(v)
		}
	}
	return sum
}
