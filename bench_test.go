// Benchmarks regenerating the evaluation tables and figures (E1–E12 in
// DESIGN.md), one per artifact. Each iteration executes the full
// experiment at the reduced Quick scale and reports its wall cost;
// `cmd/gengar-bench` runs the same experiments at Full scale and prints
// the tables recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE07YCSB
package gengar_test

import (
	"testing"

	"gengar/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id, bench.Quick())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE01ReadLatency regenerates E1: remote read latency vs
// transfer size, NVM vs DRAM (motivation figure).
func BenchmarkE01ReadLatency(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE02WriteLatency regenerates E2: remote durable-write latency
// vs transfer size, NVM vs DRAM (motivation figure).
func BenchmarkE02WriteLatency(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE03SkewRead regenerates E3: read latency vs zipfian skew for
// Gengar, NVM-Direct and DRAM-Pool.
func BenchmarkE03SkewRead(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE04ProxyWrite regenerates E4: write latency by size, proxied
// staging vs direct NVM.
func BenchmarkE04ProxyWrite(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE05ClientScale regenerates E5: read-heavy throughput vs
// client count.
func BenchmarkE05ClientScale(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE06WriteScale regenerates E6: update-only throughput vs
// client count (staging-ring backpressure knee).
func BenchmarkE06WriteScale(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE07YCSB regenerates E7: the headline YCSB A–F comparison.
func BenchmarkE07YCSB(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE08BufferSize regenerates E8: DRAM buffer capacity
// sensitivity.
func BenchmarkE08BufferSize(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE09Hotness regenerates E9: hotness identification ablation
// (digest period, sketch size).
func BenchmarkE09Hotness(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Sharing regenerates E10: multi-user locked-RMW sharing
// sweep.
func BenchmarkE10Sharing(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11MapReduce regenerates E11: MapReduce job completion times.
func BenchmarkE11MapReduce(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12Ablation regenerates E12: mechanism ablation on YCSB-A.
func BenchmarkE12Ablation(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13ClientCache regenerates E13: server-side vs client-side
// caching (the architectural extension ablation).
func BenchmarkE13ClientCache(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14NVMSensitivity regenerates E14: how Gengar's advantage
// tracks the NVM/DRAM asymmetry (technology sweep).
func BenchmarkE14NVMSensitivity(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15ScanBatching regenerates E15: doorbell-batched scans vs
// sequential reads.
func BenchmarkE15ScanBatching(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkE16WriteBatching regenerates E16: doorbell-batched write
// bursts vs sequential writes, proxied and direct.
func BenchmarkE16WriteBatching(b *testing.B) { runExperiment(b, "E16") }

// BenchmarkE18LatencyAnatomy regenerates E18: per-stage latency
// attribution across the four serving paths (E17 is the tcpnet wire
// benchmark suite, not a harness experiment).
func BenchmarkE18LatencyAnatomy(b *testing.B) { runExperiment(b, "E18") }
