GO ?= go

.PHONY: all build vet lint test race race-short bench bench-full bench-wire bench-scale bench-cluster bench-repo fuzz-wire e2e e2e-cluster trace-e2e quick tidy clean

all: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariant analyzers: locks held across blocking ops,
# allocations and clock reads in //gengar:hotpath functions, dropped
# errors from the pool APIs. Exits non-zero on any finding; see DESIGN.md
# "Static analysis" for the suppression syntax.
lint:
	$(GO) run ./cmd/gengar-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short-mode race pass: skips the whole-module self-lint and the long
# experiment sweeps, keeping the race detector on every core path.
race-short:
	$(GO) test -race -short ./...

# Smoke pass over every experiment benchmark: one iteration each at
# Quick scale, so a broken experiment fails fast in CI.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ ./...

bench-full:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Wire-level loopback smoke: one short iteration of each TCP data-plane
# benchmark (experiment E17), with allocation counts.
bench-wire:
	$(GO) test ./internal/tcpnet -run=^$$ -bench=BenchmarkTCP -benchmem -benchtime=100x

# Fan-in scaling smoke (experiment E19): cache-hit read throughput at
# 1/4/16 client connections, plus the parallel allocator and read-hit
# differential benchmarks the sharded hot-path work is gated on, and the
# control path's scaling in live objects (gmalloc+gfree and address
# resolution at 1k/8k/64k objects must cost the same; parent and change
# runs are recorded in results/e19.objindex.txt) and the promotion
# planner's in resident copies (a round and a remap batch at 64 and at
# 2048 copies must cost the same; results/e19.planner.txt).
bench-scale:
	$(GO) test ./internal/tcpnet -run=^$$ -bench=BenchmarkTCPFanIn -short -benchtime=500x
	$(GO) test ./internal/engine -run=^$$ -bench=BenchmarkReadHitParallel -benchtime=1000x -cpu=1,4
	$(GO) test ./internal/engine -run=^$$ -bench='BenchmarkMallocFree|BenchmarkFindContaining' -benchmem -benchtime=20000x
	$(GO) test ./internal/engine -run=^$$ -bench='BenchmarkPlanRound|BenchmarkRemapApply' -benchmem -benchtime=2000x
	$(GO) test ./internal/alloc -run=^$$ -bench='BenchmarkBuddyParallel|BenchmarkShardedPoolParallel' -benchtime=1000x -cpu=1,4

# Distributed-cache scaling smoke (experiment E20): the DRAM-served
# read fraction as daemons join a loopback peer mesh; the full sweep
# (1..4 daemons) writes results/e20.csv via GENGAR_E20_CSV.
bench-cluster:
	$(GO) test ./internal/tcpnet -run=^$$ -bench=BenchmarkTCPDistributedCache -short -benchtime=500x

# The repository benchmark (BENCHMARK.json, benchmark/README.md) at smoke
# scale: every workload with 2 s windows, every metric printed, every
# read verified, no bounds enforced. Its own unit tests are a nested module outside
# `go test ./...`; run them with `go -C benchmark test -short ./...`.
bench-repo:
	bash benchmark/run.sh -smoke

# Short coverage-guided passes over the wire's fuzz targets: the frame
# reader, and batch payloads through the daemon's request handler. The
# checked-in corpus under internal/tcpnet/testdata/fuzz and the seeds in
# wire_fuzz_test.go always run as part of `make test`.
fuzz-wire:
	$(GO) test ./internal/tcpnet -run=^$$ -fuzz=^FuzzReadFrame$$ -fuzztime=10s
	$(GO) test ./internal/tcpnet -run=^$$ -fuzz=^FuzzHandleBatch$$ -fuzztime=10s

# Deployment-shaped smoke: builds the real gengard and gengar-cli
# binaries and drives malloc/write/read/lock/promotion/snapshot-restart
# over loopback TCP.
e2e:
	$(GO) test ./e2e/ -count=1 -v

# Distributed DRAM cache end to end: three real gengard daemons in a
# -peers mesh over loopback, the home arena sized so hot copies spill
# into peers' DRAM, then one peer SIGKILLed — every read must still
# succeed with zero client-visible errors.
e2e-cluster:
	$(GO) test ./e2e/ -run '^TestClusterSpillAndPeerDeath$$' -count=1 -v

# Tracing end-to-end: stitched client+server spans over a real gengard
# via /debug/trace, plus the in-process wire-extension negotiation and
# malformed-extension rejection tests.
trace-e2e:
	$(GO) test ./e2e/ -run '^TestTraceEndToEnd$$' -count=1 -v
	$(GO) test ./internal/tcpnet -run 'TestTraced|TestClientGatesTrace|TestServerRejectsMalformedTrace' -count=1

# Fast full-evaluation pass; writes CSVs + telemetry snapshots.
quick:
	$(GO) run ./cmd/gengar-bench -quick -outdir out

tidy:
	$(GO) mod tidy
	gofmt -w .

clean:
	rm -rf out
