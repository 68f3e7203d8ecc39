package bench

import (
	"fmt"
	"math/bits"
	"time"

	"gengar/internal/config"
	"gengar/internal/core"
	"gengar/internal/server"
	"gengar/internal/telemetry"
	"gengar/internal/ycsb"
)

// Scale sizes an experiment: Quick keeps unit tests and testing.B
// iterations fast; Full is what cmd/gengar-bench runs for the recorded
// results in EXPERIMENTS.md.
type Scale struct {
	Records      int // YCSB table size
	RecordSize   int
	OpsPerClient int
	Clients      int // default client count where not swept
	MRDocs       int // MapReduce corpus documents
	MRDocWords   int
}

// Quick is the test-suite scale.
func Quick() Scale {
	return Scale{Records: 256, RecordSize: 512, OpsPerClient: 150, Clients: 4, MRDocs: 6, MRDocWords: 120}
}

// Full is the recorded-results scale.
func Full() Scale {
	return Scale{Records: 4096, RecordSize: 1024, OpsPerClient: 1500, Clients: 8, MRDocs: 32, MRDocWords: 600}
}

// Runner is one experiment entry point.
type Runner func(Scale) (*Table, error)

// Experiments returns the registry of all experiment runners in ID
// order.
func Experiments() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E01ReadLatency},
		{"E2", E02WriteLatency},
		{"E3", E03SkewRead},
		{"E4", E04ProxyWrite},
		{"E5", E05ClientScale},
		{"E6", E06WriteScale},
		{"E7", E07YCSB},
		{"E8", E08BufferSize},
		{"E9", E09Hotness},
		{"E10", E10Sharing},
		{"E11", E11MapReduce},
		{"E12", E12Ablation},
		{"E13", E13ClientCache},
		{"E14", E14NVMSensitivity},
		{"E15", E15ScanBatching},
		{"E16", E16WriteBatching},
		// E17 is the TCP wire-throughput suite (internal/tcpnet Go
		// benchmarks); it lives outside this registry.
		{"E18", E18LatencyAnatomy},
	}
}

// Run executes one experiment by ID.
func Run(id string, s Scale) (*Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(s)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// pow2Floor returns the largest power of two <= v (min 64).
func pow2Floor(v int64) int64 {
	if v < 64 {
		return 64
	}
	return 1 << (bits.Len64(uint64(v)) - 1)
}

// baseConfig returns a cluster config sized for the scale: the NVM pool
// comfortably holds the dataset, the DRAM buffer holds bufFrac of it.
func baseConfig(s Scale, bufFrac float64) config.Cluster {
	cfg := config.Default()
	cfg.Servers = 4
	dataset := int64(s.Records) * int64(s.RecordSize)
	cfg.NVMBytes = pow2Floor(dataset) * 8
	if cfg.NVMBytes < 1<<20 {
		cfg.NVMBytes = 1 << 20
	}
	perServer := int64(float64(dataset) * bufFrac / float64(cfg.Servers))
	cfg.DRAMBufferBytes = pow2Floor(perServer)
	cfg.RingBytes = 1 << 25 // rings for the widest client sweep (32) plus loaders
	// Digest frequency scales with run length: clients spread accesses
	// over cfg.Servers sessions, so the per-session counter must trip
	// several times within one run for promotions to land.
	every := s.OpsPerClient / 10
	if every < 64 {
		every = 64
	}
	if every > 512 {
		every = 512
	}
	cfg.Hotness.DigestEvery = every
	cfg.Hotness.PlanEvery = 200 * time.Microsecond
	return cfg
}

// featuresOff returns the all-mechanisms-disabled feature set.
func featuresOff() config.Features { return config.Features{} }

// sys is one system under test: a named configuration.
type sys struct {
	name string
	cfg  config.Cluster
}

// systems returns the three headline systems at this scale.
func systems(s Scale) []sys {
	gengar := baseConfig(s, 0.125)
	direct := baseConfig(s, 0.125)
	direct.Features = config.Features{}
	dram := baseConfig(s, 0.125)
	dram.PoolMedia = config.DRAMPool().PoolMedia
	dram.Features = config.Features{}
	return []sys{{"Gengar", gengar}, {"NVM-Direct", direct}, {"DRAM-Pool", dram}}
}

// ycsbRun loads a table and runs one workload on a fresh cluster built
// from cfg, returning the result, the final server stats, and a
// telemetry snapshot of the whole deployment taken at the end of the
// measured run.
func ycsbRun(cfg config.Cluster, w ycsb.Workload, s Scale, clients int, seed int64) (ycsb.Result, []server.Stats, telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	cl, err := server.NewCluster(cfg)
	if err != nil {
		return ycsb.Result{}, nil, snap, err
	}
	defer cl.Close()

	loader, err := core.Connect(cl, "loader")
	if err != nil {
		return ycsb.Result{}, nil, snap, err
	}
	defer loader.Close()
	w.RecordSize = s.RecordSize
	table, err := ycsb.Load(loader, s.Records, w.RecordSize)
	if err != nil {
		return ycsb.Result{}, nil, snap, err
	}

	var cs []*core.Client
	for i := 0; i < clients; i++ {
		cc, err := core.Connect(cl, fmt.Sprintf("c%d", i))
		if err != nil {
			return ycsb.Result{}, nil, snap, err
		}
		defer cc.Close()
		cs = append(cs, cc)
	}

	// Warm-up pass so hotness epochs fire and promotions land before
	// measurement, as the paper's steady-state numbers assume; then
	// quiesce the flushers and give every client a current remap view.
	if _, err := ycsb.Run(cs, table, w, s.OpsPerClient/3+1, seed+7777); err != nil {
		return ycsb.Result{}, nil, snap, err
	}
	for pass := 0; pass < 2; pass++ {
		for _, srv := range cl.Registry().Servers() {
			if err := srv.Engine().Barrier(); err != nil {
				return ycsb.Result{}, nil, snap, err
			}
		}
		for _, cc := range cs {
			if err := cc.SyncAllViews(); err != nil {
				return ycsb.Result{}, nil, snap, err
			}
		}
	}
	// Measure only the steady-state run: warm-up traffic would otherwise
	// dominate the snapshot's counters.
	cl.Telemetry().Reset()

	res, err := ycsb.Run(cs, table, w, s.OpsPerClient, seed)
	if err != nil {
		return ycsb.Result{}, nil, snap, err
	}
	var stats []server.Stats
	for _, srv := range cl.Registry().Servers() {
		stats = append(stats, srv.Stats())
	}
	return res, stats, cl.Telemetry().Snapshot(), nil
}
