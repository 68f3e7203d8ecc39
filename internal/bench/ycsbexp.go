package bench

import (
	"fmt"
	"strconv"
	"time"

	"gengar/internal/config"
	"gengar/internal/ycsb"
)

// E03SkewRead: mean read latency vs access skew for the three systems —
// the DRAM cache should close most of the NVM/DRAM gap once skew makes a
// small hot set dominate.
func E03SkewRead(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Read latency vs zipfian skew (read-only, steady state)",
		Columns: []string{"theta", "Gengar_us", "NVM-Direct_us", "DRAM-Pool_us", "Gengar_hit"},
	}
	for _, theta := range []float64{0.5, 0.9, 0.99, 1.2} {
		w := ycsb.C()
		w.Theta = theta
		row := []string{fmt.Sprintf("%.2f", theta)}
		var hit float64
		for _, sy := range systems(s) {
			res, _, snap, err := ycsbRun(sy.cfg, w, s, s.Clients, 11)
			if err != nil {
				return nil, fmt.Errorf("E3 %s theta=%.2f: %w", sy.name, theta, err)
			}
			row = append(row, us(res.PerKind[ycsb.OpRead].Mean))
			if sy.name == "Gengar" {
				hit = res.HitRate
				t.Telemetry = &snap
			}
		}
		row = append(row, pct(hit))
		t.AddRow(row...)
	}
	t.Note("shape: Gengar tracks DRAM-Pool as skew grows; at low skew it tracks NVM-Direct")
	return t, nil
}

// E04ProxyWrite: client-visible write latency by size — proxied staging
// vs direct NVM vs the DRAM pool bound.
func E04ProxyWrite(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Write latency vs size: proxy staging vs direct NVM",
		Columns: []string{"size_B", "Gengar_us", "NVM-Direct_us", "DRAM-Pool_us", "Gengar_p99_us"},
	}
	for _, size := range []int{256, 1024, 4096} {
		sz := s
		sz.RecordSize = size
		w := ycsb.Workload{Name: "update-only", UpdateProp: 1,
			Distribution: ycsb.DistUniform, RecordSize: size, UpdateBytes: size}
		row := []string{strconv.Itoa(size)}
		var p99 time.Duration
		for _, sy := range systems(sz) {
			res, _, snap, err := ycsbRun(sy.cfg, w, sz, 1, 13)
			if err != nil {
				return nil, fmt.Errorf("E4 %s size=%d: %w", sy.name, size, err)
			}
			sum := res.PerKind[ycsb.OpUpdate]
			row = append(row, us(sum.Mean))
			if sy.name == "Gengar" {
				p99 = sum.P99
				t.Telemetry = &snap
			}
		}
		row = append(row, us(p99))
		t.AddRow(row...)
	}
	t.Note("shape: Gengar write latency ~ DRAM-Pool (staging ring is DRAM); NVM-Direct pays media+amplification")
	return t, nil
}

// E05ClientScale: read-heavy throughput vs client count, Gengar vs the
// NVM-direct DSHM.
func E05ClientScale(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Throughput vs clients (YCSB-B, zipf 0.99)",
		Columns: []string{"clients", "Gengar_kops", "NVM-Direct_kops", "speedup"},
	}
	sys := systems(s)
	for _, n := range clientSweep(s) {
		w := ycsb.B()
		g, _, snap, err := ycsbRun(sys[0].cfg, w, s, n, 17)
		if err != nil {
			return nil, fmt.Errorf("E5 gengar n=%d: %w", n, err)
		}
		t.Telemetry = &snap
		d, _, _, err := ycsbRun(sys[1].cfg, w, s, n, 17)
		if err != nil {
			return nil, fmt.Errorf("E5 direct n=%d: %w", n, err)
		}
		t.AddRow(strconv.Itoa(n), kops(g.Throughput), kops(d.Throughput),
			speedup(d.Throughput, g.Throughput))
	}
	t.Note("shape: gap widens with clients as NVM read bandwidth saturates while DRAM absorbs the hot set")
	return t, nil
}

// E06WriteScale: update-only throughput vs client count — the staging
// ring accelerates writes until the flusher's NVM bandwidth saturates
// (the backpressure knee).
func E06WriteScale(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Throughput vs clients (update-only, uniform)",
		Columns: []string{"clients", "Gengar_kops", "NVM-Direct_kops", "speedup"},
	}
	w := ycsb.Workload{Name: "update-only", UpdateProp: 1,
		Distribution: ycsb.DistUniform, RecordSize: s.RecordSize}
	sys := systems(s)
	for _, n := range clientSweep(s) {
		g, _, snap, err := ycsbRun(sys[0].cfg, w, s, n, 19)
		if err != nil {
			return nil, fmt.Errorf("E6 gengar n=%d: %w", n, err)
		}
		t.Telemetry = &snap
		d, _, _, err := ycsbRun(sys[1].cfg, w, s, n, 19)
		if err != nil {
			return nil, fmt.Errorf("E6 direct n=%d: %w", n, err)
		}
		t.AddRow(strconv.Itoa(n), kops(g.Throughput), kops(d.Throughput),
			speedup(d.Throughput, g.Throughput))
	}
	t.Note("shape: large speedup at low client counts; converges toward NVM write bandwidth at the knee")
	return t, nil
}

// E07YCSB is the headline comparison: all six core workloads across the
// three systems, plus Gengar itself over a DRAM pool (Gengar-DRAM) — the
// read-heavy bound. Plain DRAM-Pool is not one: Gengar's hot copies
// spread reads of a hot home across other servers' buffers, which takes
// queueing off that home that a cache-less DRAM pool still pays.
func E07YCSB(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "YCSB A-F throughput (kops/simulated-second)",
		Columns: []string{"workload", "Gengar", "NVM-Direct", "DRAM-Pool", "Gengar_vs_Direct", "Gengar-DRAM"},
	}
	bound := baseConfig(s, 0.125)
	bound.PoolMedia = config.DRAMPool().PoolMedia
	var maxImp float64
	for _, w := range ycsb.Core() {
		row := []string{w.Name}
		var g, d float64
		for _, sy := range systems(s) {
			res, _, snap, err := ycsbRun(sy.cfg, w, s, s.Clients, 23)
			if err != nil {
				return nil, fmt.Errorf("E7 %s/%s: %w", w.Name, sy.name, err)
			}
			row = append(row, kops(res.Throughput))
			switch sy.name {
			case "Gengar":
				g = res.Throughput
				t.Telemetry = &snap
			case "NVM-Direct":
				d = res.Throughput
			}
		}
		imp := g/d - 1
		if imp > maxImp {
			maxImp = imp
		}
		res, _, _, err := ycsbRun(bound, w, s, s.Clients, 23)
		if err != nil {
			return nil, fmt.Errorf("E7 %s/Gengar-DRAM: %w", w.Name, err)
		}
		row = append(row, pct(imp), kops(res.Throughput))
		t.AddRow(row...)
	}
	t.Note("paper claim: Gengar improves YCSB by up to ~70%% over NVM-exposing DSHM; measured max improvement %s", pct(maxImp))
	return t, nil
}

// E08BufferSize: cache-capacity sensitivity — hit rate and throughput as
// the DRAM buffer share of the dataset grows.
func E08BufferSize(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Sensitivity to DRAM buffer size (YCSB-C, zipf 0.99)",
		Columns: []string{"buffer_frac", "hit_rate", "kops", "read_us"},
	}
	for _, frac := range []float64{0.02, 0.05, 0.125, 0.25, 0.5} {
		cfg := baseConfig(s, frac)
		res, _, snap, err := ycsbRun(cfg, ycsb.C(), s, s.Clients, 29)
		if err != nil {
			return nil, fmt.Errorf("E8 frac=%.2f: %w", frac, err)
		}
		t.Telemetry = &snap
		t.AddRow(fmt.Sprintf("%.3f", frac), pct(res.HitRate),
			kops(res.Throughput), us(res.PerKind[ycsb.OpRead].Mean))
	}
	t.Note("shape: hit rate and throughput rise steeply then flatten — zipfian hot set fits early")
	return t, nil
}

// E09Hotness: identification ablation — digest reporting period and
// sketch size.
func E09Hotness(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Hotness identification ablation (YCSB-C, zipf 0.99)",
		Columns: []string{"digest_every", "sketch_k", "hit_rate", "kops", "digests"},
	}
	type point struct {
		every int
		k     int
	}
	points := []point{
		{32, 4096}, {128, 4096}, {512, 4096}, {2048, 4096},
		{128, 16}, {128, 256},
	}
	for _, p := range points {
		cfg := baseConfig(s, 0.125)
		cfg.Hotness.DigestEvery = p.every
		cfg.Hotness.SketchK = p.k
		res, stats, snap, err := ycsbRun(cfg, ycsb.C(), s, s.Clients, 31)
		if err != nil {
			return nil, fmt.Errorf("E9 every=%d k=%d: %w", p.every, p.k, err)
		}
		t.Telemetry = &snap
		var digests int64
		for _, st := range stats {
			digests += st.Digests
		}
		t.AddRow(strconv.Itoa(p.every), strconv.Itoa(p.k), pct(res.HitRate),
			kops(res.Throughput), strconv.FormatInt(digests, 10))
	}
	t.Note("shape: longer digest periods cost little hit rate (sketch persists); tiny sketches hurt")
	return t, nil
}

// E12Ablation: which mechanism buys what — full Gengar vs each mechanism
// alone vs neither, on the mixed workload.
func E12Ablation(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Ablation (YCSB-A, zipf 0.99)",
		Columns: []string{"variant", "kops", "hit_rate", "read_us", "update_us"},
	}
	variants := []struct {
		name string
		f    config.Features
	}{
		{"Gengar", config.Features{Cache: true, Proxy: true}},
		{"-cache", config.Features{Cache: false, Proxy: true}},
		{"-proxy", config.Features{Cache: true, Proxy: false}},
		{"neither", config.Features{}},
	}
	for _, v := range variants {
		cfg := baseConfig(s, 0.125)
		cfg.Features = v.f
		res, _, snap, err := ycsbRun(cfg, ycsb.A(), s, s.Clients, 37)
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", v.name, err)
		}
		if v.name == "Gengar" {
			t.Telemetry = &snap
		}
		t.AddRow(v.name, kops(res.Throughput), pct(res.HitRate),
			us(res.PerKind[ycsb.OpRead].Mean), us(res.PerKind[ycsb.OpUpdate].Mean))
	}
	t.Note("shape: proxy buys write latency, cache buys read latency; full Gengar wins the mix")
	return t, nil
}

// clientSweep returns the client counts swept by scaling experiments.
func clientSweep(s Scale) []int {
	if s.Clients <= 4 {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16, 32}
}
