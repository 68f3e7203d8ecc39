package bench

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell (stripping % and x suffixes).
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tb.ID, row, col)
	}
	s := strings.TrimRight(tb.Rows[row][col], "%x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q: %v", tb.ID, row, col, tb.Rows[row][col], err)
	}
	return v
}

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	tb, err := Run(id, Quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tb
}

// The shape tests assert the qualitative claims of the paper's
// evaluation — who wins, where, and in which direction effects move —
// at Quick scale. EXPERIMENTS.md records the Full-scale magnitudes.

func TestShapeE1NVMReadsSlower(t *testing.T) {
	tb := mustRun(t, "E1")
	for r := range tb.Rows {
		nvm, dram := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if nvm <= dram {
			t.Errorf("row %d: NVM read %.2f not slower than DRAM %.2f", r, nvm, dram)
		}
	}
	// The gap grows with transfer size (bandwidth asymmetry).
	first := cell(t, tb, 0, 3)
	last := cell(t, tb, len(tb.Rows)-1, 3)
	if last <= first {
		t.Errorf("NVM/DRAM read ratio shrank with size: %.2f -> %.2f", first, last)
	}
}

func TestShapeE2NVMWritesMuchSlower(t *testing.T) {
	tb := mustRun(t, "E2")
	last := len(tb.Rows) - 1
	if ratio := cell(t, tb, last, 3); ratio < 2 {
		t.Errorf("large NVM writes only %.2fx DRAM; want bandwidth-bound >2x", ratio)
	}
}

func TestShapeE3CacheTracksSkew(t *testing.T) {
	tb := mustRun(t, "E3")
	// Hit rate rises with skew.
	lo := cell(t, tb, 0, 4)
	hi := cell(t, tb, len(tb.Rows)-1, 4)
	if hi <= lo {
		t.Errorf("hit rate did not rise with skew: %.1f%% -> %.1f%%", lo, hi)
	}
	// At the highest skew Gengar reads are at least as fast as NVM-Direct.
	last := len(tb.Rows) - 1
	if g, d := cell(t, tb, last, 1), cell(t, tb, last, 2); g > d*1.02 {
		t.Errorf("high-skew Gengar read %.2fus slower than direct %.2fus", g, d)
	}
}

func TestShapeE4ProxyBeatsDirectWrites(t *testing.T) {
	tb := mustRun(t, "E4")
	for r := range tb.Rows {
		g, d := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if g >= d {
			t.Errorf("row %d: proxied write %.2fus not faster than direct %.2fus", r, g, d)
		}
	}
	// At 4 KiB the proxy should win by a wide margin (amplified media
	// write + persistence fence vs DRAM staging).
	last := len(tb.Rows) - 1
	if g, d := cell(t, tb, last, 1), cell(t, tb, last, 2); d < 1.3*g {
		t.Errorf("4KiB direct %.2fus not >1.3x proxied %.2fus", d, g)
	}
}

func TestShapeE5ThroughputScales(t *testing.T) {
	tb := mustRun(t, "E5")
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if last < 2*first {
		t.Errorf("Gengar did not scale with clients: %.1f -> %.1f kops", first, last)
	}
}

func TestShapeE6ProxySpeedsUpdates(t *testing.T) {
	tb := mustRun(t, "E6")
	if sp := cell(t, tb, 0, 3); sp < 1.5 {
		t.Errorf("single-client update speedup %.2fx < 1.5x", sp)
	}
}

func TestShapeE7GengarWinsMixedWorkloads(t *testing.T) {
	tb := mustRun(t, "E7")
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	parse := func(w string, col int) float64 {
		row := byName[w]
		if row == nil {
			t.Fatalf("workload %s missing", w)
		}
		v, err := strconv.ParseFloat(strings.TrimRight(row[col], "%x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Write-heavy workloads gain substantially over the NVM-direct DSHM.
	if imp := parse("A", 4); imp < 10 {
		t.Errorf("YCSB-A improvement %.1f%% < 10%%", imp)
	}
	if imp := parse("F", 4); imp < 10 {
		t.Errorf("YCSB-F improvement %.1f%% < 10%%", imp)
	}
	// On read-dominated workloads Gengar over NVM is bounded by the same
	// system over a DRAM pool. Plain DRAM-Pool is no bound: hot copies
	// also take queueing off a hot home, which a cache-less pool pays.
	// (On write-heavy mixes the comparison is not bound-shaped: a
	// staged-write ACK is a weaker durability point than a synchronous
	// store.)
	for _, w := range []string{"B", "C"} {
		if g, d := parse(w, 1), parse(w, 5); g > d*1.05 {
			t.Errorf("workload %s: Gengar %.1f above Gengar-DRAM bound %.1f", w, g, d)
		}
	}
}

func TestShapeE8HitRateRisesWithBuffer(t *testing.T) {
	tb := mustRun(t, "E8")
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if last <= first {
		t.Errorf("hit rate flat across buffer sizes: %.1f%% -> %.1f%%", first, last)
	}
}

func TestShapeE10LockSerializesSharers(t *testing.T) {
	tb := mustRun(t, "E10")
	last := len(tb.Rows) - 1
	shared := cell(t, tb, last, 1)
	private := cell(t, tb, last, 2)
	if private < 1.5*shared {
		t.Errorf("private %.1f kops not well above shared %.1f at max sharers", private, shared)
	}
	// Private scales with the population.
	if p0 := cell(t, tb, 0, 2); private < 2*p0 {
		t.Errorf("private throughput did not scale: %.1f -> %.1f", p0, private)
	}
}

func TestShapeE11GengarFasterJobs(t *testing.T) {
	// Quick-scale MapReduce jobs complete in tens of simulated µs, so
	// flusher-goroutine scheduling alone swings the Gengar/NVM-Direct
	// ratio by more than the margin this shape asserts — a single run
	// crosses 1.0x every few attempts on a loaded host (seed-era flake).
	// Assert the median of three runs instead: the winner must be
	// systematic, not a scheduling accident. (Three, not more: the race
	// detector's memory pressure grows across back-to-back sims in one
	// process, biasing later runs against the flusher-heavy configs.)
	const runs = 3
	tables := make([]*Table, runs)
	for i := range tables {
		tables[i] = mustRun(t, "E11")
	}
	median := func(r, c int) float64 {
		vals := make([]float64, runs)
		for i, tb := range tables {
			vals[i] = cell(t, tb, r, c)
		}
		sort.Float64s(vals)
		return vals[runs/2]
	}
	for r, row := range tables[0].Rows {
		if sp := median(r, 4); sp < 1.0 {
			t.Errorf("%s: Gengar slower than NVM-Direct (median %.2fx)", row[0], sp)
		}
		g, d := median(r, 1), median(r, 3)
		if g < d*0.9 {
			t.Errorf("%s: Gengar %.2fms beats the DRAM-Pool bound %.2fms", row[0], g, d)
		}
	}
}

func TestShapeE12ProxyCarriesWriteLatency(t *testing.T) {
	tb := mustRun(t, "E12")
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	upd := func(v string) float64 {
		f, err := strconv.ParseFloat(byName[v][4], 64)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Removing the proxy must blow up update latency; the cache alone
	// cannot compensate.
	if upd("-proxy") < 2*upd("Gengar") {
		t.Errorf("-proxy update latency %.2f not >2x Gengar %.2f", upd("-proxy"), upd("Gengar"))
	}
	if upd("neither") < 1.5*upd("Gengar") {
		t.Errorf("neither update latency %.2f not >1.5x Gengar %.2f", upd("neither"), upd("Gengar"))
	}
}

func TestShapeE13CachePlacementCrossover(t *testing.T) {
	tb := mustRun(t, "E13")
	// Small objects: Gengar at least matches the client cache (no
	// validation round trip on its hits).
	if g, cc := cell(t, tb, 0, 1), cell(t, tb, 0, 2); g > cc*1.05 {
		t.Errorf("small objects: Gengar %.2fus worse than client cache %.2fus", g, cc)
	}
	// Large objects: the client cache wins (hits move no data).
	last := len(tb.Rows) - 1
	if g, cc := cell(t, tb, last, 1), cell(t, tb, last, 2); cc > g {
		t.Errorf("large objects: client cache %.2fus not faster than Gengar %.2fus", cc, g)
	}
	// Both beat the uncached pool at the largest size.
	if d, g := cell(t, tb, last, 3), cell(t, tb, last, 1); d < g {
		t.Errorf("NVM-direct %.2fus beats Gengar %.2fus on large hot objects", d, g)
	}
}

func TestShapeE14AsymmetryDrivesValue(t *testing.T) {
	tb := mustRun(t, "E14")
	first := cell(t, tb, 0, 4)             // fastest NVM
	last := cell(t, tb, len(tb.Rows)-1, 4) // slowest NVM
	if last <= first {
		t.Errorf("improvement did not grow with NVM degradation: %.1f%% -> %.1f%%", first, last)
	}
	for r := range tb.Rows {
		if imp := cell(t, tb, r, 4); imp <= 0 {
			t.Errorf("row %d: Gengar lost to direct (%.1f%%)", r, imp)
		}
	}
}

func TestShapeE15BatchingSpeedsScans(t *testing.T) {
	tb := mustRun(t, "E15")
	prev := 0.0
	for r := range tb.Rows {
		sp := cell(t, tb, r, 3)
		if sp < 1.3 {
			t.Errorf("row %d: batching speedup only %.2fx", r, sp)
		}
		if sp < prev*0.8 {
			t.Errorf("row %d: speedup regressed sharply (%.2fx after %.2fx)", r, sp, prev)
		}
		prev = sp
	}
	// At the longest scan the win is large.
	if sp := cell(t, tb, len(tb.Rows)-1, 3); sp < 3 {
		t.Errorf("32-record scan speedup only %.2fx", sp)
	}
}

func TestShapeE16BatchingSpeedsWrites(t *testing.T) {
	tb := mustRun(t, "E16")
	if len(tb.Rows) != 10 {
		t.Fatalf("E16 has %d rows, want 2 systems x 5 batch lengths", len(tb.Rows))
	}
	sawK16 := 0
	for r, row := range tb.Rows {
		sp := cell(t, tb, r, 4)
		if sp <= 1 {
			t.Errorf("row %d (%s k=%s): batching speedup only %.2fx", r, row[0], row[1], sp)
		}
		// The headline claim: at a 16-record burst, batched writes are at
		// least 2x cheaper per op on BOTH the proxied and direct paths.
		if row[1] == "16" {
			sawK16++
			if sp < 2 {
				t.Errorf("%s k=16: batched writes only %.2fx cheaper, want >=2x", row[0], sp)
			}
		}
	}
	if sawK16 != 2 {
		t.Fatalf("found %d k=16 rows, want 2", sawK16)
	}
	if tb.Telemetry == nil {
		t.Fatal("E16 table missing telemetry snapshot")
	}
}

// e18Cell finds E18's (scenario, stage) row and returns one numeric
// column from it.
func e18Cell(t *testing.T, tb *Table, scenario, stage string, col int) float64 {
	t.Helper()
	for r, row := range tb.Rows {
		if row[0] == scenario && row[2] == stage {
			return cell(t, tb, r, col)
		}
	}
	t.Fatalf("E18 has no (%s, %s) row in %v", scenario, stage, tb.Rows)
	return 0
}

func TestShapeE18LatencyAnatomy(t *testing.T) {
	tb := mustRun(t, "E18")
	const p50, p99 = 4, 5
	// Reads served from the promoted DRAM copy beat reads paying the NVM
	// pool, within the same traced run.
	hit := e18Cell(t, tb, "cache_hit_read", "cacheHit", p50)
	miss := e18Cell(t, tb, "cache_hit_read", "nvmCopy", p50)
	if hit >= miss {
		t.Errorf("cacheHit p50 %.2fus >= nvmCopy p50 %.2fus", hit, miss)
	}
	// The proxy decouples the client-visible write from persistence: the
	// whole client-observed write is ring admission (no flush wait in the
	// total), while the flush-persist lag is attributed asynchronously by
	// the flusher hook. The lag's magnitude depends on flusher backlog
	// (wall-clock scheduling), so only the decoupling itself is asserted.
	ring := e18Cell(t, tb, "staged_write", "ringStage", p50)
	total := e18Cell(t, tb, "staged_write", "total", p50)
	if ring < 0.8*total {
		t.Errorf("ringStage p50 %.2fus < 80%% of write total p50 %.2fus — client-visible write should be ring admission", ring, total)
	}
	if n := e18Cell(t, tb, "staged_write", "flushPersist", 3); n <= 0 {
		t.Errorf("no flushPersist observations — flusher hook not attributing async persists")
	}
	// Flusher interference shows up in the read tail: the same NVM read
	// path gets slower at p99 when staged bursts drain concurrently.
	quiet := e18Cell(t, tb, "nvm_read", "nvmCopy", p99)
	loaded := e18Cell(t, tb, "flush_interfered_read", "nvmCopy", p99)
	if loaded < 1.5*quiet {
		t.Errorf("interfered nvmCopy p99 %.2fus < 1.5x quiet %.2fus — flush interference invisible", loaded, quiet)
	}
	if tb.Telemetry == nil {
		t.Fatal("E18 table missing telemetry snapshot")
	}
}
