package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"gengar/internal/ycsb"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		name string
		q    float64
		ok   bool
	}{
		{0, "", 0, false},
		{19, "", 0, false}, // 9.5 samples beyond the median
		{20, "p50", 0.5, true},
		{99, "p50", 0.5, true},
		{100, "p90", 0.9, true},
		{999, "p90", 0.9, true},
		{1000, "p99", 0.99, true},
		{10000, "p99.9", 0.999, true},
		{3000000, "p99.999", 0.99999, true},
	} {
		name, q, ok := highestPercentile(tc.n)
		if name != tc.name || q != tc.q || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %q, %v, %v; want %q, %v, %v", tc.n, name, q, ok, tc.name, tc.q, tc.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	sorted := mergeSorted(s.ns[50:], s.ns[:50])
	if got := quantileUS(sorted, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := quantileUS(sorted, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := quantileUS(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

// One disturbed slice must not move a metric, and a slice measured while
// the host ran at half speed must read like the others once scaled.
func TestSliceQuantile(t *testing.T) {
	var s samples
	for _, us := range []int{10, 10, 500, 20, 10} {
		for i := 0; i < 100; i++ {
			s.add(time.Duration(us) * time.Microsecond)
		}
		s.cut()
	}
	sets := []samples{s}
	if got := sliceQuantileUS(sets, nil, 0.5); got != 10 {
		t.Errorf("unscaled = %v, want 10 (one stalled slice must not move it)", got)
	}
	scales := []scale{{mean: 2, median: 3}, {mean: 2, median: 3}, {mean: 2, median: 3}, {mean: 1, median: 1.5}, {mean: 2, median: 3}}
	if got := sliceQuantileUS(sets, scales, 0.99); got != 20 {
		t.Errorf("p99 scaled by the yardstick's mean = %v, want 20", got)
	}
	if got := sliceQuantileUS(sets, scales, 0.5); got != 30 {
		t.Errorf("p50 scaled by the yardstick's median = %v, want 30", got)
	}
	if got := sliceQuantileUS(nil, nil, 0.5); got != 0 {
		t.Errorf("no samples = %v", got)
	}
	s.reset()
	if len(s.ns) != 0 || len(s.cuts) != 0 {
		t.Errorf("reset left %d samples, %d cuts", len(s.ns), len(s.cuts))
	}
}

func TestScaleOf(t *testing.T) {
	ref := yardstick{mean: refRoundTrip, median: refRoundTrip, cpu: refRoundTrip}
	if got := scaleOf(ref, ref); got != (scale{1, 1, 1}) {
		t.Errorf("reference host: scale %v, want 1", got)
	}
	// A host whose vCPU is taken away half the time: averages double,
	// medians and CPU time stay.
	stolen := yardstick{mean: 2 * refRoundTrip, median: refRoundTrip, cpu: refRoundTrip}
	if got := scaleOf(stolen, stolen); got != (scale{0.5, 1, 1}) {
		t.Errorf("stolen time: scale %v, want {0.5 1 1}", got)
	}
}

// A corrupted read is counted by the caller, never fatal: every kind of
// damage comes back as an error value.
func TestVerifyRecord(t *testing.T) {
	fresh := func() []byte {
		buf := make([]byte, recordBytes)
		stampRecord(buf, stamp{obj: 7, writer: 2, seq: 5})
		return buf
	}
	if err := verifyRecord(fresh(), 7, 2, 5); err != nil {
		t.Fatalf("intact record: %v", err)
	}
	if err := verifyRecord(fresh(), 7, 1, 99); err != nil {
		t.Fatalf("another writer's record cannot be stale for this reader: %v", err)
	}

	torn := fresh()
	stamp{obj: 7, writer: 2, seq: 6}.put(torn[recordBytes-stampBytes:])
	if err := verifyRecord(torn, 7, 2, 5); err == nil {
		t.Error("torn read (head != tail) not detected")
	}
	if err := verifyRecord(fresh(), 8, 2, 5); err == nil {
		t.Error("wrong object index not detected")
	}
	if err := verifyRecord(fresh(), 7, 2, 6); !errors.Is(err, errStaleOwn) {
		t.Errorf("stale own write: got %v, want errStaleOwn", err)
	}
	damaged := fresh()
	damaged[512] ^= 1
	if err := verifyRecord(damaged, 7, 2, 5); err == nil {
		t.Error("damaged body not detected")
	}
}

func TestVerifyField(t *testing.T) {
	buf := make([]byte, txnFieldBytes)
	stampField(buf, 3, 4, 41)
	if got, err := verifyField(buf, 3, 4); err != nil || got != 41 {
		t.Fatalf("intact field: %v, %v", got, err)
	}
	if _, err := verifyField(buf, 3, 5); err == nil {
		t.Error("wrong field not detected")
	}
	buf[64]++
	if _, err := verifyField(buf, 3, 4); err == nil {
		t.Error("torn field not detected")
	}
}

func keyStream(t *testing.T, seed int64, client int) []ycsb.Op {
	t.Helper()
	gen, err := newGenerator(ycsb.A(), zipfObjects, seed, client)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]ycsb.Op, 1000)
	for i := range ops {
		ops[i] = gen.Next()
	}
	return ops
}

func TestKeyStreamFollowsSeed(t *testing.T) {
	if !reflect.DeepEqual(keyStream(t, 1, 0), keyStream(t, 1, 0)) {
		t.Error("equal seeds gave different key streams")
	}
	if reflect.DeepEqual(keyStream(t, 1, 0), keyStream(t, 2, 0)) {
		t.Error("different seeds gave the same key stream")
	}
	if reflect.DeepEqual(keyStream(t, 1, 0), keyStream(t, 1, 1)) {
		t.Error("the two clients of one run share a key stream")
	}
}

func TestSelfTimes(t *testing.T) {
	epoch := time.Now()
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	l := &spanLog{epoch: epoch, spans: make([]callSpan, 0, 8)}
	p := l.open("txn", 1, at(0))
	l.add("LockExclusive", 1, p, at(0), at(10))
	l.add("ReadMulti", 1, p, at(10), at(40))
	l.close(p, at(50))
	l.add("ReadCheck", 2, noParent, at(60), at(70))
	got := selfTimes([]*spanLog{l, nil})
	want := map[string]float64{"txn": 10, "LockExclusive": 10, "ReadMulti": 30, "ReadCheck": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *spanLog
	off.add("ReadCheck", 1, noParent, at(0), at(1)) // a nil log records nothing
	off.close(off.open("txn", 1, at(0)), at(1))
	off.reset()
}

func TestCompareSets(t *testing.T) {
	bound := func(name string) float64 {
		for _, s := range endToEnd {
			if s.Name == name {
				return s.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	// set scales a base result: throughput down, tail latency up.
	set := func(opsDown, p99Up float64, failed int64) setResult {
		return setResult{Workloads: map[string]result{"tcp_read_zipf": {
			Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{
				"ops_per_s":   {100000 * (1 - opsDown), "1/s"},
				"read_p99_us": {100 * (1 + p99Up), "us"},
			},
		}}}
	}
	base := set(0, 0, 0)
	ops, p99 := bound("ops_per_s"), bound("read_p99_us")
	if err := compareSets(base, set(ops/2, p99/2, 0), true); err != nil {
		t.Errorf("within bounds: %v", err)
	}
	if err := compareSets(base, set(-1, -0.5, 0), true); err != nil {
		t.Errorf("an improvement is not a regression: %v", err)
	}
	if err := compareSets(base, set(ops*1.1, 0, 0), true); !errors.Is(err, errRegressed) {
		t.Errorf("ops_per_s down by more than its bound: got %v", err)
	}
	if err := compareSets(base, set(0, p99*1.1, 0), true); !errors.Is(err, errRegressed) {
		t.Errorf("read_p99_us up by more than its bound: got %v", err)
	}
	if err := compareSets(base, set(0, 0, 3), true); !errors.Is(err, errRegressed) {
		t.Errorf("more failed ops: got %v", err)
	}
	if err := compareSets(base, set(0.5, 0, 0), false); err != nil {
		t.Errorf("-smoke enforces no bound: %v", err)
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package
// are what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", file.PerLayer, perLayer)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	seen := make(map[string]bool)
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.Name] {
			t.Errorf("metric %s named twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestSmoke runs every workload for a 300 ms window: sockets, daemon,
// simulator and all. Nothing may fail and every end-to-end metric must
// come out positive.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload; skipped with -short")
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o, err := once(w, cal, params{seed: 1, window: 300 * time.Millisecond}, true)
			if err != nil {
				t.Fatal(err)
			}
			r := o.window
			r.metrics["setup_s"] = o.setup.Seconds()
			if o.setupRaw <= 0 {
				t.Errorf("set-up took %v by the stopwatch", o.setupRaw)
			}
			if o.failed != 0 {
				t.Errorf("%d of %d ops failed", o.failed, o.attempted)
			}
			for _, s := range endToEnd {
				if r.metrics[s.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", s.Name, r.metrics[s.Name])
				}
			}
			if extra := unknownMetrics(r.metrics); len(extra) > 0 {
				t.Errorf("metrics no table names: %v", extra)
			}
		})
	}
}
