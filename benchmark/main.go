// Command benchmark is the repository's benchmark: four closed-loop
// workloads that drive both mounts of the pool from outside — the TCP
// mount over 127.0.0.1 on the wall clock and the simulated RDMA mount
// on its virtual clock — verify every byte they read, and print every
// metric of BENCHMARK.json by name and unit. README.md in this
// directory says why each workload and metric is there.
//
// The driver's form runs one workload and ends with one JSON line:
//
//	benchmark -workload tcp_read_zipf -seed 1 -seconds 20 -trace 0
//
// Without -workload it runs the set, one child process per workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	setup func(params) (instance, error)
}

var workloads = []workloadSpec{
	{"tcp_read_zipf", "TCP mount, 100% reads, zipfian over 2x the DRAM cache: wire path plus hotness sketch and promotion planner under capacity pressure; the proxy does nothing",
		func(p params) (instance, error) { return setupTCP(kindRead, p) }},
	{"tcp_update_zipf", "TCP mount, same data and key law, 50% reads 50% full-record writes: the same wire and read layers beside staging ring, flusher, coalescer and write-through",
		func(p params) (instance, error) { return setupTCP(kindUpdate, p) }},
	{"tcp_shared_txn", "TCP mount, 1 MiB that fits the cache, lock + ReadMulti + WriteMulti + unlock on contended objects: lock table, publish-before-unlock and the batched frame path",
		func(p params) (instance, error) { return setupTCP(kindTxn, p) }},
	{"sim_ycsb_a", "sim mount, 4 servers, YCSB-A on a virtual clock that charges media and network: where cache and proxy policy show, and the simulator's own speed; no TCP layer runs",
		setupSim},
}

// defaultSeconds is BENCHMARK.json's run_seconds: with 92 driver runs
// and three set-ups per run, a longer window does not fit the budget.
const defaultSeconds = 20

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     string
	traceOut  string
	out       string
	smoke     bool
	selfcheck bool
	compare   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the result line")
	flag.StringVar(&o.workload, "only", "", "alias of -workload, for iterating on one layer")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the key streams")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the timed window")
	flag.StringVar(&o.trace, "trace", "0", "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: also write the benchmark-side spans here as JSONL")
	flag.BoolVar(&o.smoke, "smoke", false, "2 s windows and no bounds enforced: exercises the harness only")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the set twice and compare the two, as -compare does")
	flag.BoolVar(&o.compare, "compare", false, "compare two files written by -out: benchmark -compare a.json b.json")
	flag.StringVar(&o.out, "out", "", "set mode: write every workload's result here as JSON")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two files written by -out")
		}
		return compareFiles(args[0], args[1], !o.smoke)
	}
	if o.smoke {
		o.seconds = 2
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: the window is at least one second", o.seconds)
	}
	traced, err := parseBool01(o.trace)
	if err != nil {
		return err
	}
	p := params{seed: o.seed, window: time.Duration(o.seconds) * time.Second, traced: traced}

	if o.workload != "" && !o.selfcheck {
		runtime.GOMAXPROCS(gomaxprocs)
		printHeader(p)
		for _, w := range workloads {
			if w.Name == o.workload {
				return runOne(w, p, o.traceOut)
			}
		}
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	printHeader(p)
	first, err := runSet(o.workload, p, o.traceOut)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeSet(o.out, first); err != nil {
			return err
		}
	}
	if !o.selfcheck {
		return nil
	}
	second, err := runSet(o.workload, p, o.traceOut)
	if err != nil {
		return err
	}
	return compareSets(first, second, !o.smoke)
}

func parseBool01(s string) (bool, error) {
	switch s {
	case "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("-trace %q: want 0 or 1", s)
}

// gomaxprocs is set explicitly. One: callers, connection handlers,
// flusher and planner take turns on one thread, so a run measures the
// work an op costs and not how the hypervisor wakes an idle vCPU. At the
// seed commit two threads complete fewer reads than one (README.md,
// "Why one thread").
const gomaxprocs = 1

// printHeader records the host facts a number cannot be read without.
func printHeader(p params) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	fmt.Printf("# gengar benchmark: nproc=%d gomaxprocs=%d %s kernel=%s commit=%s\n",
		runtime.NumCPU(), gomaxprocs, runtime.Version(), kernel, commit)
	fmt.Printf("# seed=%d window=%v in slices of %v clients=%d (closed loop) traced=%v\n", p.seed, p.window, sliceLen, numClients, p.traced)
	fmt.Printf("# times and rates are scaled to a host whose raw loopback round trip takes %v (README.md, \"Host-speed calibration\")\n", refRoundTrip)
	if runtime.NumCPU() < 2 {
		fmt.Println("# DEGRADED: nproc < 2 — the kernel's loopback work and the Go runtime's own threads share the one core with the benchmark")
	}
}

// runOne measures one workload in this process and prints its metrics
// and the result line.
func runOne(w workloadSpec, p params, traceOut string) error {
	fmt.Printf("# workload %s: %s\n", w.Name, w.Why)
	var (
		values            map[string]float64
		attempted, failed int64
		err               error
		specs             = endToEnd
	)
	if p.traced {
		specs = perLayer
		values, attempted, failed, err = measureTraced(w, p, traceOut)
	} else {
		values, attempted, failed, err = measure(w, p)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if extra := unknownMetrics(values); len(extra) > 0 {
		return fmt.Errorf("%s: metrics no table names: %v", w.Name, extra)
	}
	printMetrics(specs, values)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{values[s.Name], s.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupRepeats is how many times one untraced run sets the workload
// up; setup_s is the median.
const setupRepeats = 3

// outcome is one set-up of a workload and, when asked for, its window.
type outcome struct {
	window            *windowResult // nil when only set up
	logs              []*spanLog
	setup             time.Duration // scaled to the reference host, lap by lap
	setupRaw          time.Duration // by the stopwatch
	attempted, failed int64         // warm-up and window together
}

// once sets the workload up, optionally runs the window, and tears the
// instance down.
func once(w workloadSpec, cal *calibrator, p params, window bool) (outcome, error) {
	laps, err := newLapTimer(cal)
	if err != nil {
		return outcome{}, err
	}
	p.lap = laps.lap
	inst, err := w.setup(p)
	if err != nil {
		return outcome{}, err
	}
	defer inst.close()
	if err := laps.lap(); err != nil {
		return outcome{}, err
	}
	o := outcome{setup: laps.scaled, setupRaw: laps.raw}
	o.attempted, o.failed = inst.warmed()
	if !window {
		return o, nil
	}
	if o.window, err = runWindow(inst, cal, p); err != nil {
		return outcome{}, err
	}
	commonMetrics(o.window)
	o.logs = inst.spanLogs()
	o.attempted += o.window.ops
	o.failed += o.window.failed
	return o, nil
}

// measure is the untraced run: set up, warm up, time the window, then
// set up twice more for a steady setup_s. The resident-set peak is
// read in the first, before the repeats can raise it.
func measure(w workloadSpec, p params) (values map[string]float64, attempted, failed int64, err error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, 0, 0, err
	}
	defer cal.close()
	var setups, raw []float64
	for i := 0; i < setupRepeats; i++ {
		o, err := once(w, cal, p, i == 0)
		if err != nil {
			return nil, 0, 0, err
		}
		if i == 0 {
			values = o.window.metrics
		}
		setups = append(setups, o.setup.Seconds())
		raw = append(raw, o.setupRaw.Seconds())
		attempted, failed = attempted+o.attempted, failed+o.failed
	}
	values["setup_s"] = medianFloat(setups)
	fmt.Printf("# host: set-ups took %.3f s by the stopwatch\n", raw)
	return values, attempted, failed, nil
}

// measureTraced is the traced run. An untraced reference window on a
// fresh instance comes first, so that trace.overhead_frac compares two
// windows of one process; then the traced window, the direct-call
// timings, and on the sim mount the NVM-Direct comparator.
func measureTraced(w workloadSpec, p params, traceOut string) (values map[string]float64, attempted, failed int64, err error) {
	ref := p
	ref.traced = false
	if ref.window /= 4; ref.window < time.Second {
		ref.window = time.Second
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, 0, 0, err
	}
	defer cal.close()
	untraced, err := once(w, cal, ref, true)
	if err != nil {
		return nil, 0, 0, err
	}
	traced, err := once(w, cal, p, true)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed = untraced.attempted+traced.attempted, untraced.failed+traced.failed
	values = traced.window.metrics
	values["trace.overhead_frac"] = 1 - values["ops_per_s"]/untraced.window.metrics["ops_per_s"]
	if us, ok := selfTimes(traced.logs)["txn"]; ok {
		values["client.txn_self_us"] = us
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, traced.logs); err != nil {
			return nil, 0, 0, err
		}
		fmt.Printf("# spans written to %s\n", traceOut)
	}
	if err := microMetrics(p.seed, values); err != nil {
		return nil, 0, 0, fmt.Errorf("direct-call timings: %w", err)
	}
	if w.Name == "sim_ycsb_a" {
		base, bad, err := nvmDirectKops(p)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("NVM-Direct comparator: %w", err)
		}
		attempted, failed = attempted+simBaseOps*numClients, failed+bad
		values["sim.nvmdirect_kops"] = base
		if base > 0 {
			values["sim.gain_vs_nvmdirect"] = values["sim.kops"] / base
		}
	}
	// The traced window's end-to-end numbers carry the tracing cost;
	// only the untraced run reports them.
	for _, s := range endToEnd {
		delete(values, s.Name)
	}
	return values, attempted, failed, nil
}
