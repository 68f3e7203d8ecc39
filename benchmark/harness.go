package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gengar/internal/ycsb"
)

// Load shape shared by every workload: a closed loop of two library
// callers, each on its own connection (TCP mount) or client (sim
// mount), each waiting for its reply before the next request.
const numClients = 2

// params are the inputs of one run of one workload.
type params struct {
	seed   int64
	window time.Duration
	// traced records benchmark-side spans around every call into a
	// layer and turns the program's own op tracer to 100 % sampling.
	traced bool
	// lap, when set, is called by set-up between its stages and every
	// few hundred milliseconds inside the long ones: setup_s is scaled
	// to the host's speed lap by lap (calibrate.go).
	lap func() error
}

func (p params) lapNow() error {
	if p.lap == nil {
		return nil
	}
	return p.lap()
}

// instance is one set-up of a workload: daemon or cluster up, clients
// connected, data loaded, warm-up done. Everything setup does before
// returning is what setup_s measures.
type instance interface {
	// phase prepares a round of stepping (warm-up or the window) in
	// which every client runs until it calls leave.
	phase()
	leave(c int)
	// step performs one op on client c and returns when it completed
	// and how many verifications or calls failed in it.
	step(c int) (end time.Time, failed int)
	// snapshot reads every cumulative counter the per-layer metrics
	// are deltas of.
	snapshot() counters
	// quiesce drains background work and returns how long that took.
	quiesce() (time.Duration, error)
	// finish runs end-of-window checks (it may count more failures)
	// and fills the workload's own metrics.
	finish(r *windowResult) error
	// warmed reports the ops set-up ran and verified before the window.
	warmed() (ops, failed int64)
	// cut marks the end of a slice of the window: no client is stepping.
	cut()
	// spanLogs are the benchmark-side spans of a traced instance.
	spanLogs() []*spanLog
	close()
}

// sliceLen is how much of the window runs between two calibration
// bursts: short against the seconds-long stretches in which the host's
// speed moves, long against the burst (≈ 10 ms) and against one op.
const sliceLen = 250 * time.Millisecond

// sliceResult is one slice of the window.
type sliceResult struct {
	ops       int64
	wall      time.Duration // start → the last client's last completion
	user, sys time.Duration // process CPU spent in it
}

// windowResult is everything one timed window produced.
type windowResult struct {
	ops, failed int64
	slices      []sliceResult
	scales      []scale       // what the times of slices[i] are multiplied by (calibrate.go)
	wall        time.Duration // Σ slices[i].wall: calibration bursts are not in it
	userCPU     time.Duration
	sysCPU      time.Duration
	rawRTT      time.Duration // the host's raw loopback round trip: the median burst's mean
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	goroutines  int
	before      counters
	after       counters
	drain       time.Duration // quiesce at window end = flush backlog
	peakRSSMB   float64
	// metrics are the values the workload derived itself.
	metrics map[string]float64
}

// runWindow drives the closed loop for p.window, slice by slice with a
// calibration burst between slices, and accounts for it.
func runWindow(inst instance, cal *calibrator, p params) (*windowResult, error) {
	n, each := int(p.window/sliceLen), sliceLen
	if n < 1 {
		n, each = 1, p.window
	}
	r := &windowResult{metrics: make(map[string]float64)}
	r.before = inst.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	bursts := make([]yardstick, n+1)
	var err error
	if bursts[0], err = cal.burst(); err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	for i := 0; i < n; i++ {
		s, failed, goroutines := runSlice(inst, each)
		inst.cut()
		if bursts[i+1], err = cal.burst(); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		r.slices = append(r.slices, s)
		r.scales = append(r.scales, scaleOf(bursts[i], bursts[i+1]))
		r.ops += s.ops
		r.failed += failed
		r.wall += s.wall
		r.userCPU += s.user
		r.sysCPU += s.sys
		if goroutines > r.goroutines {
			r.goroutines = goroutines
		}
	}

	runtime.ReadMemStats(&ms1)
	r.after = inst.snapshot()
	means := make([]time.Duration, len(bursts))
	for i, b := range bursts {
		means[i] = b.mean
	}
	r.rawRTT = medianDuration(means)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if r.drain, err = inst.quiesce(); err != nil {
		return nil, err
	}
	if err := inst.finish(r); err != nil {
		return nil, err
	}
	if r.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return r, nil
}

// runSlice lets every client step until d has passed; each finishes the
// op it is in. Every completed op counts.
func runSlice(inst instance, d time.Duration) (s sliceResult, failed int64, goroutines int) {
	var ops, bad [numClients]int64
	inst.phase()
	u0, s0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer inst.leave(c)
			for {
				end, b := inst.step(c)
				ops[c]++
				bad[c] += int64(b)
				if !end.Before(deadline) {
					return
				}
			}
		}(c)
	}
	goroutines = runtime.NumGoroutine()
	wg.Wait()
	s.wall = time.Since(start)
	u1, s1 := cpuTime()
	s.user, s.sys = u1-u0, s1-s0
	for c := 0; c < numClients; c++ {
		s.ops += ops[c]
		failed += bad[c]
	}
	return s, failed, goroutines
}

// warmLaps is how many stretches the warm-up is cut into.
const warmLaps = 5

// warmUp runs n ops on every client at once, untimed but for set-up's
// laps. Failures during warm-up still count: they are returned for the
// caller to carry.
func warmUp(inst instance, n int, p params) (failed int64, err error) {
	for done := 0; done < n; {
		chunk := (n + warmLaps - 1) / warmLaps
		if chunk > n-done {
			chunk = n - done
		}
		var bad [numClients]int64
		inst.phase()
		var wg sync.WaitGroup
		for c := 0; c < numClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer inst.leave(c)
				for i := 0; i < chunk; i++ {
					_, b := inst.step(c)
					bad[c] += int64(b)
				}
			}(c)
		}
		wg.Wait()
		for _, b := range bad {
			failed += b
		}
		done += chunk
		if err := p.lapNow(); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// newGenerator is the key stream of client c: the repository's YCSB
// generator, seeded from the run's seed and the client's index.
func newGenerator(w ycsb.Workload, items int, seed int64, c int) (*ycsb.Generator, error) {
	w.RecordSize = recordBytes
	return ycsb.NewGenerator(w, int64(items), seed+int64(c))
}
