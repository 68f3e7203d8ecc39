package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples holds one latency per completed call, in nanoseconds and in
// completion order. It is allocated once before the timed window so
// recording never allocates. The harness cuts it where a slice of the
// window ends, so that a percentile can be taken slice by slice.
type samples struct {
	ns   []uint32
	cuts []int // len(ns) at the end of every slice so far
}

func newSamples(n int) samples { return samples{ns: make([]uint32, 0, n)} }

func (s *samples) add(d time.Duration) {
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	s.ns = append(s.ns, uint32(d))
}

func (s *samples) cut() { s.cuts = append(s.cuts, len(s.ns)) }

func (s *samples) reset() { s.ns, s.cuts = s.ns[:0], s.cuts[:0] }

// slice is the part recorded between cut i-1 and cut i.
func (s *samples) slice(i int) []uint32 {
	from := 0
	if i > 0 {
		from = s.cuts[i-1]
	}
	return s.ns[from:s.cuts[i]]
}

// mergeSorted returns every sample of the given runs, ascending.
func mergeSorted(runs ...[]uint32) []uint32 {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	all := make([]uint32, 0, n)
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.Sort(all)
	return all
}

// all is every sample of every set, ascending.
func all(sets []samples) []uint32 {
	runs := make([][]uint32, len(sets))
	for c := range sets {
		runs[c] = sets[c].ns
	}
	return mergeSorted(runs...)
}

// quantileUS is the q-quantile of sorted samples, in microseconds
// (nearest rank; 0 when empty).
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// sliceQuantileUS is a q-quantile that a disturbed stretch of the
// window cannot move: the quantile of every slice, over all clients
// together, is scaled by that slice's host speed (see calibrate.go) —
// a median by the yardstick's median, a tail by its mean — and the
// median of those is returned. scales may be nil: no scaling.
func sliceQuantileUS(sets []samples, scales []scale, q float64) float64 {
	if len(sets) == 0 {
		return 0
	}
	var per []float64
	for i := range sets[0].cuts {
		runs := make([][]uint32, len(sets))
		for c := range sets {
			runs[c] = sets[c].slice(i)
		}
		sorted := mergeSorted(runs...)
		if len(sorted) == 0 {
			continue
		}
		v := quantileUS(sorted, q)
		if scales != nil && q == 0.5 {
			v *= scales[i].median
		} else if scales != nil {
			v *= scales[i].mean
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0
	}
	return medianFloat(per)
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports": beyond percentile q lies one sample in oneIn.
var tailPercentiles = []struct {
	name  string
	q     float64
	oneIn int
}{
	{"p50", 0.5, 2}, {"p90", 0.9, 10}, {"p99", 0.99, 100},
	{"p99.9", 0.999, 1000}, {"p99.99", 0.9999, 10000}, {"p99.999", 0.99999, 100000},
}

// highestPercentile picks the highest candidate percentile that still
// has at least ten samples beyond it (the choosing-metrics rule); with
// fewer than twenty samples even the median fails it and ok is false.
func highestPercentile(n int) (name string, q float64, ok bool) {
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			name, q, ok = c.name, c.q, true
		}
	}
	return name, q, ok
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// medianDuration leaves v sorted.
func medianDuration(v []time.Duration) time.Duration {
	slices.Sort(v)
	return v[len(v)/2]
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
