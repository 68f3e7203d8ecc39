package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// setResult is one pass over the workloads, as -out writes it.
type setResult struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads map[string]result `json:"workloads"`
}

// runSet runs every workload (or only one) in a child process of its
// own, so that one workload's heap, resident-set peak and background
// goroutines cannot leak into the next one's numbers. The child is this
// same binary in the driver's form; its output is passed through.
func runSet(only string, p params, traceOut string) (setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return setResult{}, err
	}
	set := setResult{Seed: p.seed, Seconds: int(p.window.Seconds()), Traced: p.traced, Workloads: make(map[string]result)}
	ran := false
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		ran = true
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(p.seed, 10), "-seconds", strconv.Itoa(set.Seconds), "-trace", "0"}
		if p.traced {
			args[len(args)-1] = "1"
			if traceOut != "" {
				args = append(args, "-trace-out", traceOut+"."+w.Name)
			}
		}
		res, err := runChild(self, args)
		if err != nil {
			return setResult{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		set.Workloads[w.Name] = res
	}
	if !ran {
		return setResult{}, fmt.Errorf("unknown workload %q", only)
	}
	return set, nil
}

// runChild runs one workload and parses the last line it prints.
func runChild(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Let the child finish instead of blocking on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return result{}, err
	}
	if scanErr != nil {
		return result{}, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

func writeSet(path string, set setResult) error {
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (setResult, error) {
	var set setResult
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func compareFiles(a, b string, enforce bool) error {
	sa, err := readSet(a)
	if err != nil {
		return err
	}
	sb, err := readSet(b)
	if err != nil {
		return err
	}
	return compareSets(sa, sb, enforce)
}

// worsening is the share of a by which b is worse, in the metric's
// direction: positive means b regressed.
func worsening(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

var errRegressed = errors.New("a metric worsened by more than its bound")

// compareSets prints, per workload and end-to-end metric, both values,
// how much the second is worse than the first and the bound, and fails
// when any bound is exceeded or the second set has more failed ops.
func compareSets(a, b setResult, enforce bool) error {
	regressed := false
	for _, w := range workloads {
		ra, okA := a.Workloads[w.Name]
		rb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			continue
		}
		fmt.Printf("%s\n", w.Name)
		fmt.Printf("  %-16s %14s %14s %9s %7s\n", "metric", "first", "second", "worse by", "bound")
		for _, s := range endToEnd {
			va, okA := ra.Metrics[s.Name]
			vb, okB := rb.Metrics[s.Name]
			if !okA || !okB {
				continue
			}
			worse := worsening(s, va.Value, vb.Value)
			mark := ""
			if worse > s.Bound {
				mark, regressed = "  REGRESSED", true
			}
			fmt.Printf("  %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", s.Name, va.Value, vb.Value, 100*worse, 100*s.Bound, mark)
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("  failed ops: %d of %d, then %d of %d  REGRESSED\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			regressed = true
		}
	}
	if regressed && enforce {
		return errRegressed
	}
	return nil
}
