package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "T1", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Note("note %d", 7)
	s := tb.String()
	for _, want := range []string{"T1 — demo", "a", "bb", "333", "# note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("CSV = %q", csv)
	}
	if strings.Contains(csv, "note") {
		t.Error("CSV contains notes")
	}
}

func TestFormatters(t *testing.T) {
	if us(1500*time.Nanosecond) != "1.50" {
		t.Errorf("us = %q", us(1500*time.Nanosecond))
	}
	if kops(2500) != "2.5" {
		t.Errorf("kops = %q", kops(2500))
	}
	if pct(0.125) != "12.5%" {
		t.Errorf("pct = %q", pct(0.125))
	}
	if speedup(2, 3) != "1.50x" {
		t.Errorf("speedup = %q", speedup(2, 3))
	}
	if speedup(0, 3) != "n/a" {
		t.Errorf("speedup(0,·) = %q", speedup(0, 3))
	}
}

func TestPow2Floor(t *testing.T) {
	cases := map[int64]int64{0: 64, 63: 64, 64: 64, 65: 64, 128: 128, 1000: 512}
	for in, want := range cases {
		if got := pow2Floor(in); got != want {
			t.Errorf("pow2Floor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", Quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 17 {
		t.Fatalf("%d experiments registered, want 17", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has nil runner", e.ID)
		}
	}
}

// TestAllExperimentsQuick executes every experiment at Quick scale and
// sanity-checks the output tables. This is the harness's own integration
// test; shape assertions live in the root bench suite.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := e.Run(Quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tb.ID != e.ID {
				t.Errorf("table ID %q != %q", tb.ID, e.ID)
			}
			if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(tb.Columns))
				}
			}
		})
	}
}
