package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gengar/internal/telemetry"
	"gengar/internal/ycsb"
)

// TestYCSBRunTelemetry checks the harness's telemetry contract: a bench
// run returns a deployment-wide snapshot with live counters, and the
// snapshot round-trips through the JSON form gengar-bench writes next
// to each result CSV.
func TestYCSBRunTelemetry(t *testing.T) {
	s := Quick()
	cfg := baseConfig(s, 0.125)
	// Digest aggressively so promotions land during warm-up even at this
	// tiny scale; the assertion below depends on a warm cache.
	cfg.Hotness.DigestEvery = 16
	res, _, snap, err := ycsbRun(cfg, ycsb.A(), s, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("run executed no ops")
	}

	if reads := snap.Sum("gengar_client_reads_total"); reads == 0 {
		t.Error("snapshot has no client reads")
	}
	if hits := snap.Sum("gengar_client_cache_hits_total"); hits == 0 {
		t.Error("snapshot has no cache hits (warm-up should have promoted the hot set)")
	}
	if flushed := snap.Sum("gengar_proxy_flushed_total"); flushed == 0 {
		t.Error("snapshot has no proxy flushes")
	}
	if staged := snap.Sum("gengar_proxy_staged_total"); staged == 0 {
		t.Error("snapshot has no proxied writes")
	}
	if len(snap.Histograms) == 0 {
		t.Error("snapshot has no histograms")
	}

	// Write the snapshot next to a result file exactly as gengar-bench
	// does, then re-read it and confirm it parses back.
	dir := t.TempDir()
	tb := &Table{ID: "EX", Title: "telemetry test", Columns: []string{"kops"}}
	tb.AddRow(kops(res.Throughput))
	tb.Telemetry = &snap
	if err := os.WriteFile(filepath.Join(dir, "ex.csv"), []byte(tb.CSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.Telemetry.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ex.telemetry.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not parse back: %v", err)
	}
	if back.Sum("gengar_client_reads_total") != snap.Sum("gengar_client_reads_total") {
		t.Error("reads counter lost in JSON round-trip")
	}
	if len(back.Histograms) != len(snap.Histograms) {
		t.Errorf("histograms lost in round-trip: %d != %d", len(back.Histograms), len(snap.Histograms))
	}
}

// TestYCSBRunSnapshotIsSteadyState: the harness resets the registry
// after warm-up, so the snapshot's op counts must match the measured
// run, not warm-up plus measurement.
func TestYCSBRunSnapshotIsSteadyState(t *testing.T) {
	s := Quick()
	cfg := baseConfig(s, 0.125)
	res, _, snap, err := ycsbRun(cfg, ycsb.C(), s, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	ops := snap.Sum("gengar_client_reads_total") + snap.Sum("gengar_client_writes_total")
	if ops != int64(res.Ops) {
		t.Errorf("snapshot ops %d != measured-run ops %d (warm-up leaked into snapshot?)", ops, res.Ops)
	}
}
