package gengar_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gengar"
	"gengar/internal/config"
	"gengar/internal/server"
	"gengar/internal/tcpnet"
	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

// TestTelemetryEndToEnd drives a small workload through the public API
// and checks that the full telemetry path lights up: cache hits and
// proxy flushes appear in the registry, the tracer's ring holds per-op
// records naming the object each op touched, and the HTTP debug
// endpoints serve it all (Prometheus text, /debug/trace JSONL).
func TestTelemetryEndToEnd(t *testing.T) {
	cfg := gengar.DefaultConfig()
	cfg.Servers = 2
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.RingBytes = 1 << 23
	cfg.Hotness.DigestEvery = 8
	cfg.Hotness.PlanEvery = time.Microsecond
	cfg.Hotness.MinWeight = 2
	p, err := gengar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Trace every op and retain every span, so the ring is a per-op log.
	tracer := p.Cluster().Tracer()
	tracer.SetSampleEvery(1)
	tracer.SetSlowThreshold(0)
	c, err := p.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	addr, err := c.MallocOn(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	// Hammer the object hot so it gets promoted, then quiesce twice so
	// the promotion plan lands and the client's remap view catches up.
	buf := make([]byte, 1024)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			if err := c.Read(addr, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Settle(); err != nil {
			t.Fatal(err)
		}
		if err := c.SyncView(addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := c.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}

	snap := p.Telemetry().Snapshot()
	if hits := snap.Sum("gengar_client_cache_hits_total"); hits == 0 {
		t.Error("no cache hits recorded")
	}
	if staged := snap.Sum("gengar_proxy_staged_total"); staged == 0 {
		t.Error("no proxied writes recorded")
	}
	if flushed := snap.Sum("gengar_proxy_flushed_total"); flushed == 0 {
		t.Error("no proxy flushes recorded")
	}
	if verbs := snap.Sum("gengar_rdma_verbs_total"); verbs == 0 {
		t.Error("no RDMA verbs recorded")
	}
	if s, ok := snap.Find("gengar_client_reads_total", telemetry.L("client", "app")); !ok || s.Value == 0 {
		t.Errorf("per-client read counter: %+v ok=%v", s, ok)
	}
	// Registry-backed Stats views agree with the registry itself.
	if st := c.Stats(); st.CacheHits != snap.Sum("gengar_client_cache_hits_total") {
		t.Errorf("ClientStats hits %d != registry %d", st.CacheHits, snap.Sum("gengar_client_cache_hits_total"))
	}

	// Label values are bounded: traffic to an object the registry has
	// never seen adds samples to existing series, never a new series
	// (an address, length or trace ID used as a label would).
	series := func() int {
		s := p.Telemetry().Snapshot()
		return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	before := series()
	other, err := c.MallocOn(2, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(other, data[:512]); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(other, buf[:512]); err != nil {
		t.Fatal(err)
	}
	if after := series(); after != before {
		t.Errorf("ops on a new object grew the registry from %d to %d series", before, after)
	}

	// The debug endpoint serves it all: Prometheus text with at least
	// one counter, gauge and histogram (summary) family.
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.Handler(p.Telemetry()))
	mux.Handle("/debug/trace", span.Handler(tracer))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE gengar_client_reads_total counter",
		"# TYPE gengar_server_pool_used_bytes gauge",
		"# TYPE gengar_client_read_latency_seconds summary",
		`verb="read"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /debug/trace holds one record per op: which object, how many
	// bytes, and the stage that served it — including a cache-hit read
	// and the proxied write.
	resp, err = http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawHit, sawWrite bool
	wantLen := map[uint64]int{uint64(addr): 1024, uint64(other): 512}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r span.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad /debug/trace line %q: %v", sc.Text(), err)
		}
		if r.Op == "read" || r.Op == "write" {
			if want := wantLen[r.Addr]; want == 0 || r.Len != want {
				t.Errorf("%s record names addr %#x len %d", r.Op, r.Addr, r.Len)
			}
		}
		for _, st := range r.Stages {
			sawHit = sawHit || (r.Op == "read" && st.Stage == "cacheHit")
			sawWrite = sawWrite || (r.Op == "write" && st.Stage == "ringStage")
		}
	}
	if !sawHit {
		t.Error("no cache-hit read record in /debug/trace")
	}
	if !sawWrite {
		t.Error("no proxied-write record in /debug/trace")
	}
	resp, err = http.Get(srv.URL + "/debug/trace?n=4")
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(strings.TrimSpace(string(tail)), "\n") + 1; lines != 4 {
		t.Errorf("/debug/trace?n=4 returned %d lines", lines)
	}
}

// TestTelemetryIsolatedPerPool guards the per-cluster registry design:
// two concurrent pools must not share instruments.
func TestTelemetryIsolatedPerPool(t *testing.T) {
	cfg := gengar.DefaultConfig()
	cfg.Servers = 1
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.RingBytes = 1 << 22
	p1, err := gengar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := gengar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	p1.Cluster().Tracer().SetSampleEvery(1)
	p2.Cluster().Tracer().SetSampleEvery(1)

	c1, err := p1.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	addr, err := c1.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(addr, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}

	if n := p1.Telemetry().Snapshot().Sum("gengar_client_writes_total"); n != 1 {
		t.Fatalf("pool 1 writes = %d", n)
	}
	if n := p2.Telemetry().Snapshot().Sum("gengar_client_writes_total"); n != 0 {
		t.Fatalf("pool 2 leaked %d writes from pool 1", n)
	}
	if p1.Cluster().Tracer().Finished() == 0 {
		t.Fatal("pool 1 traced nothing")
	}
	if p2.Cluster().Tracer().Finished() != 0 {
		t.Fatal("pool 2 leaked op spans from pool 1")
	}
}

// TestMetricNameParityAcrossMounts holds the two mounts to one metric
// vocabulary: a sim cluster's registry and a TCP daemon's registry
// expose the same gengar_proxy_* and gengar_server_* names, and neither
// still carries one of the retired flush-pacing instruments.
func TestMetricNameParityAcrossMounts(t *testing.T) {
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cluster, err := server.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	daemon, err := tcpnet.NewPoolServer(tcpnet.ServerConfig{ID: 1, PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	names := func(reg *telemetry.Registry) map[string]bool {
		set := map[string]bool{}
		add := func(name string) {
			if strings.HasPrefix(name, "gengar_proxy_") || strings.HasPrefix(name, "gengar_server_") {
				set[name] = true
			}
		}
		snap := reg.Snapshot()
		for _, samples := range [][]telemetry.Sample{snap.Counters, snap.Gauges} {
			for _, s := range samples {
				add(s.Name)
			}
		}
		for _, h := range snap.Histograms {
			add(h.Name)
		}
		return set
	}
	sim, tcp := names(cluster.Telemetry()), names(daemon.Telemetry())
	if len(sim) == 0 {
		t.Fatal("sim registry exposes no gengar_proxy_*/gengar_server_* metric")
	}
	for name := range sim {
		if !tcp[name] {
			t.Errorf("%s is on the sim mount only", name)
		}
	}
	for name := range tcp {
		if !sim[name] {
			t.Errorf("%s is on the TCP mount only", name)
		}
	}
	for _, retired := range []string{
		"gengar_proxy_flush_gate_waits_total",
		"gengar_proxy_flush_backoff_level",
		"gengar_proxy_flush_bw_bytes_per_sec",
	} {
		if sim[retired] || tcp[retired] {
			t.Errorf("retired metric %s is still registered", retired)
		}
	}
}
