package span

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gengar/internal/telemetry"
)

// fakeClock is a deterministic nanosecond source.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64      { return c.t }
func (c *fakeClock) advance(d int64) { c.t += d }
func newClocked(cfg Config) (*Tracer, *fakeClock) {
	clk := &fakeClock{}
	cfg.Clock = clk.now
	return NewTracer(cfg), clk
}

func TestNilTracerAndNilSpanNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("read")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.SetTarget(0x40, 64)
	sp.Mark(StageDispatch)
	sp.MarkAt(StageNVMCopy, 5)
	sp.Finish()
	sp.FinishAt(9)
	if sp.TraceID() != 0 {
		t.Fatal("nil span has a trace ID")
	}
	tr.SetSampleEvery(1)
	tr.ObserveStage("write", StageFlushPersist, 1)
	if tr.Records() != nil || tr.StageSummaries() != nil || tr.Finished() != 0 {
		t.Fatal("nil tracer returned data")
	}
}

func TestSamplingCadence(t *testing.T) {
	tr, _ := newClocked(Config{Side: "client", SampleEvery: 4})
	sampled := 0
	for i := 0; i < 40; i++ {
		if sp := tr.Start("read"); sp != nil {
			sampled++
			sp.Finish()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 ops at 1-in-4", sampled)
	}
	tr.SetSampleEvery(0)
	for i := 0; i < 40; i++ {
		if tr.Start("read") != nil {
			t.Fatal("sampled with sampling disabled")
		}
	}
}

func TestStageAttribution(t *testing.T) {
	tr, clk := newClocked(Config{Side: "server", SampleEvery: 1, SlowThreshold: -1})
	sp := tr.Start("read")
	if sp == nil {
		t.Fatal("not sampled at 1-in-1")
	}
	clk.advance(100)
	sp.Mark(StageDispatch)
	clk.advance(250)
	sp.Mark(StageNVMCopy)
	clk.advance(50)
	sp.Mark(StageWritevFlush)
	sp.Finish()

	sums := tr.StageSummaries()
	want := map[string]int64{"dispatch": 100, "nvmCopy": 250, "writevFlush": 50}
	if len(sums) != len(want) {
		t.Fatalf("got %d stage cells, want %d: %+v", len(sums), len(want), sums)
	}
	for _, s := range sums {
		if s.Op != "read" {
			t.Fatalf("stage %s landed under op %q", s.Stage, s.Op)
		}
		if w, ok := want[s.Stage]; !ok || s.Summary.Count != 1 || int64(s.Summary.Max) != w {
			t.Fatalf("stage %s: count=%d max=%v, want one observation of %d",
				s.Stage, s.Summary.Count, s.Summary.Max, want[s.Stage])
		}
	}
	if tr.Finished() != 1 {
		t.Fatalf("finished = %d", tr.Finished())
	}
}

func TestSlowRingGate(t *testing.T) {
	tr, clk := newClocked(Config{Side: "server", SampleEvery: 1, SlowThreshold: 200, RingSize: 2})
	finish := func(d int64) {
		sp := tr.Start("write")
		clk.advance(d)
		sp.Mark(StageRingStage)
		sp.Finish()
	}
	finish(100) // below the gate
	finish(300)
	finish(400)
	finish(500) // ring capacity 2: the 300ns record is evicted
	recs := tr.Records()
	if len(recs) != 2 || recs[0].TotalNanos != 400 || recs[1].TotalNanos != 500 {
		t.Fatalf("ring = %+v", recs)
	}
	if tr.Total() != 3 {
		t.Fatalf("total slow = %d", tr.Total())
	}
	if recs[0].Op != "write" || recs[0].Side != "server" || len(recs[0].Stages) != 1 {
		t.Fatalf("record shape: %+v", recs[0])
	}
}

func TestStartRemoteBypassesSampling(t *testing.T) {
	tr, _ := newClocked(Config{Side: "server"}) // local sampling off
	sp := tr.StartRemote(0xfeed, "read")
	if sp == nil {
		t.Fatal("remote span refused")
	}
	if sp.TraceID() != 0xfeed {
		t.Fatalf("trace ID %x", sp.TraceID())
	}
	sp.Mark(StageDispatch)
	sp.Finish()
	recs := tr.Records()
	if len(recs) != 1 || recs[0].TraceID != 0xfeed || !recs[0].Remote {
		t.Fatalf("ring = %+v", recs)
	}
}

func TestMarkOverflowCounted(t *testing.T) {
	tr, clk := newClocked(Config{SampleEvery: 1})
	sp := tr.Start("write_batch")
	for i := 0; i < maxMarks+3; i++ {
		clk.advance(10)
		sp.Mark([]Stage{StageRingStage, StageNVMCopy}[i%2])
	}
	sp.Finish()
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Dropped != 3 || len(recs[0].Stages) != maxMarks {
		t.Fatalf("ring = %+v", recs)
	}
}

func TestRepeatedMarksShareASlot(t *testing.T) {
	// An 8-frame ReadMulti marks encode once per frame; the span must
	// still have room for the stages after it.
	tr, clk := newClocked(Config{SampleEvery: 1})
	sp := tr.Start("read")
	for i := 0; i < 8; i++ {
		clk.advance(10)
		sp.Mark(StageEncode)
	}
	clk.advance(200)
	sp.Mark(StageNetWait)
	clk.advance(5)
	sp.Mark(StageDecode)
	sp.Finish()
	recs := tr.Records()
	want := []StageLatency{{"encode", 80}, {"netWait", 200}, {"decode", 5}}
	if len(recs) != 1 || recs[0].Dropped != 0 || !reflect.DeepEqual(recs[0].Stages, want) {
		t.Fatalf("ring = %+v, want stages %+v and nothing dropped", recs, want)
	}
}

func TestRegistryExport(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{}
	tr := NewTracer(Config{
		Side: "server", SampleEvery: 1, Clock: clk.now,
		Registry: reg, Labels: []telemetry.Label{telemetry.L("server", "1")},
	})
	sp := tr.Start("read")
	clk.advance(123)
	sp.Mark(StageCacheHit)
	sp.Finish()
	tr.ObserveStage("write", StageFlushPersist, 77)

	snap := reg.Snapshot()
	var got []telemetry.HistogramSample
	for _, h := range snap.Histograms {
		if h.Name == StageMetric {
			got = append(got, h)
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d %s cells: %+v", len(got), StageMetric, got)
	}
	for _, h := range got {
		if h.Labels["side"] != "server" || h.Labels["server"] != "1" {
			t.Fatalf("labels: %v", h.Labels)
		}
		switch h.Labels["stage"] {
		case "cacheHit":
			if h.Labels["op"] != "read" || h.MaxNanos != 123 {
				t.Fatalf("cacheHit cell: %+v", h)
			}
		case "flushPersist":
			if h.Labels["op"] != "write" || h.MaxNanos != 77 {
				t.Fatalf("flushPersist cell: %+v", h)
			}
		default:
			t.Fatalf("unexpected stage %q", h.Labels["stage"])
		}
	}
	if v, ok := snap.Find("gengar_trace_spans_total"); !ok || v.Value != 1 {
		t.Fatalf("spans counter: %+v ok=%v", v, ok)
	}
}

func TestHandlerJSONL(t *testing.T) {
	tr, clk := newClocked(Config{Side: "server", SampleEvery: 1})
	for i := 0; i < 3; i++ {
		sp := tr.Start("read")
		sp.SetTarget(uint64(0x40*(i+1)), 64)
		clk.advance(int64(100 * (i + 1)))
		sp.Mark(StageNVMCopy)
		sp.Finish()
	}
	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var recs []Record
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].TotalNanos != 200 || recs[1].TotalNanos != 300 {
		t.Fatalf("tail records: %+v", recs)
	}
	// Each record names the object and bytes its op touched, and a
	// recycled span does not carry the previous op's target along.
	if recs[0].Addr != 0x80 || recs[1].Addr != 0xc0 || recs[1].Len != 64 {
		t.Fatalf("record targets: %+v", recs)
	}
	tr.Start("lock_ex").Finish()
	if last := tr.Records()[3]; last.Addr != 0 || last.Len != 0 {
		t.Fatalf("untargeted op inherited a target: %+v", last)
	}
}

func TestDefaultClockMonotone(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, SlowThreshold: -1})
	sp := tr.Start("read")
	time.Sleep(time.Millisecond)
	sp.Mark(StageNVMCopy)
	sp.Finish()
	sums := tr.StageSummaries()
	if len(sums) != 1 || sums[0].Summary.Max <= 0 {
		t.Fatalf("wall-clocked stage did not advance: %+v", sums)
	}
}

// TestStageLabelsCoverTheEnum keeps the vocabulary dense: every Stage
// below numStages has its own label, so adding or removing a stage
// cannot leave one that exports as "unknown" or shares a metric series.
func TestStageLabelsCoverTheEnum(t *testing.T) {
	seen := map[string]Stage{}
	for s := Stage(0); s < numStages; s++ {
		label := s.String()
		if label == "unknown" {
			t.Errorf("stage %d has no label", s)
		}
		if prev, dup := seen[label]; dup {
			t.Errorf("stages %d and %d share label %q", prev, s, label)
		}
		seen[label] = s
	}
}
