// Package span is Gengar's per-operation tracing substrate: sampled,
// pooled spans that timestamp named stages along one operation's
// critical path — wire encode, queue wait, dispatch, lock wait, DRAM
// hit versus NVM copy, staging-ring admission, flush persist, writev
// flush — and stitch across the TCP wire via an 8-byte trace ID carried
// in a frame-header extension.
//
// The design splits the cost asymmetrically. Sampling is decided up
// front: an unsampled operation gets a nil *Span, and every Span method
// is a nil-receiver no-op, so the unsampled hot path pays one atomic
// load (plus one atomic add while sampling is enabled) and zero
// allocations. Sampled spans come from a sync.Pool, record stage marks
// into a fixed in-struct array, and on Finish feed a per-(op, stage)
// quantile registry plus a threshold-gated ring of slow operations.
//
// Timestamps flow through the tracer's Clock function — wall-clock
// nanoseconds on the TCP mount, virtual simnet instants on the
// simulated mount — so both mounts trace identically and hot paths
// never call time.Now directly.
package span

import (
	"sync"
	"sync/atomic"
	"time"

	"gengar/internal/metrics"
	"gengar/internal/telemetry"
)

// Stage names one timed segment of an operation's critical path. Stage
// labels are const-only by design: every exported name below is the
// full vocabulary, so stage cardinality in the metrics registry is
// bounded.
type Stage uint8

// The stage vocabulary. Client-side stages (encode, netWait, decode)
// and server-side stages (queueWait through writevFlush) share one
// enum so a stitched client+server span reads as a single timeline.
const (
	// StageEncode is the client encoding the request payload into a
	// pooled frame and handing it to the send queue.
	StageEncode Stage = iota
	// StageQueueWait is the gap between a request frame leaving the
	// read loop and its handler starting — goroutine hand-off for
	// parked ops, near zero for inline dispatch.
	StageQueueWait
	// StageDispatch is request decoding and routing inside the handler.
	StageDispatch
	// StageLockWait is time spent waiting out lock contention.
	StageLockWait
	// StageCacheHit is a read served from the DRAM cache copy.
	StageCacheHit
	// StageNVMCopy is a read served from (or a write applied to) the
	// NVM-backed pool.
	StageNVMCopy
	// StageRingStage is staging a write into the proxy ring, including
	// any credit backpressure wait.
	StageRingStage
	// StageFlushPersist is persisting bytes to NVM: inline for
	// write-through, asynchronous (flusher-observed) for staged writes.
	StageFlushPersist
	// StageWritevFlush is a response frame's wait in the send queue
	// plus its share of the coalesced writev syscall.
	StageWritevFlush
	// StageNetWait is the client-side gap between the request leaving
	// and its response arriving — wire time plus everything remote.
	StageNetWait
	// StageDecode is the client decoding the response payload.
	StageDecode
	// StagePeerRead is a read proxied through the daemon-to-daemon link
	// to the peer arena holding the spilled copy — the round trip to the
	// holder, including its generation check.
	StagePeerRead

	numStages
)

// String returns the stage's label, used in metrics and JSONL exports.
func (s Stage) String() string {
	switch s {
	case StageEncode:
		return "encode"
	case StageQueueWait:
		return "queueWait"
	case StageDispatch:
		return "dispatch"
	case StageLockWait:
		return "lockWait"
	case StageCacheHit:
		return "cacheHit"
	case StageNVMCopy:
		return "nvmCopy"
	case StageRingStage:
		return "ringStage"
	case StageFlushPersist:
		return "flushPersist"
	case StageWritevFlush:
		return "writevFlush"
	case StageNetWait:
		return "netWait"
	case StageDecode:
		return "decode"
	case StagePeerRead:
		return "peerRead"
	}
	return "unknown"
}

// StageMetric is the registry family holding per-(op, stage) latency
// histograms for every tracer wired to a telemetry registry.
const StageMetric = "gengar_trace_stage_seconds"

// maxMarks bounds the in-struct mark array. Repeated marks of one stage
// (a multi-frame chain marking encode per frame) share a slot, so it is
// the number of distinct consecutive stages on the deepest path that
// must fit; overflow marks are counted, not stored, so a span never
// allocates to grow.
const maxMarks = 8

// mark is one recorded stage boundary: the stage that just ended and
// the instant it ended at.
type mark struct {
	stage Stage
	at    int64
}

// Span is one sampled operation in flight. A nil *Span is the unsampled
// case and every method no-ops on it, so call sites never branch on
// sampling themselves. A span is owned by exactly one goroutine at a
// time; ownership may be handed off (client op goroutine → frame queue
// writer) but never shared.
type Span struct {
	t       *Tracer
	op      string
	traceID uint64
	remote  bool // opened from a wire-propagated trace ID (the server half)
	start   int64
	addr    uint64 // object the op touched (SetTarget)
	length  int    // payload bytes it moved (SetTarget)
	n       int
	dropped int
	marks   [maxMarks]mark
}

// TraceID returns the span's wire-propagated identity (0 for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SetTarget notes which object a single-object op (read, write) touched
// and how many payload bytes it moved, so a retained Record says what
// was slow, not just where.
func (s *Span) SetTarget(addr uint64, n int) {
	if s == nil {
		return
	}
	s.addr, s.length = addr, n
}

// Mark records that stage st just ended, stamped by the tracer's clock.
func (s *Span) Mark(st Stage) {
	if s == nil {
		return
	}
	s.MarkAt(st, s.t.now())
}

// MarkAt records that stage st ended at instant at — for callers that
// already hold an instant (the simulated mount's virtual timeline). A
// mark of the stage just marked extends that segment instead of opening
// another: the time attributed to the stage is the same, and the stage
// histogram gets one observation per op. (Not once marks were dropped:
// the segment would swallow the dropped stages' time.)
func (s *Span) MarkAt(st Stage, at int64) {
	if s == nil {
		return
	}
	if s.n > 0 && s.marks[s.n-1].stage == st && s.dropped == 0 {
		s.marks[s.n-1].at = at
		return
	}
	if s.n == len(s.marks) {
		s.dropped++
		return
	}
	s.marks[s.n] = mark{stage: st, at: at}
	s.n++
}

// Finish completes the span at its last mark (or now, if unmarked),
// feeds the stage registry and slow ring, and recycles the span. The
// span must not be used afterwards.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	end := s.start
	if s.n > 0 {
		end = s.marks[s.n-1].at
	} else {
		end = s.t.now()
	}
	s.t.finish(s, end)
}

// FinishAt is Finish with an explicit end instant.
func (s *Span) FinishAt(at int64) {
	if s == nil {
		return
	}
	s.t.finish(s, at)
}

// StageLatency is one attributed segment of a finished span: the time
// between the previous stage boundary (or span start) and this one.
type StageLatency struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"ns"`
}

// Record is a finished span as retained by the slow-op ring and served
// over /debug/trace as JSONL.
type Record struct {
	TraceID    uint64         `json:"trace_id"`
	Op         string         `json:"op"`
	Side       string         `json:"side"`
	Remote     bool           `json:"remote,omitempty"`
	Addr       uint64         `json:"addr,omitempty"` // target global address (read, write)
	Len        int            `json:"len,omitempty"`  // payload bytes (read, write)
	StartNanos int64          `json:"start_ns"`
	TotalNanos int64          `json:"total_ns"`
	Dropped    int            `json:"dropped_marks,omitempty"`
	Stages     []StageLatency `json:"stages"`
}

// StageSummary is one (op, stage) cell's latency digest.
type StageSummary struct {
	Op      string
	Stage   string
	Summary metrics.Summary
}

// Config shapes a Tracer.
type Config struct {
	// Side labels this tracer's vantage point: "client" or "server".
	Side string
	// SampleEvery locally initiates a span once every N operations;
	// 0 (or negative) disables local sampling. Remote-initiated spans
	// (StartRemote) honor the peer's decision regardless.
	SampleEvery int
	// SlowThreshold gates the slow-op ring: finished spans at least
	// this slow are retained. 0 retains every sampled span; negative
	// disables the ring.
	SlowThreshold time.Duration
	// RingSize caps the slow-op ring; 0 selects DefaultRingSize.
	RingSize int
	// Clock supplies monotonic nanoseconds for Start/Mark/Finish. nil
	// selects wall time since tracer construction. Both mounts route
	// their existing clock seam here so hot paths never call time.Now.
	Clock func() int64
	// Registry, when set, receives the per-(op, stage) histograms
	// under StageMetric plus the tracer's span counters.
	Registry *telemetry.Registry
	// Labels are appended to every registered family.
	Labels []telemetry.Label
}

// DefaultRingSize is the slow-op ring capacity when Config leaves it 0.
const DefaultRingSize = 256

// histKey identifies one (op, stage) histogram cell.
type histKey struct {
	op string
	st Stage
}

// Tracer owns sampling policy, the span pool, the per-stage quantile
// registry and the slow-op ring for one endpoint (a daemon, a client
// pool, a simulated cluster). A nil *Tracer is valid and disables
// tracing entirely.
type Tracer struct {
	side string
	now  func() int64

	sampleEvery atomic.Int64
	slowNanos   atomic.Int64
	seq         atomic.Uint64 // local sampling counter
	ids         atomic.Uint64 // trace-ID counter
	idBase      uint64

	spans metrics.Counter // spans finished
	slow  metrics.Counter // spans retained by the slow ring

	pool sync.Pool

	reg    *telemetry.Registry
	labels []telemetry.Label

	mu    sync.Mutex
	hists map[histKey]*metrics.Histogram

	ringMu   sync.Mutex
	ring     []Record
	ringNext int
	total    uint64
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{
		side:   cfg.Side,
		now:    cfg.Clock,
		reg:    cfg.Registry,
		labels: append([]telemetry.Label(nil), cfg.Labels...),
		hists:  make(map[histKey]*metrics.Histogram),
	}
	if t.side == "" {
		t.side = "unknown"
	}
	if t.now == nil {
		base := time.Now()
		t.now = func() int64 { return int64(time.Since(base)) }
	}
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	t.ring = make([]Record, 0, size)
	t.sampleEvery.Store(int64(cfg.SampleEvery))
	t.slowNanos.Store(int64(cfg.SlowThreshold))
	// Trace IDs must be unique across endpoint restarts (the ring and
	// JSONL exports join on them), so fold construction time into the
	// counter's base.
	t.idBase = uint64(time.Now().UnixNano()) << 16
	if t.reg != nil {
		side := telemetry.L("side", t.side)
		labels := append(append([]telemetry.Label(nil), t.labels...), side)
		t.reg.RegisterCounter("gengar_trace_spans_total",
			"sampled spans finished", &t.spans, labels...)
		t.reg.RegisterCounter("gengar_trace_slow_total",
			"finished spans retained by the slow-op ring", &t.slow, labels...)
	}
	return t
}

// SetSampleEvery changes the local sampling cadence: one span every n
// operations, 0 to disable.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	t.sampleEvery.Store(int64(n))
}

// SetSlowThreshold changes the slow-ring gate.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slowNanos.Store(int64(d))
}

// sampled applies the up-front sampling decision. The disabled path is
// one atomic load; the enabled-but-skipped path adds one atomic add.
func (t *Tracer) sampled() bool {
	n := t.sampleEvery.Load()
	if n <= 0 {
		return false
	}
	return t.seq.Add(1)%uint64(n) == 0
}

// Start opens a locally-sampled span for op, or returns nil (the
// zero-allocation unsampled case). op must be a constant or an enum's
// String(), so op cardinality in the metrics registry stays bounded.
//
//gengar:hotpath
func (t *Tracer) Start(op string) *Span {
	if t == nil || !t.sampled() {
		return nil
	}
	return t.open(op, t.now(), false, t.idBase^t.ids.Add(1))
}

// StartAt is Start with an explicit begin instant, for the simulated
// mount's virtual timeline.
//
//gengar:hotpath
func (t *Tracer) StartAt(op string, at int64) *Span {
	if t == nil || !t.sampled() {
		return nil
	}
	return t.open(op, at, false, t.idBase^t.ids.Add(1))
}

// StartRemote opens the receiving half of a wire-propagated span: the
// peer already decided to sample, so no local sampling gate applies.
func (t *Tracer) StartRemote(traceID uint64, op string) *Span {
	if t == nil {
		return nil
	}
	return t.open(op, t.now(), true, traceID)
}

func (t *Tracer) open(op string, at int64, remote bool, id uint64) *Span {
	s, _ := t.pool.Get().(*Span)
	if s == nil {
		s = new(Span)
	}
	*s = Span{t: t, op: op, traceID: id, remote: remote, start: at}
	return s
}

// ObserveStage records one standalone stage latency outside any span —
// used for asynchronous stages (the flusher's NVM persist) that outlive
// the operation that caused them.
func (t *Tracer) ObserveStage(op string, st Stage, nanos int64) {
	if t == nil {
		return
	}
	t.stageHist(op, st).Observe(nanos)
}

// finish attributes each stage segment, feeds the quantile registry,
// applies the slow-ring gate and recycles the span.
func (t *Tracer) finish(s *Span, end int64) {
	total := end - s.start
	prev := s.start
	for i := 0; i < s.n; i++ {
		m := s.marks[i]
		d := m.at - prev
		if d < 0 {
			d = 0
		}
		prev = m.at
		t.stageHist(s.op, m.stage).Observe(d)
	}
	t.spans.Inc()
	if gate := t.slowNanos.Load(); gate >= 0 && total >= gate {
		t.slow.Inc()
		t.ringAdd(s, total)
	}
	*s = Span{}
	t.pool.Put(s)
}

// stageHist returns (creating on first use) the histogram cell for one
// (op, stage) pair.
func (t *Tracer) stageHist(op string, st Stage) *metrics.Histogram {
	k := histKey{op: op, st: st}
	t.mu.Lock()
	h := t.hists[k]
	if h == nil {
		h = t.newStageHist(op, st)
		t.hists[k] = h
	}
	t.mu.Unlock()
	return h
}

// newStageHist creates and (when a registry is wired) registers the
// histogram for one (op, stage) cell. Called under t.mu; op values are
// bounded by the wire-op vocabulary, stage values by the Stage enum, so
// label cardinality stays finite.
func (t *Tracer) newStageHist(op string, st Stage) *metrics.Histogram {
	h := new(metrics.Histogram)
	if t.reg != nil {
		labels := make([]telemetry.Label, 0, len(t.labels)+3)
		labels = append(labels, t.labels...)
		labels = append(labels,
			telemetry.L("side", t.side),
			telemetry.L("op", op),
			telemetry.L("stage", st.String()))
		t.reg.RegisterHistogram(StageMetric,
			"per-stage critical-path latency by op", h, labels...)
	}
	return h
}

// ringAdd retains a finished span in the slow-op ring, overwriting the
// oldest entry when full.
func (t *Tracer) ringAdd(s *Span, total int64) {
	rec := Record{
		TraceID:    s.traceID,
		Op:         s.op,
		Side:       t.side,
		Remote:     s.remote,
		Addr:       s.addr,
		Len:        s.length,
		StartNanos: s.start,
		TotalNanos: total,
		Dropped:    s.dropped,
		Stages:     make([]StageLatency, 0, s.n),
	}
	prev := s.start
	for i := 0; i < s.n; i++ {
		m := s.marks[i]
		d := m.at - prev
		if d < 0 {
			d = 0
		}
		prev = m.at
		rec.Stages = append(rec.Stages, StageLatency{Stage: m.stage.String(), Nanos: d})
	}
	t.ringMu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.ringNext] = rec
		t.ringNext = (t.ringNext + 1) % cap(t.ring)
	}
	t.total++
	t.ringMu.Unlock()
}

// Records returns the slow-op ring's contents, oldest first.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := make([]Record, 0, len(t.ring))
	out = append(out, t.ring[t.ringNext:]...)
	out = append(out, t.ring[:t.ringNext]...)
	return out
}

// Total reports how many spans have entered the slow ring since start.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	return t.total
}

// Finished reports how many sampled spans have completed.
func (t *Tracer) Finished() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// StageSummaries digests every (op, stage) histogram, sorted by op then
// stage — the data behind gengar-stat's breakdown pane and E18.
func (t *Tracer) StageSummaries() []StageSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	keys := make([]histKey, 0, len(t.hists))
	for k := range t.hists {
		keys = append(keys, k)
	}
	hists := make([]*metrics.Histogram, len(keys))
	for i, k := range keys {
		hists[i] = t.hists[k]
	}
	t.mu.Unlock()
	out := make([]StageSummary, len(keys))
	for i, k := range keys {
		out[i] = StageSummary{Op: k.op, Stage: k.st.String(), Summary: hists[i].Summarize()}
	}
	sortSummaries(out)
	return out
}

func sortSummaries(s []StageSummary) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func less(a, b StageSummary) bool {
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Stage < b.Stage
}
