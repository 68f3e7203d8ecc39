package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Benchmark-side spans: one around every call the benchmark makes into
// a layer, recorded from the benchmark's own files, kept in memory and
// written out when the run ends. No span is added inside the program.

const noParent = int32(-1)

// callSpan is one recorded call. Spans of one op share opID; parent is the
// index, in the same client's log, of the span that caused this one.
type callSpan struct {
	name       string
	opID       uint64
	parent     int32
	start, end int64 // ns since the log's epoch
}

// spanLog is one client's spans. A nil log records nothing, so the
// untraced run pays one nil check per call.
type spanLog struct {
	client  int
	epoch   time.Time
	spans   []callSpan
	dropped int64 // spans that did not fit the preallocated log
}

// spansPerSecond bounds the log: the fastest workload completes about
// 60 k calls per client per second on the reference host.
const spansPerSecond = 200000

func newSpanLog(client int, window time.Duration) *spanLog {
	return &spanLog{
		client: client,
		epoch:  time.Now(),
		spans:  make([]callSpan, 0, int(window.Seconds()*spansPerSecond)),
	}
}

func (l *spanLog) reset() {
	if l != nil {
		l.spans, l.dropped = l.spans[:0], 0
	}
}

func (l *spanLog) add(name string, opID uint64, parent int32, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, callSpan{name, opID, parent, int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch))})
}

// open starts a parent span whose end is not known yet.
func (l *spanLog) open(name string, opID uint64, start time.Time) int32 {
	if l == nil || len(l.spans) == cap(l.spans) {
		return noParent
	}
	l.spans = append(l.spans, callSpan{name, opID, noParent, int64(start.Sub(l.epoch)), 0})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(id int32, end time.Time) {
	if l != nil && id >= 0 {
		l.spans[id].end = int64(end.Sub(l.epoch))
	}
}

// selfTimes returns, per span name, the mean self time in µs: a span's
// duration minus the part of it its child spans cover.
func selfTimes(logs []*spanLog) map[string]float64 {
	sum := make(map[string]int64)
	n := make(map[string]int64)
	for _, l := range logs {
		if l == nil {
			continue
		}
		self := make([]int64, len(l.spans))
		for i, s := range l.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range l.spans {
			if s.end == 0 {
				continue // parent never closed: the op failed midway
			}
			sum[s.name] += self[i]
			n[s.name]++
		}
	}
	out := make(map[string]float64, len(sum))
	for name, total := range sum {
		out[name] = float64(total) / float64(n[name]) / 1e3
	}
	return out
}

// spanLine is the JSONL form of one span.
type spanLine struct {
	Client  int    `json:"client"`
	Name    string `json:"name"`
	OpID    uint64 `json:"op_id"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes every log as JSONL to path.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			if err := enc.Encode(spanLine{l.client, s.name, s.opID, i, s.parent, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
