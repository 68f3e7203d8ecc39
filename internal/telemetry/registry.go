// Package telemetry is Gengar's observability substrate: a labeled
// metrics registry over the primitives in internal/metrics, snapshot
// exporters (Prometheus text format and JSON), and an HTTP debug
// handler. Per-operation records live in the span subpackage.
//
// The registry hands out live instruments — *metrics.Counter,
// *metrics.Gauge, *metrics.Histogram — that components update on their
// hot paths with plain atomic operations; Snapshot walks the registry
// and reads every instrument, so there is no per-update registry cost.
// Values derived from existing state (pool usage, ring occupancy) are
// registered as gauge functions evaluated at snapshot time.
//
// Every cluster (simulated or TCP deployment) owns one Registry, so
// concurrent clusters in one process never share metrics.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"gengar/internal/metrics"
)

// Label is one name=value dimension of a metric instance.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the instrument types a metric family can hold.
type Kind int

// The instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// instrument is one (family, label set) cell.
type instrument struct {
	labels  []Label
	counter *metrics.Counter
	gauge   *metrics.Gauge
	gaugeFn func() int64
	hist    *metrics.Histogram
}

// family is all instances of one metric name.
type family struct {
	name  string
	kind  Kind
	help  string
	unit  string                 // histogram unit: "" for nanosecond durations, UnitValue for raw values
	insts map[string]*instrument // keyed by label signature
}

// UnitValue marks a histogram family as holding raw values (batch
// lengths, bytes per syscall) rather than nanosecond durations, so
// exporters skip the duration scaling.
const UnitValue = "value"

// Registry is a concurrent, labeled metrics registry. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature canonicalizes a label set (sorted by key) into a map key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a key-sorted copy so callers' argument order never
// splits one logical instance into two.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns (creating if needed) the instrument cell for
// name+labels, enforcing kind consistency per name. A kind clash is a
// programming error and panics.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *instrument {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: help, insts: make(map[string]*instrument)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	inst := f.insts[sig]
	if inst == nil {
		inst = &instrument{labels: labels}
		f.insts[sig] = inst
	}
	return inst
}

// Counter returns the live counter for name+labels, creating it on first
// use. Repeated calls with the same name and labels return the same
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *metrics.Counter {
	inst := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.counter == nil {
		inst.counter = new(metrics.Counter)
	}
	return inst.counter
}

// RegisterCounter exposes an existing counter (owned by a component)
// under name+labels. It returns c for chaining; re-registration replaces
// the previous instrument.
func (r *Registry) RegisterCounter(name, help string, c *metrics.Counter, labels ...Label) *metrics.Counter {
	inst := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.counter = c
	return c
}

// Gauge returns the live gauge for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *metrics.Gauge {
	inst := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.gauge == nil {
		inst.gauge = new(metrics.Gauge)
	}
	return inst.gauge
}

// RegisterGauge exposes an existing gauge under name+labels.
func (r *Registry) RegisterGauge(name, help string, g *metrics.Gauge, labels ...Label) *metrics.Gauge {
	inst := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.gauge = g
	return g
}

// GaugeFunc registers fn as the value source for name+labels; fn is
// evaluated at snapshot time. Use it for levels derived from existing
// state (allocator usage, table sizes) rather than maintained counters.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	inst := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.gaugeFn = fn
}

// Histogram returns the live log-scale histogram for name+labels,
// creating it on first use. By repository convention histogram
// observations are durations recorded in nanoseconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *metrics.Histogram {
	inst := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst.hist == nil {
		inst.hist = new(metrics.Histogram)
	}
	return inst.hist
}

// RegisterHistogram exposes an existing histogram under name+labels.
func (r *Registry) RegisterHistogram(name, help string, h *metrics.Histogram, labels ...Label) *metrics.Histogram {
	inst := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	inst.hist = h
	return h
}

// ValueHistogram returns the live histogram for name+labels with the
// family marked as raw-valued (UnitValue): observations are plain
// numbers — frames per flush, bytes per syscall — and exporters report
// them unscaled instead of converting nanoseconds to seconds.
func (r *Registry) ValueHistogram(name, help string, labels ...Label) *metrics.Histogram {
	h := r.Histogram(name, help, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[name].unit = UnitValue
	return h
}

// Reset zeroes every maintained instrument (counters, gauges,
// histograms). Gauge functions are left alone — they reflect external
// state. Benchmark harnesses call it between a warm-up and a measured
// phase.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for _, inst := range f.insts {
			if inst.counter != nil {
				inst.counter.Add(-inst.counter.Load())
			}
			if inst.gauge != nil {
				inst.gauge.Set(0)
			}
			if inst.hist != nil {
				inst.hist.Reset()
			}
		}
	}
}
