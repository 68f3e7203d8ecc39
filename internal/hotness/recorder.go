// Package hotness implements Gengar's frequently-accessed-data
// identification. One-sided RDMA verbs bypass the server CPU, so the
// server cannot observe the access stream directly; what Gengar exploits
// is that the *initiator* of every verb knows its semantics — verb type
// (READ/WRITE), remote address and length. Each client therefore records
// a per-object access digest off the critical path and reports it to the
// object's home server at epoch boundaries; the server aggregates digests
// in a Space-Saving top-k sketch and plans promotions into the
// distributed DRAM buffers and demotions back to NVM.
package hotness

import (
	"sort"
	"sync"

	"gengar/internal/region"
)

// Entry is one object's access counts within an epoch.
type Entry struct {
	Addr   region.GAddr
	Reads  uint64
	Writes uint64
}

// Weight is the sketch weight of an entry. Reads count double: reads are
// what a DRAM cache accelerates most (writes are absorbed by the proxy),
// so the promotion policy favors read-hot objects.
func (e Entry) Weight() uint64 { return 2*e.Reads + e.Writes }

// Recorder accumulates verb semantics at a client between digest
// reports. It is safe for concurrent use and cheap on the data path
// (one map update per access). The zero value is not usable; construct
// with NewRecorder.
type Recorder struct {
	mu sync.Mutex
	m  map[region.GAddr]*Entry
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{m: make(map[region.GAddr]*Entry)}
}

// RecordRead notes a one-sided READ of the object at addr.
func (r *Recorder) RecordRead(addr region.GAddr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[addr]
	if e == nil {
		e = &Entry{Addr: addr}
		r.m[addr] = e
	}
	e.Reads++
}

// RecordWrite notes a WRITE of the object at addr.
func (r *Recorder) RecordWrite(addr region.GAddr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[addr]
	if e == nil {
		e = &Entry{Addr: addr}
		r.m[addr] = e
	}
	e.Writes++
}

// Len returns the number of distinct objects recorded this epoch.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Drain returns the accumulated digest sorted by descending weight and
// resets the recorder for the next epoch.
func (r *Recorder) Drain() []Entry {
	r.mu.Lock()
	m := r.m
	r.m = make(map[region.GAddr]*Entry)
	r.mu.Unlock()

	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight() != out[j].Weight() {
			return out[i].Weight() > out[j].Weight()
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Obs is one staged raw access: the per-op record a serving thread
// appends to its session-local buffer instead of updating a recorder
// map (and its lock) on every operation. Buffers are folded into digest
// entries at digest boundaries via AggregateObs.
type Obs struct {
	Addr  region.GAddr
	Write bool
}

// Aggregator folds staged observation buffers into per-object digest
// entries, reusing its index and entry slice from one digest to the
// next. The zero value is ready to use; it is not safe for concurrent
// use.
type Aggregator struct {
	idx map[region.GAddr]int
	out []Entry
}

// Fold returns obs as per-object entries in first-seen order. The
// result is valid until the next Fold.
func (a *Aggregator) Fold(obs []Obs) []Entry {
	if a.idx == nil {
		a.idx = make(map[region.GAddr]int, len(obs))
	}
	clear(a.idx)
	out := a.out[:0]
	for _, o := range obs {
		i, ok := a.idx[o.Addr]
		if !ok {
			i = len(out)
			out = append(out, Entry{Addr: o.Addr})
			a.idx[o.Addr] = i
		}
		if o.Write {
			out[i].Writes++
		} else {
			out[i].Reads++
		}
	}
	a.out = out
	return out
}

// AggregateObs folds a staged observation buffer into per-object digest
// entries, preserving first-seen order: one Fold of a fresh Aggregator.
func AggregateObs(obs []Obs) []Entry {
	var a Aggregator
	return a.Fold(obs)
}
