// Package hotness implements Gengar's frequently-accessed-data
// identification. One-sided RDMA verbs bypass the server CPU, so the
// server cannot observe the access stream directly; what Gengar exploits
// is that the *initiator* of every verb knows its semantics — verb type
// (READ/WRITE), remote address and length. Whoever sees an access stages
// it in a Staging and reports one digest to the object's home server
// every DigestEvery accesses — the client on the simulated mount, the
// daemon that serves the access on the TCP mount; the server aggregates
// digests in a Space-Saving top-k sketch and plans promotions into the
// distributed DRAM buffers and demotions back to NVM.
package hotness

import (
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

// Obs is one staged raw access: the per-op record a session appends to
// its buffer instead of updating a shared map on every operation.
type Obs struct {
	Addr  region.GAddr
	Write bool
}

// maxStagingChunk caps the buffer a Staging allocates up front: the
// digest interval may be huge ("never digest"); the buffer grows by
// append if a session really stages more than this.
const maxStagingChunk = 4096

// Staging is one session's hotness buffer: per-op appends only, folded
// into one digest every `every` observations. It is safe for concurrent
// use; an observation only ever waits on another's append.
type Staging struct {
	every int

	mu  sync.Mutex
	buf []Obs
	// One digest at a time (digesting, under mu): the digest in flight
	// owns spare, the buffer it swapped buf for, and agg, the scratch it
	// folds into, so a digest allocates nothing once they have grown.
	// Observations that arrive meanwhile stay in buf for the next one.
	digesting bool
	spare     []Obs
	agg       aggregator
}

// NewStaging returns an empty buffer that digests every `every`
// observations.
func NewStaging(every int) *Staging {
	n := min(every, maxStagingChunk)
	return &Staging{every: every, buf: make([]Obs, 0, n), spare: make([]Obs, 0, n)}
}

// Observe stages one access. Once `every` observations are staged and no
// digest is in flight, it folds them into per-object entries in
// first-seen order and hands them to send, which must not retain them.
func (s *Staging) Observe(addr region.GAddr, write bool, send func([]Entry)) {
	s.mu.Lock()
	s.buf = append(s.buf, Obs{Addr: addr, Write: write})
	if len(s.buf) < s.every || s.digesting {
		s.mu.Unlock()
		return
	}
	s.digest(send)
}

// Flush sends whatever is staged as one digest and reports whether it
// sent one: with nothing staged, or a digest already in flight, it sends
// nothing.
func (s *Staging) Flush(send func([]Entry)) bool {
	s.mu.Lock()
	if len(s.buf) == 0 || s.digesting {
		s.mu.Unlock()
		return false
	}
	s.digest(send)
	return true
}

// digest swaps the staged observations out, then folds and sends them
// outside the lock. Called with s.mu held; returns with it released.
func (s *Staging) digest(send func([]Entry)) {
	s.digesting = true
	batch := s.buf
	s.buf = s.spare[:0]
	s.mu.Unlock()
	send(s.agg.fold(batch))
	s.mu.Lock()
	s.spare = batch
	s.digesting = false
	s.mu.Unlock()
}

// aggregator folds staged observation buffers into per-object digest
// entries, reusing its index and entry slice from one digest to the
// next. The zero value is ready to use; it is not safe for concurrent
// use.
type aggregator struct {
	idx map[region.GAddr]int
	out []Entry
}

// fold returns obs as per-object entries in first-seen order. The
// result is valid until the next fold.
func (a *aggregator) fold(obs []Obs) []Entry {
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
// entries, preserving first-seen order.
func AggregateObs(obs []Obs) []Entry {
	var a aggregator
	return a.fold(obs)
}
