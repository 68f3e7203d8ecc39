package simnet

import (
	"sync"
	"time"
)

// Resource models a serially-shared hardware resource — a NIC DMA engine,
// an NVM DIMM, a DRAM channel, a server CPU core — as a timeline with a
// busy-until watermark. An operation that arrives at simulated time t and
// needs s of service starts at max(t, busyUntil) and completes at
// start+s; the watermark advances to the completion time. Queueing delay
// therefore emerges whenever concurrent demand exceeds the resource's
// capacity, with no explicit queue data structure.
//
// The zero value is not usable; construct with NewResource.
type Resource struct {
	name string

	mu        sync.Mutex
	busyUntil Time
	busyTotal Duration
	ops       int64
	firstUse  Time
	lastUse   Time
	used      bool
}

// NewResource returns a named idle resource. The name appears in stats and
// is for diagnostics only.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name the resource was created with.
func (r *Resource) Name() string { return r.name }

// Acquire schedules one operation of the given service time arriving at
// the given instant, and returns the interval [start, end) during which
// the resource serves it. Acquire never blocks in wall-clock time.
func (r *Resource) Acquire(arrival Time, service Duration) (start, end Time) {
	if service < 0 {
		service = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	start = MaxTime(arrival, r.busyUntil)
	end = start.Add(service)
	r.busyUntil = end
	r.busyTotal += service
	r.ops++
	if !r.used {
		r.firstUse = start
		r.used = true
	}
	r.lastUse = end
	return start, end
}

// ResourceStats is a snapshot of a resource's accumulated usage.
type ResourceStats struct {
	Name      string
	Ops       int64         // operations served
	BusyTotal time.Duration // total service time charged
	FirstUse  Time          // start of first operation (zero if unused)
	LastUse   Time          // end of last operation (zero if unused)
}

// Utilization returns the fraction of the interval [FirstUse, LastUse]
// during which the resource was busy, or 0 if it was never used.
func (s ResourceStats) Utilization() float64 {
	span := s.LastUse.Sub(s.FirstUse)
	if span <= 0 {
		return 0
	}
	return float64(s.BusyTotal) / float64(span)
}

// Stats returns a snapshot of accumulated usage.
func (r *Resource) Stats() ResourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResourceStats{
		Name:      r.name,
		Ops:       r.ops,
		BusyTotal: r.busyTotal,
		FirstUse:  r.firstUse,
		LastUse:   r.lastUse,
	}
}
