package cache

import (
	"sort"
	"sync"

	"gengar/internal/metrics"
	"gengar/internal/region"
	"gengar/internal/telemetry"
)

// ClientView is a client's cached copy of one home server's remap table.
// Lookups are by containment — a gread of any byte range inside a
// promoted object is redirected to the DRAM copy — so entries are kept
// sorted by object base address for binary search. It is safe for
// concurrent use.
type ClientView struct {
	mu      sync.RWMutex
	epoch   uint64
	bases   []region.GAddr // sorted object bases
	entries map[region.GAddr]Location

	lookups   metrics.Counter
	redirects metrics.Counter // lookups that hit a promoted object
}

// RegisterTelemetry exposes the view's lookup counters and state in reg
// under the gengar_view_* names with the given labels (typically the
// owning client and home server).
func (v *ClientView) RegisterTelemetry(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterCounter("gengar_view_lookups_total", "remap-view lookups served", &v.lookups, labels...)
	reg.RegisterCounter("gengar_view_redirects_total", "lookups redirected to a DRAM copy", &v.redirects, labels...)
	reg.GaugeFunc("gengar_view_entries", "promoted objects in the cached remap view", func() int64 {
		return int64(v.Len())
	}, labels...)
	reg.GaugeFunc("gengar_view_epoch", "epoch of the cached remap view", func() int64 {
		return int64(v.Epoch())
	}, labels...)
}

// NewClientView returns an empty view at epoch zero.
func NewClientView() *ClientView {
	return &ClientView{entries: make(map[region.GAddr]Location)}
}

// Epoch returns the epoch of the last installed snapshot.
func (v *ClientView) Epoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// Replace installs a full snapshot, discarding the previous view.
// Snapshots may arrive out of order from concurrent background
// refreshes; an older epoch never overwrites a newer one (except that
// epoch 0 installs unconditionally, so tests can reset).
func (v *ClientView) Replace(epoch uint64, entries map[region.GAddr]Location) {
	bases := make([]region.GAddr, 0, len(entries))
	m := make(map[region.GAddr]Location, len(entries))
	for a, l := range entries {
		bases = append(bases, a)
		m[a] = l
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch != 0 && epoch < v.epoch {
		return
	}
	v.epoch = epoch
	v.bases = bases
	v.entries = m
}

// Lookup redirects the byte range [addr, addr+size) to a DRAM copy if a
// promoted object contains it. It returns the copy's location, the
// object's base address, and whether the redirect applies.
func (v *ClientView) Lookup(addr region.GAddr, size int64) (Location, region.GAddr, bool) {
	v.lookups.Inc()
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.bases) == 0 || size < 0 {
		return Location{}, region.NilGAddr, false
	}
	// Greatest base <= addr.
	i := sort.Search(len(v.bases), func(i int) bool { return v.bases[i] > addr }) - 1
	if i < 0 {
		return Location{}, region.NilGAddr, false
	}
	base := v.bases[i]
	loc := v.entries[base]
	span := region.Span{Addr: base, Size: loc.Size}
	if !span.Contains(addr, size) {
		return Location{}, region.NilGAddr, false
	}
	v.redirects.Inc()
	return loc, base, true
}

// Len returns the number of entries in the view.
func (v *ClientView) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.entries)
}
