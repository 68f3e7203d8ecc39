package cache

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"gengar/internal/metrics"
	"gengar/internal/region"
	"gengar/internal/rpc"
	"gengar/internal/telemetry"
)

// ClientView is a client's cached copy of one home server's remap table.
// Lookups are by containment — a gread of any byte range inside a
// promoted object is redirected to the DRAM copy — so entries are kept
// sorted by object base address for binary search. It is safe for
// concurrent use.
//
// The view is double-buffered: DecodeSnapshot builds the next table in
// the buffer the previous install retired and swaps it in, and node
// names resolve against the names the view has already seen, so a
// refresh allocates nothing once both buffers have grown.
type ClientView struct {
	mu      sync.RWMutex
	epoch   uint64
	entries []viewEntry // sorted by base

	// DecodeSnapshot's scratch, also under mu: the table being built and
	// the node names seen so far.
	spare []viewEntry
	names map[string]string

	lookups   metrics.Counter
	redirects metrics.Counter // lookups that hit a promoted object
}

// viewEntry is one promoted object: its base address and its copy.
type viewEntry struct {
	base region.GAddr
	loc  Location
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
	return &ClientView{names: make(map[string]string)}
}

// Epoch returns the epoch of the last installed snapshot.
func (v *ClientView) Epoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// DecodeSnapshot installs the remap snapshot r carries, in the form
// RemapTable.EncodeSnapshot writes, discarding the previous view. A
// payload that does not decode leaves the view as it was. Snapshots may
// arrive out of order from concurrent background refreshes; an older
// epoch never overwrites a newer one (except that epoch 0 installs
// unconditionally, so tests can reset). Lookups wait while it decodes;
// the sim client serializes both under its own mutex anyway.
func (v *ClientView) DecodeSnapshot(r *rpc.Reader) error {
	epoch := r.U64()
	n, err := r.Count(8 + LocationMinBytes) // base u64 + location
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	next := v.spare[:0]
	for i := 0; i < n; i++ {
		base := region.GAddr(r.U64())
		next = append(next, viewEntry{base: base, loc: DecodeLocation(r, v.names)})
	}
	v.spare = next
	if err := r.Err(); err != nil {
		return err
	}
	slices.SortFunc(next, func(a, b viewEntry) int { return cmp.Compare(a.base, b.base) })
	if epoch != 0 && epoch < v.epoch {
		return nil
	}
	// Lookups copy what they find under mu, so once the swap is made
	// nothing reads the retired table; the next decode builds in it.
	v.epoch = epoch
	v.entries, v.spare = next, v.entries
	return nil
}

// Lookup redirects the byte range [addr, addr+size) to a DRAM copy if a
// promoted object contains it. It returns the copy's location, the
// object's base address, and whether the redirect applies.
func (v *ClientView) Lookup(addr region.GAddr, size int64) (Location, region.GAddr, bool) {
	v.lookups.Inc()
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.entries) == 0 || size < 0 {
		return Location{}, region.NilGAddr, false
	}
	// Greatest base <= addr.
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].base > addr }) - 1
	if i < 0 {
		return Location{}, region.NilGAddr, false
	}
	e := &v.entries[i]
	span := region.Span{Addr: e.base, Size: e.loc.Size}
	if !span.Contains(addr, size) {
		return Location{}, region.NilGAddr, false
	}
	v.redirects.Inc()
	return e.loc, e.base, true
}

// Len returns the number of entries in the view.
func (v *ClientView) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.entries)
}
