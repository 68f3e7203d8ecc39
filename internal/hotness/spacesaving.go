package hotness

import "gengar/internal/region"

// DecayWeightPerCounter sets the sketch's aging rate: every counter is
// halved each time the weight added since the last halving reaches this
// multiple of the sketch's capacity. Aging is therefore a property of
// the access stream, not of the clock: an object that receives a share
// p of the stream settles at p * DecayWeightPerCounter * k right after a
// halving (twice that just before one) at any op rate and on either
// mount, and an object that is no longer accessed loses one bit of its
// count per period. With the defaults (k 4096, MinWeight 4) an object
// holds MinWeight from a share of 1/16384 of the stream on: the sketch
// can qualify as many objects as it has counters, and no more.
const DecayWeightPerCounter = 16

// SpaceSaving is the Metwally et al. top-k frequency sketch: it tracks at
// most k counters, and an arriving key that has no counter steals the
// minimum counter, inheriting its count as error. Guarantees: every key
// with true frequency > N/k is present, and counts overestimate by at
// most the recorded error.
//
// The sketch also knows which of its entries are resident (hold a DRAM
// copy) and keeps three orders up to date on every Add: the coldest
// resident entry, and the coldest and hottest of the others. A promotion
// round (Policy.Rebalance) reads its decisions off those heap tops
// instead of sorting the sketch. It is not safe for concurrent use; the
// server serializes digest merges and plans.
type SpaceSaving struct {
	k     int
	items map[region.GAddr]*ssItem
	// residents orders resident entries coldest first (the weakest
	// incumbent on top). cold and hot both hold every other entry:
	// cold's top is the counter to steal, hot's the strongest challenger.
	residents, cold, hot ssHeap
	// orphans are resident objects whose counter was stolen or aged
	// away: copies with no recorded heat, demoted by the next round.
	orphans       []region.GAddr
	residentBytes int64
	free          []*ssItem // counters dropped by a halving, reused by Add
	total         uint64
	sinceDecay    uint64
}

type ssItem struct {
	addr     region.GAddr
	count    uint64
	err      uint64
	size     int64 // copy footprint, valid while resident
	resident bool
	pos      [2]int // heap indices: [0] in residents or cold, [1] in hot
}

// colder is the one ranking rule: fewer accesses first, and among equals
// the higher address (so that hottest-first order breaks ties by
// ascending address).
func colder(x, y *ssItem) bool {
	if x.count != y.count {
		return x.count < y.count
	}
	return x.addr > y.addr
}

// ssHeap is a binary heap of sketch entries that records each entry's
// index in pos[slot], so an entry can be fixed or removed in O(log k).
type ssHeap struct {
	a      []*ssItem
	slot   int
	hotTop bool // hottest entry on top; coldest otherwise
}

func (h *ssHeap) before(x, y *ssItem) bool {
	if h.hotTop {
		return colder(y, x)
	}
	return colder(x, y)
}

func (h *ssHeap) top() *ssItem {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *ssHeap) set(i int, it *ssItem) {
	h.a[i] = it
	it.pos[h.slot] = i
}

func (h *ssHeap) up(i int) {
	it := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(it, h.a[parent]) {
			break
		}
		h.set(i, h.a[parent])
		i = parent
	}
	h.set(i, it)
}

func (h *ssHeap) down(i int) {
	it := h.a[i]
	for {
		child := 2*i + 1
		if child >= len(h.a) {
			break
		}
		if r := child + 1; r < len(h.a) && h.before(h.a[r], h.a[child]) {
			child = r
		}
		if !h.before(h.a[child], it) {
			break
		}
		h.set(i, h.a[child])
		i = child
	}
	h.set(i, it)
}

func (h *ssHeap) push(it *ssItem) {
	h.a = append(h.a, it)
	h.up(len(h.a) - 1)
}

// fix restores the order after the entry's count changed.
func (h *ssHeap) fix(it *ssItem) {
	i := it.pos[h.slot]
	h.up(i)
	if h.a[i] == it {
		h.down(i)
	}
}

func (h *ssHeap) remove(it *ssItem) {
	i, last := it.pos[h.slot], len(h.a)-1
	moved := h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	if i != last {
		h.set(i, moved)
		h.fix(moved)
	}
}

// rebuild drops the entries keep rejects and re-establishes the heap
// order among the rest, in O(len).
func (h *ssHeap) rebuild(keep func(*ssItem) bool) {
	n := 0
	for _, it := range h.a {
		if keep(it) {
			h.set(n, it)
			n++
		}
	}
	for i := n; i < len(h.a); i++ {
		h.a[i] = nil
	}
	h.a = h.a[:n]
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// NewSpaceSaving returns a sketch holding at most k counters; k must be
// positive.
func NewSpaceSaving(k int) *SpaceSaving {
	if k <= 0 {
		k = 1
	}
	return &SpaceSaving{
		k:     k,
		items: make(map[region.GAddr]*ssItem, k),
		hot:   ssHeap{slot: 1, hotTop: true},
	}
}

// Add folds weight observations of addr into the sketch, and ages the
// sketch once enough weight has arrived (see DecayWeightPerCounter).
func (s *SpaceSaving) Add(addr region.GAddr, weight uint64) {
	if weight == 0 {
		return
	}
	s.total += weight
	it, ok := s.items[addr]
	switch {
	case ok:
		it.count += weight
		s.fix(it)
	case len(s.items) < s.k:
		if n := len(s.free); n > 0 {
			it, s.free = s.free[n-1], s.free[:n-1]
		} else {
			it = new(ssItem)
		}
		*it = ssItem{addr: addr, count: weight}
		s.items[addr] = it
		s.cold.push(it)
		s.hot.push(it)
	default:
		// Steal the minimum counter; between a resident and a
		// non-resident entry of equal count the non-resident one goes.
		it = s.cold.top()
		if w := s.residents.top(); w != nil && (it == nil || w.count < it.count) {
			// A copy loses its counter: it is an orphan from here on.
			s.orphans = append(s.orphans, w.addr)
			s.setResident(w, false)
			it = w
		}
		delete(s.items, it.addr)
		it.addr, it.err = addr, it.count
		it.count += weight
		s.items[addr] = it
		s.fix(it)
	}
	if s.sinceDecay += weight; s.sinceDecay >= DecayWeightPerCounter*uint64(s.k) {
		s.halve()
	}
}

// fix restores the entry's place in the heaps that hold it after its
// count or address changed.
func (s *SpaceSaving) fix(it *ssItem) {
	if it.resident {
		s.residents.fix(it)
		return
	}
	s.cold.fix(it)
	s.hot.fix(it)
}

// setResident moves it between the resident heap and the other two and
// keeps the resident byte count; it.size (the copy's footprint) must be
// set before marking.
func (s *SpaceSaving) setResident(it *ssItem, resident bool) {
	if it.resident == resident {
		return
	}
	it.resident = resident
	if resident {
		s.cold.remove(it)
		s.hot.remove(it)
		s.residents.push(it)
		s.residentBytes += it.size
		return
	}
	s.residents.remove(it)
	s.cold.push(it)
	s.hot.push(it)
	s.residentBytes -= it.size
}

// forget drops a non-resident entry from the sketch.
func (s *SpaceSaving) forget(it *ssItem) {
	s.cold.remove(it)
	s.hot.remove(it)
	delete(s.items, it.addr)
	s.free = append(s.free, it)
}

// ClearResident records that the object at addr no longer holds a DRAM
// copy (it was demoted, or freed). Its counter is kept.
func (s *SpaceSaving) ClearResident(addr region.GAddr) {
	if it, ok := s.items[addr]; ok {
		s.setResident(it, false)
	}
}

// Len returns the number of counters currently held.
func (s *SpaceSaving) Len() int { return len(s.items) }

// Residents returns the number of entries marked resident.
func (s *SpaceSaving) Residents() int { return len(s.residents.a) }

// Total returns the total weight added since construction, halved along
// with the counters each time the sketch ages.
func (s *SpaceSaving) Total() uint64 { return s.total }

// Estimate returns the sketched weight of addr (0 if untracked).
func (s *SpaceSaving) Estimate(addr region.GAddr) uint64 {
	if it, ok := s.items[addr]; ok {
		return it.count
	}
	return 0
}

// halve ages the sketch: every counter loses half its count, and
// entries that reach zero give their counter back (a resident one
// becomes an orphan), so that stale hot sets fade.
func (s *SpaceSaving) halve() {
	s.total /= 2
	s.sinceDecay = 0
	keep := func(it *ssItem) bool {
		if it.count /= 2; it.count > 0 {
			it.err /= 2
			return true
		}
		if it.resident {
			s.orphans = append(s.orphans, it.addr)
			s.residentBytes -= it.size
		}
		delete(s.items, it.addr)
		s.free = append(s.free, it)
		return false
	}
	s.residents.rebuild(keep)
	s.cold.rebuild(keep)
	// hot holds the entries cold does, already halved.
	s.hot.rebuild(func(it *ssItem) bool { return it.count > 0 })
}
