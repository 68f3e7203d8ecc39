package hotness

import (
	"math"
	"slices"

	"gengar/internal/region"
)

// Policy decides, at each epoch boundary, which objects move between the
// NVM pool and the distributed DRAM buffers.
type Policy struct {
	// BudgetBytes is the total DRAM buffer capacity available for
	// promoted objects.
	BudgetBytes int64
	// MinWeight is the minimum sketched weight for an object to be
	// considered hot at all; filters one-touch objects.
	MinWeight uint64
	// Hysteresis boosts incumbents' weights by this factor when ranking,
	// so a challenger must be clearly hotter to displace a promoted
	// object. Values <= 1 disable hysteresis. A typical value is 1.25.
	Hysteresis float64
	// MaxChurn caps the promotions and the demotions per plan. Near the
	// budget boundary, zipfian-tail objects have statistically
	// indistinguishable weights and would otherwise swap places every
	// epoch, paying copy installs and epoch bumps for no benefit.
	// Zero means unlimited.
	MaxChurn int
}

// DefaultPolicy returns the promotion policy used by Gengar servers
// unless overridden: displacement requires a 25 % hotter challenger and
// at least 4 recorded accesses.
func DefaultPolicy(budgetBytes int64) Policy {
	return Policy{BudgetBytes: budgetBytes, MinWeight: 4, Hysteresis: 1.25}
}

// outranks reports whether challenger c displaces incumbent w: its
// weight must exceed the incumbent's boosted by the hysteresis factor
// (ties go to the lower address).
func outranks(c, w *ssItem, hysteresis float64) bool {
	cr, wr := float64(c.count), float64(w.count)*hysteresis
	if cr != wr {
		return cr > wr
	}
	return c.addr < w.addr
}

// Rebalance runs one promotion round on the sketch's resident marks and
// appends the objects that have to move to promote (hottest first) and
// demote (coldest first). The sketch already reflects the moves when it
// returns; the caller carries them out and takes back, with
// ClearResident, any promotion it could not perform.
//
// Orphans and incumbents that fell below MinWeight or no longer fit the
// budget are demoted. Then the strongest challenger of at least
// MinWeight is promoted for as long as it fits the free budget, or fits
// once incumbents it outranks are demoted, coldest first; the round
// ends at the first challenger that does neither, or after MaxChurn
// moves in either direction. The cost is O(log k) per object moved and
// nothing is allocated once the two slices have grown to MaxChurn.
//
// sizeOf must return the footprint of an object's copy in bytes, or a
// non-positive value if the object no longer exists. Challengers that
// no longer exist, or are larger than the whole budget, can never be
// cached and are dropped from the sketch.
func (p Policy) Rebalance(s *SpaceSaving, sizeOf func(region.GAddr) int64, promote, demote []region.GAddr) ([]region.GAddr, []region.GAddr) {
	hys := math.Max(p.Hysteresis, 1)
	maxPromote, maxDemote := math.MaxInt, math.MaxInt
	if p.MaxChurn > 0 {
		maxPromote, maxDemote = len(promote)+p.MaxChurn, len(demote)+p.MaxChurn
	}

	n := min(len(s.orphans), maxDemote-len(demote))
	demote = append(demote, s.orphans[:n]...)
	s.orphans = s.orphans[:copy(s.orphans, s.orphans[n:])]
	for len(demote) < maxDemote {
		w := s.residents.top()
		if w == nil || (w.count >= p.MinWeight && s.residentBytes <= p.BudgetBytes) {
			break
		}
		demote = append(demote, w.addr)
		s.setResident(w, false)
	}

	for len(promote) < maxPromote {
		c := s.hot.top()
		if c == nil || c.count < p.MinWeight {
			break
		}
		c.size = sizeOf(c.addr)
		if c.size <= 0 || c.size > p.BudgetBytes {
			s.forget(c)
			continue
		}
		evicted := len(demote)
		for s.residentBytes+c.size > p.BudgetBytes && len(demote) < maxDemote {
			w := s.residents.top()
			if w == nil || !outranks(c, w, hys) {
				break
			}
			demote = append(demote, w.addr)
			s.setResident(w, false)
		}
		if s.residentBytes+c.size > p.BudgetBytes {
			// c does not get in: the incumbents it would have displaced stay.
			for _, a := range demote[evicted:] {
				s.setResident(s.items[a], true)
			}
			demote = demote[:evicted]
			break
		}
		promote = append(promote, c.addr)
		s.setResident(c, true)
	}
	return promote, demote
}

// Plan computes the promotions and demotions that move the promoted set
// toward the budgeted hottest set from the sketch: Rebalance, for
// callers that keep the promoted set themselves. It costs O(len(promoted))
// on top of the round, marks the sketch, and drops from it what
// Rebalance drops.
//
// sizeOf must return the object's size in bytes, or a non-positive value
// if the object no longer exists (it is then skipped for promotion, and
// demoted if currently promoted). The returned slices are disjoint and
// deterministic for a given sketch state.
func (p Policy) Plan(sketch *SpaceSaving, sizeOf func(region.GAddr) int64, promoted map[region.GAddr]bool) (promote, demote []region.GAddr) {
	sketch.syncResidents(sizeOf, promoted)
	return p.Rebalance(sketch, sizeOf, nil, nil)
}

// syncResidents makes the sketch's resident marks say what promoted
// says. Promoted objects the sketch does not track, or that no longer
// exist, become the round's orphans.
func (s *SpaceSaving) syncResidents(sizeOf func(region.GAddr) int64, promoted map[region.GAddr]bool) {
	var gone []*ssItem
	for _, it := range s.residents.a {
		if !promoted[it.addr] {
			gone = append(gone, it)
		}
	}
	for _, it := range gone {
		s.setResident(it, false)
	}
	s.orphans = s.orphans[:0]
	for addr, is := range promoted {
		if !is {
			continue
		}
		it, size := s.items[addr], sizeOf(addr)
		switch {
		case it == nil || size <= 0:
			s.orphans = append(s.orphans, addr)
			if it != nil {
				s.setResident(it, false)
			}
		case !it.resident:
			it.size = size
			s.setResident(it, true)
		}
	}
	slices.Sort(s.orphans)
}
