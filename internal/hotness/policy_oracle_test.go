package hotness

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gengar/internal/region"
)

// Counted is one sketch entry as the oracle sees it.
type Counted struct {
	Addr  region.GAddr
	Count uint64
	Err   uint64
}

// Top returns up to n entries sorted by descending count (ties by
// address). It is the full sort the planner no longer needs; the oracle
// and the sketch's own tests still read the sketch through it.
func (s *SpaceSaving) Top(n int) []Counted {
	out := make([]Counted, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, Counted{Addr: it.addr, Count: it.count, Err: it.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// oraclePlan is the planner this package shipped before Rebalance,
// unchanged: rank every sketch entry with incumbents boosted, sort, fill
// the budget greedily from the top (skipping what does not fit), and
// diff the result against the promoted set. skipped reports whether the
// greedy walk passed over a candidate that could have been cached
// (positive size, not larger than the budget) and still took a colder
// one afterwards — the one thing Rebalance, which ends its round at the
// first challenger that does not get in, decides differently.
func oraclePlan(p Policy, sketch *SpaceSaving, sizeOf func(region.GAddr) int64, promoted map[region.GAddr]bool) (promote, demote []region.GAddr, skipped bool) {
	type cand struct {
		addr region.GAddr
		rank float64
		size int64
	}
	hys := p.Hysteresis
	if hys < 1 {
		hys = 1
	}

	// Rank every sketch entry, boosting incumbents.
	var cands []cand
	for _, c := range sketch.Top(-1) {
		if c.Count < p.MinWeight {
			continue
		}
		size := sizeOf(c.Addr)
		if size <= 0 {
			continue
		}
		rank := float64(c.Count)
		if promoted[c.Addr] {
			rank *= hys
		}
		cands = append(cands, cand{addr: c.Addr, rank: rank, size: size})
	}
	// Re-sort by boosted rank, keeping the deterministic address
	// tie-break from Top.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rank != cands[j].rank {
			return cands[i].rank > cands[j].rank
		}
		return cands[i].addr < cands[j].addr
	})

	target := make(map[region.GAddr]bool, len(cands))
	var used int64
	passed := false
	for _, c := range cands {
		if used+c.size > p.BudgetBytes {
			passed = passed || c.size <= p.BudgetBytes
			continue // try smaller objects further down
		}
		skipped = skipped || passed
		target[c.addr] = true
		used += c.size
	}

	for _, c := range cands {
		if target[c.addr] && !promoted[c.addr] {
			promote = append(promote, c.addr)
		}
	}
	for addr := range promoted {
		if !target[addr] {
			demote = append(demote, addr)
		}
	}
	// Demote coldest-first so a capped plan sheds the least valuable
	// copies; ties break by address for determinism.
	sort.Slice(demote, func(i, j int) bool {
		wi, wj := sketch.Estimate(demote[i]), sketch.Estimate(demote[j])
		if wi != wj {
			return wi < wj
		}
		return demote[i] < demote[j]
	})
	if p.MaxChurn > 0 {
		if len(promote) > p.MaxChurn {
			promote = promote[:p.MaxChurn]
		}
		if len(demote) > p.MaxChurn {
			demote = demote[:p.MaxChurn]
		}
	}
	return promote, demote, skipped
}

// scenario is one random planning problem: a stream folded into a
// sketch, a promoted set, object sizes (some freed), and a budget.
type scenario struct {
	seed     int64
	k        int
	objects  int
	mixed    bool
	sizes    map[region.GAddr]int64
	promoted map[region.GAddr]bool
	budget   int64
}

func newScenario(seed int64) *scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{
		seed:     seed,
		k:        []int{8, 32, 128}[rng.Intn(3)],
		objects:  20 + rng.Intn(200),
		mixed:    rng.Intn(2) == 0,
		sizes:    make(map[region.GAddr]int64),
		promoted: make(map[region.GAddr]bool),
	}
	unit := int64(64) << rng.Intn(5)
	var total int64
	for i := 0; i < sc.objects; i++ {
		size := unit
		if sc.mixed {
			size = 64 << rng.Intn(6)
		}
		if rng.Intn(20) == 0 {
			size = 0 // freed since it was last accessed
		}
		sc.sizes[ga(int64(i)*4096)] = size
		total += size
	}
	// The promoted set: objects the stream below will and will not reach,
	// some of them freed, some the sketch will never have heard of.
	for n := rng.Intn(sc.k); n > 0; n-- {
		sc.promoted[ga(int64(rng.Intn(sc.objects+4))*4096)] = true
	}
	var held int64
	for a := range sc.promoted {
		held += sc.sizes[a]
	}
	// Budgets around the interesting edges: nothing, exactly what is
	// held (one byte less, one object more), a fraction, everything.
	switch rng.Intn(6) {
	case 0:
		sc.budget = 0
	case 1:
		sc.budget = held
	case 2:
		sc.budget = max(held-1, 0)
	case 3:
		sc.budget = held + unit
	case 4:
		sc.budget = total / int64(2+rng.Intn(6))
	default:
		sc.budget = total
	}
	return sc
}

// sketch replays the scenario's stream into a fresh sketch, so the
// oracle and the planner each get their own copy of the same state.
func (sc *scenario) sketch() *SpaceSaving {
	rng := rand.New(rand.NewSource(sc.seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(sc.objects-1))
	s := NewSpaceSaving(sc.k)
	for i := 0; i < 40*sc.k; i++ {
		s.Add(ga(int64(zipf.Uint64())*4096), uint64(1+rng.Intn(3)))
	}
	return s
}

func (sc *scenario) sizeOf(a region.GAddr) int64 { return sc.sizes[a] }

// roomAfter returns the budget left once promote is in and demote is
// out, plus what demoting the n coldest copies still held would free.
func (sc *scenario) roomAfter(ref *SpaceSaving, promote, demote []region.GAddr, n int) int64 {
	room := sc.budget
	for _, a := range promote {
		room -= sc.sizes[a]
	}
	out := set(demote)
	var kept []region.GAddr
	for a := range sc.promoted {
		if !out[a] {
			room -= sc.sizes[a]
			kept = append(kept, a)
		}
	}
	slices.SortFunc(kept, func(x, y region.GAddr) int {
		if wx, wy := ref.Estimate(x), ref.Estimate(y); wx != wy {
			return cmp.Compare(wx, wy)
		}
		return cmp.Compare(y, x)
	})
	for _, a := range kept[:min(n, len(kept))] {
		room += sc.sizes[a]
	}
	return room
}

func (sc *scenario) String() string {
	return fmt.Sprintf("seed %d (k %d, %d objects, mixed %v, %d promoted, budget %d)",
		sc.seed, sc.k, sc.objects, sc.mixed, len(sc.promoted), sc.budget)
}

func set(addrs []region.GAddr) map[region.GAddr]bool {
	m := make(map[region.GAddr]bool, len(addrs))
	for _, a := range addrs {
		m[a] = true
	}
	return m
}

func sameSet(x, y []region.GAddr) bool {
	sx, sy := set(x), set(y)
	if len(sx) != len(x) || len(sy) != len(y) || len(sx) != len(sy) {
		return false
	}
	for a := range sx {
		if !sy[a] {
			return false
		}
	}
	return true
}

// TestRebalanceAgreesWithSortingOracle holds the incremental planner to
// the sort-based one it replaced, on random sketches.
//
// Everywhere: the plan is deterministic, promotes only live objects of
// at least MinWeight that are not promoted yet, hottest first; demotes
// only promoted objects, the ones with no heat left (freed, or unknown
// to the sketch) first and the rest coldest first; respects MaxChurn;
// leaves the promoted set within the budget whenever the oracle's does;
// and every promoted object it keeps while promoting a challenger is one
// that challenger does not outrank.
//
// With unlimited churn, and whenever the oracle's greedy walk never took
// a colder object after passing over one that did not fit, the two
// plans are the same sets. (When it did, the oracle packed a small cold
// object behind a large hot one; Rebalance ends its round there.) With
// MaxChurn 16 the promotions are the same objects in the same order,
// and the demotions are a coldest-first part of the uncapped oracle's —
// never more than the promotions need, where the oracle sheds up to 16
// whether or not they do.
func TestRebalanceAgreesWithSortingOracle(t *testing.T) {
	scenarios := 600
	if testing.Short() {
		scenarios = 150
	}
	exact, exactMixed := 0, 0
	for seed := int64(1); seed <= int64(scenarios); seed++ {
		sc := newScenario(seed)
		for _, churn := range []int{0, 16} {
			for _, hys := range []float64{1, 1.5} {
				p := Policy{BudgetBytes: sc.budget, MinWeight: 4, Hysteresis: hys, MaxChurn: churn}
				name := fmt.Sprintf("%v churn %d hysteresis %v", sc, churn, hys)

				ref := sc.sketch()
				wantP, wantD, skipped := oraclePlan(p, ref, sc.sizeOf, sc.promoted)
				uncapped := p
				uncapped.MaxChurn = 0
				allP, allD, _ := oraclePlan(uncapped, ref, sc.sizeOf, sc.promoted)

				gotP, gotD := p.Plan(sc.sketch(), sc.sizeOf, sc.promoted)
				againP, againD := p.Plan(sc.sketch(), sc.sizeOf, sc.promoted)
				if !slices.Equal(gotP, againP) || !slices.Equal(gotD, againD) {
					t.Fatalf("%s: not deterministic: +%v -%v then +%v -%v", name, gotP, gotD, againP, againD)
				}
				checkPlanInvariants(t, name, p, sc, ref, gotP, gotD)

				if skipped {
					continue
				}
				exact++
				if sc.mixed {
					exactMixed++
				}
				if churn == 0 {
					if !sameSet(gotP, wantP) || !sameSet(gotD, wantD) {
						t.Fatalf("%s: plan +%v -%v, oracle +%v -%v", name, gotP, gotD, wantP, wantD)
					}
					continue
				}
				// Capped: the same promotions in the same order — short
				// of the oracle's only where the demotion cap left no room
				// for the next one — and no demotion the oracle would not
				// make with the cap lifted.
				capped := allP[:min(len(allP), churn)]
				if len(gotP) > len(capped) || !slices.Equal(gotP, capped[:len(gotP)]) {
					t.Fatalf("%s: promotions %v, oracle %v", name, gotP, capped)
				}
				if len(gotP) < len(capped) {
					if next := capped[len(gotP)]; sc.roomAfter(ref, gotP, gotD, churn-len(gotD)) >= sc.sizes[next] {
						t.Fatalf("%s: stopped at %v, which fits: +%v -%v, oracle +%v", name, next, gotP, gotD, capped)
					}
				}
				all := set(allD)
				for _, a := range gotD {
					if !all[a] {
						t.Fatalf("%s: demotes %v, which the uncapped oracle keeps (-%v)", name, a, allD)
					}
				}
			}
		}
	}
	// The comparison must not quietly degrade to the invariants alone.
	t.Logf("%d of %d plans compared set for set (%d with mixed sizes)", exact, scenarios*4, exactMixed)
	if exact < scenarios*4*3/4 || exactMixed < scenarios*4/5 {
		t.Fatalf("only %d of %d plans compared set for set (%d with mixed sizes)", exact, scenarios*4, exactMixed)
	}
}

func checkPlanInvariants(t *testing.T, name string, p Policy, sc *scenario, ref *SpaceSaving, promote, demote []region.GAddr) {
	t.Helper()
	if p.MaxChurn > 0 && (len(promote) > p.MaxChurn || len(demote) > p.MaxChurn) {
		t.Fatalf("%s: MaxChurn exceeded: +%d -%d", name, len(promote), len(demote))
	}
	seen := make(map[region.GAddr]bool)
	for i, a := range promote {
		if seen[a] || sc.promoted[a] || sc.sizes[a] <= 0 || ref.Estimate(a) < p.MinWeight {
			t.Fatalf("%s: bad promotion %v (size %d, weight %d)", name, a, sc.sizes[a], ref.Estimate(a))
		}
		seen[a] = true
		if i > 0 && ref.Estimate(promote[i-1]) < ref.Estimate(a) {
			t.Fatalf("%s: promotions not hottest first: %v", name, promote)
		}
	}
	// Demotions: first the copies with no heat on record, by address;
	// then incumbents coldest first.
	heatless := func(a region.GAddr) bool { return sc.sizes[a] <= 0 || ref.Estimate(a) == 0 }
	live := false
	for i, a := range demote {
		if seen[a] || !sc.promoted[a] {
			t.Fatalf("%s: bad demotion %v", name, a)
		}
		seen[a] = true
		if !heatless(a) {
			if live && ref.Estimate(demote[i-1]) > ref.Estimate(a) {
				t.Fatalf("%s: demotions not coldest first: %v", name, demote)
			}
			live = true
		} else if live {
			t.Fatalf("%s: heatless copy %v demoted after a live one: %v", name, a, demote)
		}
	}
	// Budget: what stays plus what comes must fit, unless the churn cap
	// stopped the demotions short of it.
	dem := set(demote)
	var used int64
	coldestKept := ^uint64(0)
	for a := range sc.promoted {
		if !dem[a] {
			used += sc.sizes[a]
			if w := ref.Estimate(a); !heatless(a) && w < coldestKept {
				coldestKept = w
			}
		}
	}
	for _, a := range promote {
		used += sc.sizes[a]
	}
	if used > p.BudgetBytes && (p.MaxChurn == 0 || len(demote) < p.MaxChurn) {
		t.Fatalf("%s: %d bytes promoted, budget %d", name, used, p.BudgetBytes)
	}
	// No demoted incumbent is hotter than one that was kept.
	for _, a := range demote {
		if !heatless(a) && ref.Estimate(a) > coldestKept {
			t.Fatalf("%s: demoted %v (weight %d) but kept a copy of weight %d", name, a, ref.Estimate(a), coldestKept)
		}
	}
}
