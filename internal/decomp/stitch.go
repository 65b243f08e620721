package decomp

import (
	"math"
	"math/bits"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// quotientDPMax bounds the exact DP over partition orderings: 2^P subset
// states stay cheap up to here, and beyond it the greedy ordering takes
// over (still using the same exact incremental coster).
const quotientDPMax = 16

// maxPartitions is the stitcher's hard ceiling: partition sets are
// tracked in 64-bit masks, so the decomposer merges down to at most 64
// partitions before stitching.
const maxPartitions = 64

// event marks a predicate (or a correlated group) completing while one
// partition is appended, at the local step within that partition's
// internal order it is filed under, provided every partition in required
// was already placed. A group completes with its last predicate.
type event struct {
	idx      int // predicate or group index
	required uint64
}

// stitcher orders fixed partition-internal join orders into one global
// left-deep plan. Its incremental coster precomputes where each predicate
// and correlation group completes and prices every join with the plan
// kernel, so the cost it minimizes is the cost plan.Cost reports for the
// stitched plan.
type stitcher struct {
	q      *qopt.Query
	spec   cost.Spec
	k      *plan.Kernel
	n      int
	orders [][]int // per partition: global table ids in join order
	sizes  []int
	preds  [][][]event // [partition][step] -> completing predicates
	groups [][][]event // [partition][step] -> completing groups
}

func newStitcher(q *qopt.Query, spec cost.Spec, orders [][]int) *stitcher {
	k, _ := plan.NewKernel(q, spec) // Optimize rejected unknown metrics
	st := &stitcher{
		q:      q,
		spec:   spec,
		k:      k,
		n:      q.NumTables(),
		orders: orders,
		sizes:  make([]int, len(orders)),
	}
	partOf := make([]int, st.n)
	stepOf := make([]int, st.n)
	for p, ord := range orders {
		st.sizes[p] = len(ord)
		for j, t := range ord {
			partOf[t], stepOf[t] = p, j
		}
	}
	st.preds = make([][][]event, len(orders))
	st.groups = make([][][]event, len(orders))
	for p := range orders {
		st.preds[p] = make([][]event, len(orders[p]))
		st.groups[p] = make([][]event, len(orders[p]))
	}
	// A predicate completes while partition p is appended iff p holds one
	// of its tables and all its other partitions are already placed; the
	// step is the last of its tables inside p. Register one event per
	// candidate "last partition" — exactly one fires per append chain.
	predMask := make([]uint64, len(q.Predicates))
	for pi, pred := range q.Predicates {
		var pmask uint64
		for _, t := range pred.Tables {
			pmask |= 1 << uint(partOf[t])
		}
		predMask[pi] = pmask
		for m := pmask; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			last := 0
			for _, t := range pred.Tables {
				if partOf[t] == p && stepOf[t] > last {
					last = stepOf[t]
				}
			}
			st.preds[p][last] = append(st.preds[p][last], event{pi, pmask &^ (1 << uint(p))})
		}
	}
	for gi, g := range q.Correlated {
		var gmask uint64
		for _, pi := range g.Predicates {
			gmask |= predMask[pi]
		}
		for m := gmask; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			last := 0
			for _, pi := range g.Predicates {
				if predMask[pi]&(1<<uint(p)) == 0 {
					continue
				}
				for _, t := range q.Predicates[pi].Tables {
					if partOf[t] == p && stepOf[t] > last {
						last = stepOf[t]
					}
				}
			}
			st.groups[p][last] = append(st.groups[p][last], event{gi, gmask &^ (1 << uint(p))})
		}
	}
	return st
}

// appendCost walks partition p's internal order appended after the
// partitions in placedMask (placed tables so far, entry cardinality card)
// and returns the added plan cost plus the new running cardinality. As in
// plan.Evaluate, the first global table is no join and enters the first
// join raw, which bills the evaluation of its predicates; when the first
// partition was a single table, that pending cost is rebuilt here (it is a
// function of the mask alone, so DP states stay valid).
func (st *stitcher) appendCost(placedMask uint64, p int, card float64, placed int) (float64, float64) {
	var add, eval, first float64
	if placed == 1 {
		p0 := bits.TrailingZeros64(placedMask)
		first = st.q.Tables[st.orders[p0][0]].Card
		for _, ev := range st.preds[p0][0] {
			if ev.required == 0 {
				eval += st.q.Predicates[ev.idx].EvalCostPerTuple
			}
		}
	}
	for j, t := range st.orders[p] {
		tcard := st.q.Tables[t].Card
		outer, res := card, tcard
		if placed+j == 1 {
			outer = first
		}
		if placed+j > 0 {
			res = card * tcard
		}
		for _, ev := range st.preds[p][j] {
			if ev.required&^placedMask == 0 {
				res *= st.q.Predicates[ev.idx].Sel
				eval += st.q.Predicates[ev.idx].EvalCostPerTuple
			}
		}
		for _, ev := range st.groups[p][j] {
			if ev.required&^placedMask == 0 {
				res *= st.q.Correlated[ev.idx].CorrectionSel
			}
		}
		if placed+j == 0 {
			first = tcard // the plan's first table: no join yet
		} else {
			add += st.k.Price(st.spec.Op, outer, tcard, res, eval, placed+j+1 == st.n)
			eval = 0
		}
		card = res
	}
	return add, card
}

// orderDP finds the exact-cost-minimal partition ordering by DP over
// partition subsets (cardinality per subset is order-independent, so the
// state is just the mask). Returns ok=false when the deadline expires
// mid-search; the caller falls back to orderGreedy.
func (st *stitcher) orderDP(deadline time.Time) ([]int, bool) {
	P := len(st.orders)
	full := uint64(1)<<uint(P) - 1
	costs := make([]float64, full+1)
	cards := make([]float64, full+1)
	parent := make([]int8, full+1)
	placedOf := make([]int, full+1)
	for m := uint64(1); m <= full; m++ {
		costs[m] = math.Inf(1)
		parent[m] = -1
		low := bits.TrailingZeros64(m)
		placedOf[m] = placedOf[m&(m-1)] + st.sizes[low]
	}
	checkEvery := 0
	for mask := uint64(0); mask < full; mask++ {
		if costs[mask] == math.Inf(1) && mask != 0 {
			continue
		}
		if checkEvery++; checkEvery&1023 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return nil, false
		}
		for p := 0; p < P; p++ {
			bit := uint64(1) << uint(p)
			if mask&bit != 0 {
				continue
			}
			add, ncard := st.appendCost(mask, p, cards[mask], placedOf[mask])
			nm := mask | bit
			if nc := costs[mask] + add; nc < costs[nm] {
				costs[nm] = nc
				cards[nm] = ncard
				parent[nm] = int8(p)
			}
		}
	}
	order := make([]int, 0, P)
	for m := full; m != 0; {
		p := int(parent[m])
		if p < 0 {
			// Every path overflowed to +Inf, so no parent chain exists;
			// the greedy fallback still produces a deterministic order.
			return nil, false
		}
		order = append(order, p)
		m &^= uint64(1) << uint(p)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, true
}

// orderGreedy picks, at every step, the unplaced partition with the
// cheapest exact incremental cost (ties on the lower index) — the
// fallback when the quotient is too large or the DP ran out of budget.
func (st *stitcher) orderGreedy() []int {
	P := len(st.orders)
	var (
		mask   uint64
		card   float64
		placed int
		order  []int
	)
	for len(order) < P {
		best, bestAdd, bestCard := -1, math.Inf(1), 0.0
		for p := 0; p < P; p++ {
			if mask&(uint64(1)<<uint(p)) != 0 {
				continue
			}
			add, ncard := st.appendCost(mask, p, card, placed)
			// best == -1 keeps the first candidate even when every
			// appended cost has overflowed to +Inf, where no strict
			// comparison would ever pick one.
			if best == -1 || add < bestAdd {
				best, bestAdd, bestCard = p, add, ncard
			}
		}
		order = append(order, best)
		mask |= 1 << uint(best)
		card = bestCard
		placed += st.sizes[best]
	}
	return order
}

// concat builds the global join order for a partition ordering.
func (st *stitcher) concat(partOrder []int) []int {
	out := make([]int, 0, st.n)
	for _, p := range partOrder {
		out = append(out, st.orders[p]...)
	}
	return out
}
