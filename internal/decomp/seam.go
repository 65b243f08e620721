package decomp

import (
	"math"
	"math/bits"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// seamWindow is the width of the re-optimized windows: 2^w subset states
// per window keeps each window solve in the tens of microseconds.
const seamWindow = 10

// seamOptimize polishes a stitched global join order by exact DP over
// sliding windows: the tables inside a window are reordered optimally
// while everything outside stays fixed. Because a left-deep plan's cost
// at every position is a function of the table SET placed so far, the
// prefix and suffix costs are invariant under any permutation of the
// window, so minimizing the window's own contribution minimizes the plan.
//
// The first pass centers windows on the partition seams (boundaries);
// later passes slide across the whole order until a pass finds nothing or
// the deadline expires. onImproved (optional) fires with the full updated
// order after every improving window. Returns the final order and whether
// any improvement was found.
func seamOptimize(q *qopt.Query, spec cost.Spec, order []int, boundaries []int, deadline time.Time, onImproved func([]int)) ([]int, bool) {
	n := len(order)
	w := seamWindow
	if w > n {
		w = n
	}
	sw, err := newSeamWalker(q, spec)
	if w < 2 || err != nil {
		return order, false
	}
	improvedAny := false
	expired := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	runWindow := func(s int) bool {
		if expired() {
			return false
		}
		return sw.improveWindow(order, s, w)
	}

	// Seam-centered pass first: cut-edge predicates concentrate there.
	for _, b := range boundaries {
		s := b - w/2
		if s < 0 {
			s = 0
		}
		if s > n-w {
			s = n - w
		}
		if runWindow(s) {
			improvedAny = true
			if onImproved != nil {
				onImproved(order)
			}
		}
		if expired() {
			return order, improvedAny
		}
	}
	// Sliding passes until a full pass is dry.
	step := w / 2
	if step < 1 {
		step = 1
	}
	for {
		passImproved := false
		for s := 0; s <= n-w; s += step {
			if runWindow(s) {
				passImproved = true
				improvedAny = true
				if onImproved != nil {
					onImproved(order)
				}
			}
			if expired() {
				return order, improvedAny
			}
		}
		if !passImproved {
			return order, improvedAny
		}
	}
}

// seamWalker holds the per-query state reused across windows.
type seamWalker struct {
	q    *qopt.Query
	spec cost.Spec
	k    *plan.Kernel
	w    *plan.Walker
	n    int
}

func newSeamWalker(q *qopt.Query, spec cost.Spec) (*seamWalker, error) {
	k, err := plan.NewKernel(q, spec)
	if err != nil {
		return nil, err
	}
	return &seamWalker{q: q, spec: spec, k: k, w: k.NewWalker(), n: q.NumTables()}, nil
}

// window is the DP context for one [s, s+w) slice of a fixed order.
type window struct {
	sw   *seamWalker
	s, w int
	win  []int // window tables by position
	// F[sub] is the operand cardinality of prefix ∪ {window tables in
	// sub} — a pure set function from the kernel's subset recurrence —
	// and E[sub] its evaluation-cost table (nil unless joins price it).
	F, E []float64
}

// buildWindow walks the prefix order[:s] and runs the subset recurrence
// over order[s:s+w] on top of it.
func (sw *seamWalker) buildWindow(order []int, s, w int) *window {
	sw.w.Reset()
	for _, t := range order[:s] {
		sw.w.Place(t)
	}
	wd := &window{sw: sw, s: s, w: w, win: order[s : s+w]}
	wd.F, wd.E = sw.w.Subsets(wd.win)
	return wd
}

// stepCost prices the join of window table t (a position) into
// prefix ∪ prev; placing the very first table of the plan is free.
func (wd *window) stepCost(prev uint32, t int) float64 {
	sw := wd.sw
	sub := prev | 1<<uint(t)
	placed := wd.s + bits.OnesCount32(prev)
	if placed == 0 {
		return 0
	}
	var e float64
	if wd.E != nil {
		e = wd.E[sub] - wd.E[prev]
	}
	return sw.k.Price(sw.spec.Op, wd.F[prev], sw.q.Tables[wd.win[t]].Card, wd.F[sub], e, placed+1 == sw.n)
}

// walkCost prices the window along its current position order — the
// baseline the DP must beat.
func (wd *window) walkCost() float64 {
	total := 0.0
	var sub uint32
	for j := range wd.win {
		total += wd.stepCost(sub, j)
		sub |= 1 << uint(j)
	}
	return total
}

// improveWindow re-optimizes order[s:s+w] in place; reports improvement.
func (sw *seamWalker) improveWindow(order []int, s, w int) bool {
	wd := sw.buildWindow(order, s, w)
	curCost := wd.walkCost()

	full := uint32(1)<<uint(w) - 1
	best := make([]float64, full+1)
	parent := make([]int8, full+1)
	for sub := uint32(1); sub <= full; sub++ {
		best[sub] = math.Inf(1)
		for m := sub; m != 0; m &= m - 1 {
			t := bits.TrailingZeros32(m)
			prev := sub &^ (1 << uint(t))
			if c := best[prev] + wd.stepCost(prev, t); c < best[sub] {
				best[sub] = c
				parent[sub] = int8(t)
			}
		}
	}
	if !(best[full] < curCost && curCost-best[full] > 1e-9*math.Max(1, math.Abs(curCost))) {
		return false
	}
	perm := make([]int, 0, w)
	for sub := full; sub != 0; {
		t := int(parent[sub])
		perm = append(perm, t)
		sub &^= 1 << uint(t)
	}
	tables := make([]int, w)
	for i, j := 0, len(perm)-1; j >= 0; i, j = i+1, j-1 {
		tables[i] = wd.win[perm[j]]
	}
	copy(order[s:s+w], tables)
	return true
}
