package dp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// ErrNoneBetter reports that the DPconv search proved no bushy plan beats
// the caller-supplied cutoff: every partial plan was pruned against it, so
// the incumbent the cutoff tracks is optimal over the bushy plan space.
// Portfolio callers treat this as a proof of optimality for the racing
// incumbent rather than a failure.
var ErrNoneBetter = errors.New("dp: no plan better than cutoff")

// ConvOptions extend Options with the anytime hooks of the DPconv-style
// layered search.
type ConvOptions struct {
	Options
	// Cutoff, when non-nil, returns the exact cost of the best plan known
	// so far from outside the search (for example a racing portfolio
	// peer's incumbent). Layers re-read it and prune every subset whose
	// best partial cost already reaches it: join costs are monotone
	// non-negative, so no completion of a pruned subset can beat the
	// cutoff. When the full set is pruned away entirely the search
	// returns ErrNoneBetter — a proof that the cutoff incumbent is
	// optimal. +Inf (or a nil hook) disables pruning.
	Cutoff func() float64
}

// OptimizeConv finds the cost-minimal bushy join tree with the layered
// DPconv-style enumeration (arXiv:2409.08013): subsets are processed in
// layers of increasing cardinality, splits are canonicalised to the half
// containing the subset's lowest table so each unordered partition is
// priced once (both orientations are priced under asymmetric operator
// costs), and an optional live cutoff prunes dominated layers — giving the
// exact DP an anytime interface. Cardinalities come from the plan
// kernel's subset recurrence, as in OptimizeBushy, so both searches agree
// exactly on every subset and, with no cutoff, on the optimal plan and
// cost.
func OptimizeConv(ctx context.Context, q *qopt.Query, spec cost.Spec, opts ConvOptions) (*plan.Tree, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Options = opts.Options.withDefaults()
	if opts.MaxTables > 20 {
		opts.MaxTables = 20 // layered split enumeration is still Θ(3^n)
	}
	k, card, pages, eval, err := subsetDP(ctx, q, spec, opts.MaxTables, "bushy limit")
	if err != nil {
		return nil, 0, err
	}

	n := q.NumTables()
	size := 1 << n
	best := make([]float64, size)
	split := make([]int32, size) // left subset of the best split; 0 for leaves
	for s := range best {
		best[s] = math.Inf(1)
	}
	for t := 0; t < n; t++ {
		best[1<<t] = 0
	}

	full := size - 1
	pruned := false
	check := 0
	for layer := 2; layer <= n; layer++ {
		// Re-read the cutoff once per layer: tight enough to benefit
		// from racing incumbents, cheap enough to keep the inner loop
		// branch-free of callbacks. The epsilon keeps a plan that ties
		// the cutoff prunable — equality is not an improvement.
		cut := math.Inf(1)
		if opts.Cutoff != nil {
			if c := opts.Cutoff(); c < math.Inf(1) {
				cut = c * (1 + 1e-9)
			}
		}
		for s := (1 << layer) - 1; s < size; s = nextSubsetSameCount(s) {
			if check++; check&0x3FFF == 0 {
				if err := interrupted(ctx, opts.Deadline); err != nil {
					return nil, 0, err
				}
			}
			// Canonical splits: the half containing the lowest table.
			// Each unordered partition is enumerated exactly once; both
			// orientations are priced unless the price depends on the
			// result alone.
			bit := s & -s
			prev := s &^ bit
			price, resultOnly := k.ResultPrice(card, s, s == full)
			for low := (prev - 1) & prev; ; low = (low - 1) & prev {
				sub := low | bit
				rest := s ^ sub // never empty: low is a proper subset of prev
				if math.IsInf(best[sub], 1) || math.IsInf(best[rest], 1) {
					if low == 0 {
						break
					}
					continue
				}
				base := best[sub] + best[rest]
				if resultOnly {
					if total := base + price; total < best[s] {
						best[s] = total
						split[s] = int32(sub)
					}
				} else {
					subOuter := k.SplitPrice(spec.Op, pages, sub, rest)
					restOuter := k.SplitPrice(spec.Op, pages, rest, sub)
					if eval != nil {
						subOuter += k.SplitEval(card, eval, sub, rest, s)
						restOuter += k.SplitEval(card, eval, rest, sub, s)
					}
					if total := base + subOuter; total < best[s] {
						best[s] = total
						split[s] = int32(sub)
					}
					if total := base + restOuter; total < best[s] {
						best[s] = total
						split[s] = int32(rest)
					}
				}
				if low == 0 {
					break
				}
			}
			if best[s] >= cut {
				best[s] = math.Inf(1)
				pruned = true
			}
		}
	}

	if math.IsInf(best[full], 1) {
		if pruned {
			return nil, 0, ErrNoneBetter
		}
		return nil, 0, fmt.Errorf("dp: conv search found no plan (internal error)")
	}

	return buildTree(split, full), best[full], nil
}

// nextSubsetSameCount returns the next-larger integer with the same
// popcount (Gosper's hack) — the layer iterator of the DPconv enumeration.
func nextSubsetSameCount(s int) int {
	c := s & -s
	r := s + c
	return (((r ^ s) >> 2) / c) | r
}
