package dp

import (
	"context"
	"fmt"
	"math"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// OptimizeBushy finds the cost-minimal bushy join tree (cross products
// allowed) by dynamic programming over table subsets, enumerating every
// split of each subset — the O(3^n) DPsub algorithm of Moerkotte & Neumann
// that the paper cites. It measures what the left-deep restriction costs.
// The subset loop polls the context; a canceled context aborts with its
// error.
func OptimizeBushy(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Tree, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if opts.MaxTables > 20 {
		opts.MaxTables = 20 // 3^n split enumeration is far steeper than 2^n
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

	full := size - 1
	check := 0
	for s := 1; s < size; s++ {
		if check++; check&0x3FFF == 0 {
			if err := interrupted(ctx, opts.Deadline); err != nil {
				return nil, 0, err
			}
		}
		if s&(s-1) == 0 {
			best[s] = 0
			continue
		}
		// Enumerate proper splits; (sub, s^sub) and its mirror are both
		// visited, which is fine because join cost here is symmetric
		// only for C_out — operator costs distinguish outer/inner.
		price, resultOnly := k.ResultPrice(card, s, s == full)
		for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
			rest := s ^ sub
			if math.IsInf(best[sub], 1) || math.IsInf(best[rest], 1) {
				continue
			}
			joinCost := price
			if !resultOnly {
				joinCost = k.SplitPrice(spec.Op, pages, sub, rest)
				if eval != nil {
					joinCost += k.SplitEval(card, eval, sub, rest, s)
				}
			}
			if total := best[sub] + best[rest] + joinCost; total < best[s] {
				best[s] = total
				split[s] = int32(sub)
			}
		}
	}

	if math.IsInf(best[full], 1) {
		return nil, 0, fmt.Errorf("dp: bushy search found no plan (internal error)")
	}

	return buildTree(split, full), best[full], nil
}
