// Package dp implements the classical exhaustive baselines the paper
// compares against: Selinger-style dynamic programming over table subsets
// for left-deep plans with cross products, plus an exhaustive permutation
// search (test oracle) and a greedy heuristic.
//
// Dynamic programming is deliberately *not* an anytime algorithm: it
// produces nothing until it finishes, which is exactly the behaviour the
// paper's Figure 2 contrasts with the MILP approach.
package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// ErrTooLarge reports that the query exceeds the subset-table budget.
var ErrTooLarge = errors.New("dp: query too large for dynamic programming")

// ErrTimeout reports that the deadline expired before DP finished. No plan
// is available in that case (DP has no anytime behaviour).
var ErrTimeout = errors.New("dp: deadline exceeded")

// Options tune the DP run.
type Options struct {
	// MaxTables guards against the 2^n memory blow-up (default 24).
	MaxTables int
	// Deadline, when nonzero, aborts the run once passed.
	Deadline time.Time
	// ChooseOperators selects the cheapest operator per join instead of
	// the Spec's fixed operator (only relevant for OperatorCost).
	ChooseOperators bool
}

func (o Options) withDefaults() Options {
	if o.MaxTables <= 0 {
		o.MaxTables = 24
	}
	return o
}

// OptimizeLeftDeep finds the cost-minimal left-deep plan (cross products
// allowed) by dynamic programming over table subsets. The subset loop
// polls the context periodically; a canceled context aborts with its error
// (DP has no anytime behaviour, so no partial plan is returned).
func OptimizeLeftDeep(ctx context.Context, q *qopt.Query, spec cost.Spec, opts Options) (*plan.Plan, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	k, card, pages, eval, err := subsetDP(ctx, q, spec, opts.MaxTables, "limit")
	if err != nil {
		return nil, 0, err
	}
	ops := []cost.Operator{spec.Op} // the cheapest of these joins
	var opOf []int8                 // per subset: ops index of its last join
	n := q.NumTables()
	size := 1 << n
	if opts.ChooseOperators && pages != nil {
		ops, opOf = cost.Operators(), make([]int8, size)
	}
	best := make([]float64, size)
	choice := make([]int32, size)
	for s := range best {
		best[s] = math.Inf(1)
		choice[s] = -1
	}

	full := size - 1
	deadlineCheck := 0
	for s := 1; s < size; s++ {
		if deadlineCheck++; deadlineCheck&0xFFFF == 0 {
			if err := interrupted(ctx, opts.Deadline); err != nil {
				return nil, 0, err
			}
		}
		if s&(s-1) == 0 {
			best[s] = 0
			continue
		}
		// Left-deep recurrence: last joined table r.
		last := s == full
		price, resultOnly := k.ResultPrice(card, s, last)
		for rest := s; rest != 0; rest &= rest - 1 {
			r := bits.TrailingZeros(uint(rest))
			sub := s &^ (1 << r)
			if math.IsInf(best[sub], 1) {
				continue
			}
			joinCost, op := price, 0
			if !resultOnly {
				joinCost = k.SplitPrice(ops[0], pages, sub, 1<<r)
				for i := 1; i < len(ops); i++ {
					if c := k.SplitPrice(ops[i], pages, sub, 1<<r); c < joinCost {
						joinCost, op = c, i
					}
				}
				if eval != nil {
					joinCost += k.SplitEval(card, eval, sub, 1<<r, s)
				}
			}
			if total := best[sub] + joinCost; total < best[s] {
				best[s] = total
				choice[s] = int32(r)
				if opOf != nil {
					opOf[s] = int8(op)
				}
			}
		}
	}

	if math.IsInf(best[full], 1) {
		return nil, 0, errors.New("dp: no plan found (internal error)")
	}

	// Reconstruct the join order, and the operators when chosen.
	pl := &plan.Plan{Order: make([]int, n)}
	if opOf != nil {
		pl.Operators = make([]cost.Operator, n-1)
	}
	s := full
	for j := n - 1; j >= 1; j-- {
		r := int(choice[s])
		pl.Order[j] = r
		if opOf != nil {
			pl.Operators[j-1] = ops[opOf[s]]
		}
		s &^= 1 << r
	}
	pl.Order[0] = bits.TrailingZeros(uint(s))
	return pl, best[full], nil
}

// ExhaustiveLeftDeep enumerates every permutation; a test oracle for small
// queries (n ≤ 9).
func ExhaustiveLeftDeep(q *qopt.Query, spec cost.Spec) (*plan.Plan, float64, error) {
	n := q.NumTables()
	if n > 9 {
		return nil, 0, fmt.Errorf("%w: exhaustive search limited to 9 tables", ErrTooLarge)
	}
	k, err := plan.NewKernel(q, spec)
	if err != nil {
		return nil, 0, err
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	bestCost := math.Inf(1)
	var bestOrder []int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if c := k.Cost(&plan.Plan{Order: perm}); c < bestCost {
				bestCost = c
				bestOrder = append([]int(nil), perm...)
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	if bestOrder == nil {
		return nil, 0, errors.New("dp: exhaustive search found no plan")
	}
	return &plan.Plan{Order: bestOrder}, bestCost, nil
}

// GreedyLeftDeep builds a plan by repeatedly appending the table that
// minimizes the next intermediate result cardinality. Linear-time
// heuristic; no optimality guarantee (used as a primal-quality yardstick).
func GreedyLeftDeep(q *qopt.Query, spec cost.Spec) (*plan.Plan, float64, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	k, err := plan.NewKernel(q, spec)
	if err != nil {
		return nil, 0, err
	}
	n := q.NumTables()
	used := make([]bool, n)

	// Start from the smallest table.
	start := 0
	for t := 1; t < n; t++ {
		if q.Tables[t].Card < q.Tables[start].Card {
			start = t
		}
	}
	order := []int{start}
	used[start] = true
	w := k.NewWalker()
	w.Place(start)

	for len(order) < n {
		bestT, bestCard := -1, math.Inf(1)
		for t := 0; t < n; t++ {
			if used[t] {
				continue
			}
			// bestT == -1 keeps the first candidate even when every
			// product has overflowed to +Inf (hundreds of tables), where
			// no strict comparison would ever pick one.
			if c := w.Peek(t); bestT == -1 || c < bestCard {
				bestT, bestCard = t, c
			}
		}
		used[bestT] = true
		order = append(order, bestT)
		w.Place(bestT)
	}

	pl := &plan.Plan{Order: order}
	return pl, k.Cost(pl), nil
}

// subsetDP checks a subset DP run against its table limit and sets up its
// tables, indexed by table subset: the kernel, the operand cardinalities,
// their page counts under operator cost, and the evaluation costs when
// joins price them. Under operator cost without evaluation costs the page
// counts overwrite the cardinalities, which no price then reads.
func subsetDP(ctx context.Context, q *qopt.Query, spec cost.Spec, limit int, kind string) (k *plan.Kernel, card, pages, eval []float64, err error) {
	if err := q.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := interrupted(ctx, time.Time{}); err != nil {
		return nil, nil, nil, nil, err
	}
	n := q.NumTables()
	if n > limit {
		return nil, nil, nil, nil, fmt.Errorf("%w: %d tables (%s %d)", ErrTooLarge, n, kind, limit)
	}
	if k, err = plan.NewKernel(q, spec); err != nil {
		return nil, nil, nil, nil, err
	}
	tables := make([]int, n)
	for i := range tables {
		tables[i] = i
	}
	card, eval = k.NewWalker().Subsets(tables)
	return k, card, k.OperandPages(card), eval, nil
}

// interrupted is why a DP must stop early, if it must: the context's
// error, or ErrTimeout past the deadline.
func interrupted(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dp: %w", err)
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return ErrTimeout
	}
	return nil
}

// buildTree reconstructs the bushy tree over subset s from split, the
// left (outer) half of each subset's best split.
func buildTree(split []int32, s int) *plan.Tree {
	if s&(s-1) == 0 {
		return plan.Leaf(bits.TrailingZeros(uint(s)))
	}
	sub := int(split[s])
	return plan.Join(buildTree(split, sub), buildTree(split, s^sub))
}
