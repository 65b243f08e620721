// Package plan represents join plans and prices them exactly (without the
// linear approximations the MILP encoder uses). One Kernel per (query,
// Spec) holds the cost model; every exact coster in the module — Evaluate,
// Cost, TreeCost, the dynamic programs and the hybrid decomposition — uses
// it, so they all price a plan alike.
//
// The cost model (Sections 4.3 and 5.1 of the paper):
//
//   - The cardinality of a table set is the product of the tables'
//     cardinalities, the selectivities of every predicate whose tables are
//     all in the set (unary, binary and n-ary alike), and the correction
//     of every correlated group whose predicates all apply.
//   - A join's operand is priced on that cardinality, except a single
//     table, which is scanned raw: its unary predicates are applied by the
//     first join it enters.
//   - A join first applying a predicate with an evaluation cost bills
//     EvalCostPerTuple times its outer (left) operand's cardinality.
//   - C_out sums the result cardinality of every join but the last; the
//     final result is the same for every plan and is left out. Evaluation
//     costs are recorded per join (JoinStep.Cost) but not summed.
//   - OperatorCost sums, per join, the operator's cost on the operand page
//     counts plus the evaluation cost billed to the join.
package plan

import (
	"fmt"
	"math"
	"strings"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// Plan is a left-deep join plan: Order is the permutation of table indices
// in join order. Join j (0-based) joins the running result of
// Order[0..j] with table Order[j+1]. Operators optionally records the join
// operator per join; when nil, the costing Spec's default operator is used.
type Plan struct {
	Order     []int
	Operators []cost.Operator
}

// Validate checks that the plan is a complete left-deep plan for q.
func (p *Plan) Validate(q *qopt.Query) error {
	n := q.NumTables()
	if len(p.Order) != n {
		return fmt.Errorf("plan: order has %d tables, query has %d", len(p.Order), n)
	}
	seen := make([]bool, n)
	for _, t := range p.Order {
		if t < 0 || t >= n {
			return fmt.Errorf("plan: unknown table %d", t)
		}
		if seen[t] {
			return fmt.Errorf("plan: table %d appears twice", t)
		}
		seen[t] = true
	}
	if p.Operators != nil && len(p.Operators) != n-1 {
		return fmt.Errorf("plan: %d operators for %d joins", len(p.Operators), n-1)
	}
	return nil
}

// String renders the join order, e.g. "((T0 ⋈ T2) ⋈ T1)".
func (p *Plan) String() string {
	if len(p.Order) == 0 {
		return "()"
	}
	var sb strings.Builder
	for i := 1; i < len(p.Order); i++ {
		sb.WriteString("(")
	}
	fmt.Fprintf(&sb, "T%d", p.Order[0])
	for i := 1; i < len(p.Order); i++ {
		fmt.Fprintf(&sb, " ⋈ T%d)", p.Order[i])
	}
	return sb.String()
}

// JoinStep records the exact quantities of one join during costing.
type JoinStep struct {
	// Inner is the inner operand table index.
	Inner int
	// Operator is the join operator used.
	Operator cost.Operator
	// OuterCard and InnerCard are exact operand cardinalities.
	OuterCard, InnerCard float64
	// ResultCard is the exact cardinality after applying all newly
	// applicable predicates (and correlation corrections).
	ResultCard float64
	// AppliedPreds lists predicates first applied at this join.
	AppliedPreds []int
	// Cost is this join's work: its operator cost (OperatorCost only)
	// plus the evaluation cost of the predicates it applies first. Under
	// C_out the plan total sums result cardinalities instead.
	Cost float64
}

// Costing is the exact evaluation of a plan.
type Costing struct {
	Steps []JoinStep
	// Total is the plan cost under the chosen Spec.
	Total float64
	// FinalCard is the cardinality of the final result.
	FinalCard float64
}

// Evaluate prices the plan exactly under spec, join by join (see the
// package documentation for the cost model).
func Evaluate(q *qopt.Query, p *Plan, spec cost.Spec) (*Costing, error) {
	k, err := kernelFor(q, p, spec)
	if err != nil {
		return nil, err
	}
	c := &Costing{Steps: make([]JoinStep, 0, len(p.Order)-1)}
	c.Total = k.walk(p, c)
	return c, nil
}

func kernelFor(q *qopt.Query, p *Plan, spec cost.Spec) (*Kernel, error) {
	if err := p.Validate(q); err != nil {
		return nil, err
	}
	return NewKernel(q, spec)
}

// Cost is a convenience wrapper returning only the total cost.
func Cost(q *qopt.Query, p *Plan, spec cost.Spec) (float64, error) {
	k, err := kernelFor(q, p, spec)
	if err != nil {
		return math.NaN(), err
	}
	return k.Cost(p), nil
}
