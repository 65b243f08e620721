package dp

import (
	"context"
	"math"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestUnaryPredicateOnHighestTable: the highest-indexed table's filter
// makes [1 2 0] cost 0.1 under C_out (100·1000·0.01·1e-4), and every
// exact search must see it.
func TestUnaryPredicateOnHighestTable(t *testing.T) {
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 10}, {Card: 100}, {Card: 1000}},
		Predicates: []qopt.Predicate{
			{Tables: []int{0, 1}, Sel: 0.1},
			{Tables: []int{1, 2}, Sel: 0.01},
			{Tables: []int{2}, Sel: 1e-4},
		},
	}
	spec := cost.CoutSpec()
	ctx := context.Background()
	pl, ld, err := OptimizeLeftDeep(ctx, q, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !near(ld, 0.1) {
		t.Errorf("left-deep optimum %g (plan %v), want 0.1", ld, pl.Order)
	}
	if _, ex, err := ExhaustiveLeftDeep(q, spec); err != nil || !near(ex, 0.1) {
		t.Errorf("exhaustive optimum %g (%v), want 0.1", ex, err)
	}
	if _, b, err := OptimizeBushy(ctx, q, spec, Options{}); err != nil || !near(b, 0.1) {
		t.Errorf("bushy optimum %g (%v), want 0.1", b, err)
	}
	if _, c, err := OptimizeConv(ctx, q, spec, ConvOptions{}); err != nil || !near(c, 0.1) {
		t.Errorf("conv optimum %g (%v), want 0.1", c, err)
	}
}

// fuzzBytes hands out fuzz input bytes, then zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzQuery decodes a query of 2..8 tables with unary, binary and ternary
// predicates, some with an evaluation cost, and up to two correlated
// groups.
func fuzzQuery(data []byte) *qopt.Query {
	b := fuzzBytes(data)
	n := 2 + b.next()%7
	q := &qopt.Query{Tables: make([]qopt.Table, n)}
	for i := range q.Tables {
		q.Tables[i].Card = math.Round(math.Pow(10, 1+float64(b.next()%40)/10))
	}
	for np := b.next() % 12; len(q.Predicates) < np; {
		arity := 1 + b.next()%3
		if arity > n {
			arity = n
		}
		free := make([]int, n)
		for i := range free {
			free[i] = i
		}
		var tables []int
		for len(tables) < arity {
			j := b.next() % len(free)
			tables = append(tables, free[j])
			free = append(free[:j], free[j+1:]...)
		}
		p := qopt.Predicate{Tables: tables, Sel: float64(1+b.next()) / 256}
		if v := b.next(); v%4 == 0 {
			p.EvalCostPerTuple = float64(v%10) / 2
		}
		q.Predicates = append(q.Predicates, p)
	}
	for ng := b.next() % 3; len(q.Correlated) < ng && len(q.Predicates) >= 2; {
		a := b.next() % len(q.Predicates)
		c := (a + 1 + b.next()%(len(q.Predicates)-1)) % len(q.Predicates)
		q.Correlated = append(q.Correlated, qopt.CorrelatedGroup{
			Predicates:    []int{a, c},
			CorrectionSel: 0.25 + float64(b.next()%16)/4,
		})
	}
	return q
}

// FuzzCostKernel cross-checks the exact searches, which all price through
// the plan kernel, on queries with every predicate extension: the subset
// DP must match exhaustive enumeration, DPconv must match DPsub, and every
// reported cost must be the plan's (or tree's) exact cost.
func FuzzCostKernel(f *testing.F) {
	f.Add([]byte{1, 0, 10, 20, 3, 0, 1, 0, 25, 1, 1, 1, 2, 0, 2, 0, 0, 0})
	f.Add([]byte{6, 5, 30, 12, 39, 1, 22, 8, 9, 0, 3, 77, 4, 2, 1, 0, 128, 9, 1, 2, 2, 2, 5, 12})
	f.Add([]byte{4, 39, 0, 17, 33, 2, 11, 2, 3, 1, 0, 200, 0, 1, 4, 60, 20, 2, 3, 7, 0, 1, 1, 6})
	f.Add([]byte{2, 10, 20, 30, 6, 0, 0, 1, 4, 1, 2, 0, 3, 255, 8, 2, 1, 1, 0, 200, 12, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := fuzzQuery(data)
		if err := q.Validate(); err != nil {
			t.Skip(err)
		}
		ctx := context.Background()
		for _, spec := range []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()} {
			pl, ld, err := OptimizeLeftDeep(ctx, q, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, ex, err := ExhaustiveLeftDeep(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !near(ld, ex) {
				t.Fatalf("%v: left-deep DP %g, exhaustive %g", spec.Metric, ld, ex)
			}
			if c, err := plan.Cost(q, pl, spec); err != nil || !near(c, ld) {
				t.Fatalf("%v: left-deep DP reports %g, plan costs %g (%v)", spec.Metric, ld, c, err)
			}
			if c, err := plan.TreeCost(q, pl.LeftDeep(), spec); err != nil || !near(c, ld) {
				t.Fatalf("%v: left-deep DP reports %g, its tree costs %g (%v)", spec.Metric, ld, c, err)
			}
			tb, b, err := OptimizeBushy(ctx, q, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tc, c, err := OptimizeConv(ctx, q, spec, ConvOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !near(b, c) {
				t.Fatalf("%v: DPsub %g, DPconv %g", spec.Metric, b, c)
			}
			if b > ld && !near(b, ld) {
				t.Fatalf("%v: bushy optimum %g above left-deep %g", spec.Metric, b, ld)
			}
			for name, tr := range map[string]*plan.Tree{"DPsub": tb, "DPconv": tc} {
				if rc, err := plan.TreeCost(q, tr, spec); err != nil || !near(rc, b) {
					t.Fatalf("%v: %s optimum %g, its tree %v costs %g (%v)", spec.Metric, name, b, tr, rc, err)
				}
			}
			gp, g, err := GreedyLeftDeep(q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := plan.Cost(q, gp, spec); err != nil || c != g || g < ld && !near(g, ld) {
				t.Fatalf("%v: greedy reports %g, plan costs %g, optimum %g (%v)", spec.Metric, g, c, ld, err)
			}
		}
		// Per-join operator choice prices the plan it annotates.
		pl, c, err := OptimizeLeftDeep(ctx, q, cost.DefaultSpec(), Options{ChooseOperators: true})
		if err != nil {
			t.Fatal(err)
		}
		if rc, err := plan.Cost(q, pl, cost.DefaultSpec()); err != nil || !near(rc, c) {
			t.Fatalf("operator choice reports %g, plan %v costs %g (%v)", c, pl.Operators, rc, err)
		}
	})
}
