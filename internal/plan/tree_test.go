package plan

import (
	"math"
	"testing"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

func TestTreeBasics(t *testing.T) {
	tr := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	if tr.IsLeaf() || !Leaf(3).IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	tables := tr.Tables(nil)
	if len(tables) != 3 || tables[0] != 0 || tables[1] != 1 || tables[2] != 2 {
		t.Errorf("Tables = %v", tables)
	}
	if got := tr.String(); got != "((T0 ⋈ T1) ⋈ T2)" {
		t.Errorf("String = %q", got)
	}
}

func TestTreeValidate(t *testing.T) {
	q := paperQuery()
	good := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	if err := good.Validate(q); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	for name, tr := range map[string]*Tree{
		"missing":   Join(Leaf(0), Leaf(1)),
		"duplicate": Join(Join(Leaf(0), Leaf(0)), Leaf(2)),
		"unknown":   Join(Join(Leaf(0), Leaf(1)), Leaf(9)),
	} {
		if err := tr.Validate(q); err == nil {
			t.Errorf("%s: invalid tree accepted", name)
		}
	}
}

func TestLeftDeepConversionMatchesPlanCost(t *testing.T) {
	q := paperQuery()
	p := &Plan{Order: []int{0, 1, 2}}
	tr := p.LeftDeep()
	if tr.String() != "((T0 ⋈ T1) ⋈ T2)" {
		t.Fatalf("LeftDeep = %s", tr)
	}
	// The same query with every extension: unary filters on the first
	// and last table, expensive binary and unary predicates, a 3-ary
	// predicate and a correlated group.
	ext := paperQuery()
	ext.Predicates[0].EvalCostPerTuple = 2
	ext.Predicates = append(ext.Predicates,
		qopt.Predicate{Tables: []int{0}, Sel: 0.5, EvalCostPerTuple: 1},
		qopt.Predicate{Tables: []int{2}, Sel: 0.2},
		qopt.Predicate{Tables: []int{1, 2}, Sel: 0.3, EvalCostPerTuple: 4},
		qopt.Predicate{Tables: []int{0, 1, 2}, Sel: 0.7},
	)
	ext.Correlated = []qopt.CorrelatedGroup{{Predicates: []int{0, 3}, CorrectionSel: 1.5}}
	for _, q := range []*qopt.Query{q, ext} {
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
			p := &Plan{Order: order}
			for _, spec := range []cost.Spec{cost.CoutSpec(), cost.DefaultSpec()} {
				pc, err := Evaluate(q, p, spec)
				if err != nil {
					t.Fatal(err)
				}
				tc, err := TreeCost(q, p.LeftDeep(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(pc.Total-tc) > 1e-9*(1+pc.Total) {
					t.Errorf("%d predicates, order %v, %v: plan cost %g vs tree cost %g",
						len(q.Predicates), order, spec.Metric, pc.Total, tc)
				}
			}
		}
	}
}

func TestBushyTreeCoutHandComputed(t *testing.T) {
	// Four tables, no predicates: ((T0 ⋈ T1) ⋈ (T2 ⋈ T3)).
	q := &qopt.Query{
		Tables: []qopt.Table{{Card: 10}, {Card: 20}, {Card: 5}, {Card: 8}},
	}
	tr := Join(Join(Leaf(0), Leaf(1)), Join(Leaf(2), Leaf(3)))
	// Intermediates: 200 and 40; root excluded → C_out = 240.
	c, err := TreeCost(q, tr, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c != 240 {
		t.Errorf("Cout = %g, want 240", c)
	}
}

func TestBushyTreeWithCorrelationGroups(t *testing.T) {
	q := paperQuery()
	q.Predicates = append(q.Predicates, qopt.Predicate{Tables: []int{1, 2}, Sel: 0.1})
	q.Correlated = []qopt.CorrelatedGroup{{Predicates: []int{0, 1}, CorrectionSel: 5}}
	tr := Join(Join(Leaf(0), Leaf(1)), Leaf(2))
	// Root card must match the left-deep coster's FinalCard.
	eval, err := Evaluate(q, &Plan{Order: []int{0, 1, 2}}, cost.CoutSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := SubsetCard(q, tr.Tables(nil)); math.Abs(got-eval.FinalCard) > 1e-9*eval.FinalCard {
		t.Errorf("SubsetCard = %g, want %g", got, eval.FinalCard)
	}
}

func TestEmptyPlanLeftDeep(t *testing.T) {
	if (&Plan{}).LeftDeep() != nil {
		t.Error("empty plan should convert to nil tree")
	}
}
