package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"milpjoin/internal/cost"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
)

// costTol is the relative tolerance between a reported cost and the
// benchmark's own plan.Evaluate of the same plan.
const costTol = 1e-9

var cout = cost.Spec{Metric: cost.Cout, Params: cost.Params{}.WithDefaults()}

func relEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkPlan verifies that p is a permutation of q's tables and that its
// exact C_out matches the reported cost. It returns the recomputed cost.
func checkPlan(q *qopt.Query, p *plan.Plan, reported float64) (float64, error) {
	if p == nil {
		return 0, errors.New("no plan")
	}
	if err := p.Validate(q); err != nil {
		return 0, err
	}
	c, err := plan.Evaluate(q, p, cout)
	if err != nil {
		return 0, err
	}
	if !relEq(c.Total, reported, costTol) {
		return 0, fmt.Errorf("plan %v costs %.17g, reported %.17g", p.Order, c.Total, reported)
	}
	return c.Total, nil
}

// checkTree is checkPlan for a bushy join tree.
func checkTree(q *qopt.Query, t *plan.Tree, reported float64) (float64, error) {
	if t == nil {
		return 0, errors.New("no plan")
	}
	if err := t.Validate(q); err != nil {
		return 0, err
	}
	c, err := plan.TreeCost(q, t, cout)
	if err != nil {
		return 0, err
	}
	if !relEq(c, reported, costTol) {
		return 0, fmt.Errorf("tree %v costs %.17g, reported %.17g", t, c, reported)
	}
	return c, nil
}

// parseTree reads the wire rendering of a join tree, e.g.
// "((T0 ⋈ T2) ⋈ T1)", back into a plan.Tree.
func parseTree(s string) (*plan.Tree, error) {
	p := treeParser{s: strings.ReplaceAll(s, " ", "")}
	t, err := p.node()
	if err != nil {
		return nil, err
	}
	if p.i != len(p.s) {
		return nil, fmt.Errorf("tree %q: trailing input", s)
	}
	return t, nil
}

type treeParser struct {
	s string
	i int
}

func (p *treeParser) node() (*plan.Tree, error) {
	switch {
	case strings.HasPrefix(p.s[p.i:], "("):
		p.i++
		l, err := p.node()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(p.s[p.i:], "⋈") {
			return nil, fmt.Errorf("tree %q: want ⋈ at %d", p.s, p.i)
		}
		p.i += len("⋈")
		r, err := p.node()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(p.s[p.i:], ")") {
			return nil, fmt.Errorf("tree %q: want ) at %d", p.s, p.i)
		}
		p.i++
		return plan.Join(l, r), nil
	case strings.HasPrefix(p.s[p.i:], "T"):
		j := p.i + 1
		for j < len(p.s) && p.s[j] >= '0' && p.s[j] <= '9' {
			j++
		}
		n, err := strconv.Atoi(p.s[p.i+1 : j])
		if err != nil {
			return nil, fmt.Errorf("tree %q: bad leaf at %d", p.s, p.i)
		}
		p.i = j
		return plan.Leaf(n), nil
	default:
		return nil, fmt.Errorf("tree %q: unexpected input at %d", p.s, p.i)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of xs; the empty mean is the neutral 1.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
