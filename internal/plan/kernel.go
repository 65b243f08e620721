package plan

import (
	"fmt"
	"math/bits"

	"milpjoin/internal/cost"
	"milpjoin/internal/qopt"
)

// Kernel is the exact cost model of one query under one Spec, built once
// and shared by every coster: the left-deep walker behind Evaluate, Cost
// and TreeCost, the subset recurrence the dynamic programs and the hybrid
// seam windows run, and the join pricing of all of them.
type Kernel struct {
	q      *qopt.Query
	spec   cost.Spec
	params cost.Params
	// tp[tpOff[t]:tpOff[t+1]] are the predicates naming table t.
	tpOff, tp []int32
	// Correlated groups: per table, those with a predicate naming it;
	// per predicate, those containing it (both ascending); per group,
	// its number of distinct predicates.
	groupsOf, predGroups [][]int32
	gsize                []int32
	expensive            bool // some predicate has an evaluation cost
	cout                 bool // the metric is C_out (else operator cost)
}

// NewKernel builds the kernel of q under spec. It rejects unknown metrics;
// the query itself is assumed valid (qopt.Query.Validate).
func NewKernel(q *qopt.Query, spec cost.Spec) (*Kernel, error) {
	k := &Kernel{q: q, spec: spec, params: spec.Params.WithDefaults()}
	switch spec.Metric {
	case cost.Cout:
		k.cout = true
	case cost.OperatorCost:
	default:
		return nil, fmt.Errorf("plan: unknown metric %v", spec.Metric)
	}
	n := q.NumTables()
	// Per-table runs: counted, summed into run ends, filled from the back.
	k.tpOff = make([]int32, n+1)
	for _, p := range q.Predicates {
		for _, t := range p.Tables {
			k.tpOff[t]++
		}
		k.expensive = k.expensive || p.EvalCostPerTuple > 0
	}
	for t := 1; t <= n; t++ {
		k.tpOff[t] += k.tpOff[t-1]
	}
	k.tp = make([]int32, k.tpOff[n])
	for pi := len(q.Predicates) - 1; pi >= 0; pi-- {
		for _, t := range q.Predicates[pi].Tables {
			k.tpOff[t]--
			k.tp[k.tpOff[t]] = int32(pi)
		}
	}
	k.groupsOf = make([][]int32, n)
	k.predGroups = make([][]int32, len(q.Predicates))
	k.gsize = make([]int32, len(q.Correlated))
	// Groups come in ascending order, so a list already holding gi ends
	// with it.
	listed := func(list []int32, gi int) bool { return len(list) > 0 && list[len(list)-1] == int32(gi) }
	for gi, g := range q.Correlated {
		for _, pi := range g.Predicates {
			if listed(k.predGroups[pi], gi) {
				continue
			}
			k.predGroups[pi] = append(k.predGroups[pi], int32(gi))
			k.gsize[gi]++
			for _, t := range q.Predicates[pi].Tables {
				if !listed(k.groupsOf[t], gi) {
					k.groupsOf[t] = append(k.groupsOf[t], int32(gi))
				}
			}
		}
	}
	return k, nil
}

// preds lists the predicates naming table t.
func (k *Kernel) preds(t int) []int32 { return k.tp[k.tpOff[t]:k.tpOff[t+1]] }

// Price is a join's contribution to the plan cost, given its operand and
// result cardinalities, the summed per-tuple evaluation cost of the
// predicates it applies first, and whether it produces the query result:
// the result cardinality under C_out (nothing for the final join), the
// join's work under operator cost.
func (k *Kernel) Price(op cost.Operator, outer, inner, result, eval float64, final bool) float64 {
	if k.cout {
		if final {
			return 0
		}
		return result
	}
	return k.work(op, outer, inner, eval)
}

// ResultPrice is the price of every join producing subset s when the
// metric prices a join by its result alone (C_out), so a dynamic program
// can price s once; ok is false when the operands matter, and the
// program prices each split by SplitPrice (plus SplitEval) instead.
func (k *Kernel) ResultPrice(card []float64, s int, final bool) (price float64, ok bool) {
	if !k.cout {
		return 0, false
	}
	if final {
		return 0, true
	}
	return card[s], true
}

// OperandPages converts the subset cardinalities Subsets returned into
// operand page counts when joins are priced on them (operator cost), for
// SplitPrice; it returns nil under C_out. The counts overwrite card
// unless evaluation costs still need the cardinalities.
func (k *Kernel) OperandPages(card []float64) []float64 {
	if k.cout {
		return nil
	}
	pages := card
	if k.expensive {
		pages = make([]float64, len(card))
	}
	for s, c := range card {
		pages[s] = k.params.Pages(c)
	}
	return pages
}

// SplitPrice is the operator-cost price of the join of the disjoint
// subsets outer and inner for the subset dynamic programs: op's cost on
// the operand page counts from OperandPages. When Subsets returned
// evaluation costs the join also bills SplitEval. It is small enough to
// inline into the programs' inner loops.
func (k *Kernel) SplitPrice(op cost.Operator, pages []float64, outer, inner int) float64 {
	return cost.JoinCost(op, pages[outer], pages[inner], k.params)
}

// SplitEval is the evaluation cost the join of the disjoint subsets outer
// and inner into s bills under operator cost: the per-tuple cost of the
// predicates it applies first, on the outer cardinality, from the card
// and eval that Subsets filled.
func (k *Kernel) SplitEval(card, eval []float64, outer, inner, s int) float64 {
	if e := eval[s] - eval[outer] - eval[inner]; e > 0 {
		return e * card[outer]
	}
	return 0
}

// work is a join's own cost: the operator's cost on the operand page
// counts (operator cost only) plus eval·outer.
func (k *Kernel) work(op cost.Operator, outer, inner, eval float64) float64 {
	var c float64
	if !k.cout {
		c = cost.JoinCost(op, k.params.Pages(outer), k.params.Pages(inner), k.params)
	}
	if eval > 0 {
		c += eval * outer
	}
	return c
}

// Cost prices a left-deep plan; the plan must be valid for the query.
func (k *Kernel) Cost(p *Plan) float64 {
	return k.walk(p, nil)
}

// walk prices p join by join, recording each step into c when non-nil.
// The first table is no join; the evaluation of its predicates is billed
// at the first join, which scans it raw.
func (k *Kernel) walk(p *Plan, c *Costing) float64 {
	w := k.NewWalker()
	w.record = c != nil
	w.Place(p.Order[0])
	n := len(p.Order)
	total := 0.0
	for j, t := range p.Order[1:] {
		op := k.spec.Op
		if p.Operators != nil {
			op = p.Operators[j]
		}
		outer, inner := w.operand(), k.q.Tables[t].Card
		w.Place(t)
		eval := w.eval
		w.eval = 0
		total += k.Price(op, outer, inner, w.card, eval, j+2 == n)
		if c != nil {
			c.Steps = append(c.Steps, JoinStep{
				Inner:        t,
				Operator:     op,
				OuterCard:    outer,
				InnerCard:    inner,
				ResultCard:   w.card,
				AppliedPreds: w.applied,
				Cost:         k.work(op, outer, inner, eval),
			})
			w.applied = nil
		}
	}
	if c != nil {
		c.FinalCard = w.card
	}
	return total
}

// treeCost prices a valid bushy tree. A join bills the evaluation of the
// predicates its set completes that no inner-node operand had applied.
func (k *Kernel) treeCost(t *Tree) float64 {
	w := k.NewWalker()
	total := 0.0
	var walk func(node *Tree, root bool) (card, eval float64, tables []int)
	walk = func(node *Tree, root bool) (float64, float64, []int) {
		if node.IsLeaf() {
			return k.q.Tables[node.Table].Card, 0, []int{node.Table}
		}
		lc, le, lt := walk(node.Left, false)
		rc, re, rt := walk(node.Right, false)
		tables := append(lt, rt...)
		w.Reset()
		for _, tb := range tables {
			w.Place(tb)
		}
		total += k.Price(k.spec.Op, lc, rc, w.card, w.eval-le-re, root)
		return w.card, w.eval, tables
	}
	walk(t, true)
	return total
}

// Walker places tables one at a time, tracking the cardinality of the
// placed set (every completed predicate and group applied) and the
// evaluation cost of the predicates completed since the last join.
type Walker struct {
	k       *Kernel
	left    []int32 // per predicate: member tables not yet placed
	gleft   []int32 // per group: member predicates not yet applied; -1 once applied
	n       int     // tables placed
	first   int     // the first table placed
	card    float64
	eval    float64
	record  bool // collect completed predicates into applied
	applied []int
	pos     []int32 // for Subsets: table -> bit, or -1
}

// NewWalker returns an empty walker over the kernel's query.
func (k *Kernel) NewWalker() *Walker {
	w := &Walker{
		k:     k,
		left:  make([]int32, len(k.q.Predicates)),
		gleft: make([]int32, len(k.q.Correlated)),
	}
	w.Reset()
	return w
}

// Reset empties the placed set.
func (w *Walker) Reset() {
	for pi := range w.k.q.Predicates {
		w.left[pi] = int32(len(w.k.q.Predicates[pi].Tables))
	}
	copy(w.gleft, w.k.gsize)
	w.n, w.card, w.eval = 0, 1, 0
	w.applied = w.applied[:0]
}

// operand is the placed set's cardinality as a join operand: a single
// table is scanned raw, its predicates applied by the join it enters.
func (w *Walker) operand() float64 {
	if w.n == 1 {
		return w.k.q.Tables[w.first].Card
	}
	return w.card
}

// Place adds table t to the placed set: its cardinality, then the
// selectivities of the predicates t completes, then the corrections of
// the groups those complete, each in index order.
func (w *Walker) Place(t int) {
	k := w.k
	if w.n == 0 {
		w.first = t
	}
	w.n++
	c := w.card * k.q.Tables[t].Card
	for _, pi := range k.preds(t) {
		if w.left[pi]--; w.left[pi] != 0 {
			continue
		}
		p := &k.q.Predicates[pi]
		c *= p.Sel
		w.eval += p.EvalCostPerTuple
		if w.record {
			w.applied = append(w.applied, int(pi))
		}
		for _, gi := range k.predGroups[pi] {
			w.gleft[gi]--
		}
	}
	for _, gi := range k.groupsOf[t] {
		if w.gleft[gi] == 0 {
			c *= k.q.Correlated[gi].CorrectionSel
			w.gleft[gi] = -1 // applied
		}
	}
	w.card = c
}

// Peek returns the cardinality the placed set would have with table t
// added — Place's arithmetic — leaving the walker unchanged.
func (w *Walker) Peek(t int) float64 {
	k := w.k
	c := w.card * k.q.Tables[t].Card
	for _, pi := range k.preds(t) {
		if w.left[pi] == 1 {
			c *= k.q.Predicates[pi].Sel
		}
	}
	if len(k.groupsOf[t]) == 0 {
		return c
	}
	w.shiftGroups(t, -1)
	for _, gi := range k.groupsOf[t] {
		if w.gleft[gi] == 0 {
			c *= k.q.Correlated[gi].CorrectionSel
		}
	}
	w.shiftGroups(t, 1)
	return c
}

// shiftGroups adds d to the pending count of every group holding a
// predicate that placing table t would complete.
func (w *Walker) shiftGroups(t int, d int32) {
	for _, pi := range w.k.preds(t) {
		if w.left[pi] == 1 {
			for _, gi := range w.k.predGroups[pi] {
				w.gleft[gi] += d
			}
		}
	}
}

// Subsets runs the lowest-bit subset recurrence over unplaced tables
// (bit j of a subset is tables[j]; at most 63) joined onto the placed set:
// card[0] is the walker's cardinality, and card[s] extends card[s minus
// its lowest table t] by t's cardinality, the selectivities of the
// predicates t completes, then the corrections of the groups those
// complete. Single-table sets end as leaves — raw cardinality, nothing
// applied — so every entry is an operand cardinality. When join prices
// read evaluation costs (operator cost on a query with an expensive
// predicate), eval accumulates them alike, so eval[s]-eval[s'] is what a
// join from s' to s bills; otherwise eval is nil.
func (w *Walker) Subsets(tables []int) (card, eval []float64) {
	k, q := w.k, w.k.q
	card = make([]float64, 1<<uint(len(tables)))
	if k.expensive && !k.cout {
		eval = make([]float64, len(card))
	}
	if w.pos == nil {
		w.pos = make([]int32, q.NumTables())
		for i := range w.pos {
			w.pos[i] = -1
		}
	}
	for j, t := range tables {
		w.pos[t] = int32(j)
	}
	// localMask is the subset of tables predicate pi still needs, or
	// ok=false when it also needs a table outside them.
	localMask := func(pi int32) (mask uint64, ok bool) {
		inside := int32(0)
		for _, t := range q.Predicates[pi].Tables {
			if j := w.pos[t]; j >= 0 {
				mask |= 1 << uint(j)
				inside++
			}
		}
		return mask, inside == w.left[pi]
	}
	type term struct {
		mask      uint64
		sel, eval float64
	}
	raw := make([]float64, len(tables))
	preds := make([][]term, len(tables))  // per bit: predicates it can complete
	groups := make([][]term, len(tables)) // per bit: groups it can complete
	for j, t := range tables {
		raw[j] = q.Tables[t].Card
		for _, pi := range k.preds(t) {
			if mask, ok := localMask(pi); ok {
				p := &q.Predicates[pi]
				preds[j] = append(preds[j], term{mask, p.Sel, p.EvalCostPerTuple})
			}
		}
	group:
		for _, gi := range k.groupsOf[t] {
			var gmask uint64
			for _, pi := range q.Correlated[gi].Predicates {
				if w.left[pi] == 0 {
					continue
				}
				mask, ok := localMask(int32(pi))
				if !ok {
					continue group
				}
				gmask |= mask
			}
			if w.gleft[gi] >= 0 {
				groups[j] = append(groups[j], term{gmask, q.Correlated[gi].CorrectionSel, 0})
			}
		}
	}
	for _, t := range tables {
		w.pos[t] = -1
	}

	card[0] = w.card
	if eval != nil {
		eval[0] = w.eval
	}
	for s := uint64(1); s < 1<<uint(len(tables)); s++ {
		j := bits.TrailingZeros64(s)
		prev := s & (s - 1)
		c, e := card[prev]*raw[j], 0.0
		for _, p := range preds[j] {
			if p.mask&^s == 0 {
				c *= p.sel
				e += p.eval
			}
		}
		for _, g := range groups[j] {
			if g.mask&^s == 0 {
				c *= g.sel
			}
		}
		card[s] = c
		if eval != nil {
			eval[s] = eval[prev] + e
		}
	}

	// Single-table sets are leaves: raw, nothing applied yet.
	switch w.n {
	case 0:
		for j := range tables {
			card[1<<uint(j)] = raw[j]
			if eval != nil {
				eval[1<<uint(j)] = 0
			}
		}
	case 1:
		card[0] = q.Tables[w.first].Card
		if eval != nil {
			eval[0] = 0
		}
	}
	return card, eval
}
