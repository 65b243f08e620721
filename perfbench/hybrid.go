package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"milpjoin/internal/decomp"
	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/solver"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

// hybridBudget is the fixed per-query time budget of the hybrid strategy:
// 100 queries fill one pass of about 20 s.
const hybridBudget = 200 * time.Millisecond

// hybridLarge runs the 100+ table band through strategy hybrid at a fixed
// time budget, with greedy as the quality reference.
type hybridLarge struct {
	seed    int64
	tiny    bool
	queries []*qopt.Query
	names   []string
	greedy  []float64
}

func (h *hybridLarge) setup(tr *tracer) error {
	band := []struct {
		name  string
		shape workload.GraphShape
		n     int
	}{
		{"Snowflake100", workload.Snowflake, 100},
		{"Snowflake150", workload.Snowflake, 150},
		{"Transitive100", workload.Transitive, 100},
		{"Clique40", workload.Clique, 40},
	}
	reps := 25
	if h.tiny {
		reps = 1
	}
	rng := rand.New(rand.NewSource(h.seed))
	for i := 0; i < reps; i++ {
		for _, b := range band {
			n := b.n
			if h.tiny {
				n = b.n / 4
			}
			// Cardinalities of 10..1000 rows keep 150-table plan costs
			// inside float64 range.
			h.queries = append(h.queries, workload.Generate(b.shape, n, rng.Int63(), workload.Config{MinLogCard: 1, MaxLogCard: 3}))
			h.names = append(h.names, b.name)
		}
	}
	for i, q := range h.queries {
		var g float64
		var err error
		tr.do("dp.greedy", 0, int64(i+1), func(int64) { _, g, err = dp.GreedyLeftDeep(q, cout) })
		if err != nil {
			return fmt.Errorf("greedy reference: %w", err)
		}
		h.greedy = append(h.greedy, g)
	}
	return nil
}

func (h *hybridLarge) close() {}

func (h *hybridLarge) opts() joinorder.Options {
	return joinorder.Options{
		Strategy: "hybrid",
		Metric:   joinorder.Cout,
		Budget:   joinorder.Budget{TimeLimit: hybridBudget, Threads: 1},
	}
}

// run solves every query with joinorder.Optimize, the same call whether
// traced or not; a traced run wraps it in one span and probes the layers
// afterwards (see probe).
func (h *hybridLarge) run(d time.Duration, tr *tracer) *result {
	r := &result{counters: map[string]float64{}}
	start := time.Now()
	var noBound, bounded float64
	var boundLogs []float64
	var plans []*plan.Plan
	for len(r.passes) == 0 || morePasses(start, d, r.passes) {
		passStart := time.Now()
		plans = plans[:0]
		for i, q := range h.queries {
			opID := int64(len(r.ops) + r.failed + 1)
			t0 := time.Now()
			var res *joinorder.Result
			var err error
			tr.do("joinorder.optimize", 0, opID, func(int64) { res, err = joinorder.Optimize(context.Background(), q, h.opts()) })
			lat := time.Since(t0)
			if err == nil {
				_, err = checkPlan(q, res.Plan, res.Cost)
			}
			if err == nil && (math.IsNaN(res.Bound) || res.Bound < 0 || res.Bound > res.Cost*(1+costTol)) {
				err = fmt.Errorf("bound %g against cost %g", res.Bound, res.Cost)
			}
			if err != nil {
				r.fail(fmt.Errorf("%s #%d: %w", h.names[i], i, err))
				plans = append(plans, nil)
				continue
			}
			plans = append(plans, res.Plan)
			o := op{lat: lat, cost: res.Cost, factor: math.NaN(), boundLog: math.NaN(), greedy: h.greedy[i]}
			if res.Bound > 0 {
				o.boundLog = math.Log10(res.Cost / res.Bound)
				boundLogs = append(boundLogs, o.boundLog)
				bounded++
			} else {
				noBound++
			}
			r.ok(o)
		}
		r.passes = append(r.passes, time.Since(passStart).Seconds())
	}
	r.window = time.Since(start)
	r.counters["decomp.no_bound"] = noBound
	r.counters["decomp.bound_log10"] = mean(boundLogs)
	r.note("hybrid: %.0f answers with a positive bound (mean log10 cost/bound %.2f), %.0f with bound 0", bounded, mean(boundLogs), noBound)
	if tr != nil {
		h.probe(r, tr, plans)
	}
	return r
}

// hybridProbes is how many queries, from the start of the list, the traced
// run re-solves with decomp.Optimize: two of each band shape.
const hybridProbes = 8

// probe times, after the pass, what joinorder.Optimize runs inside its one
// span: plan.Evaluate on every answer, and decomp.Optimize itself on the
// first hybridProbes queries, whose results give the partition counts and
// seam outcomes joinorder.Result does not carry. The probe passes the
// module's defaults with the workload's budget and thread count.
func (h *hybridLarge) probe(r *result, tr *tracer, plans []*plan.Plan) {
	var partitions, seam, probed float64
	for i, q := range h.queries {
		opID := int64(-(i + 1))
		var err error
		if pl := plans[i]; pl != nil {
			tr.do("plan.evaluate", 0, opID, func(int64) { _, err = plan.Evaluate(q, pl, cout) })
			if err != nil {
				r.fail(fmt.Errorf("evaluate probe of %s #%d: %w", h.names[i], i, err))
			}
		}
		if i >= hybridProbes {
			continue
		}
		var res *decomp.Result
		tr.do("decomp.optimize", 0, opID, func(int64) {
			res, err = decomp.Optimize(context.Background(), q, decomp.Options{
				Spec:     cout,
				Deadline: time.Now().Add(hybridBudget),
				Params:   solver.Params{Threads: 1},
			})
		})
		if err == nil {
			_, err = checkPlan(q, res.Plan, res.Cost)
		}
		if err != nil {
			r.fail(fmt.Errorf("decomp probe of %s #%d: %w", h.names[i], i, err))
			continue
		}
		probed++
		partitions += float64(len(res.PartitionSizes))
		if res.SeamImproved {
			seam++
		}
	}
	r.counters["decomp.partitions"] = partitions / math.Max(probed, 1)
	r.counters["decomp.seam_improved"] = seam / math.Max(probed, 1)
	r.note("decomp probe: %.0f queries, %.1f partitions each, seam window improved %.0f", probed, r.counters["decomp.partitions"], seam)
}

func (h *hybridLarge) layers(r *result, lt map[string]*layerTime) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.counters {
		out[k] = v
	}
	out["decomp.optimize_ms"] = lt["decomp.optimize"].meanUS() / 1e3
	out["plan.evaluate_us"] = lt["plan.evaluate"].meanUS()
	return out
}
