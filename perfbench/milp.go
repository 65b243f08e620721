package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"milpjoin/internal/core"
	"milpjoin/internal/cost"
	"milpjoin/internal/dp"
	"milpjoin/internal/obs"
	"milpjoin/internal/plan"
	"milpjoin/internal/presolve"
	"milpjoin/internal/qopt"
	"milpjoin/internal/simplex"
	"milpjoin/internal/sparse"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
)

const (
	// milpMaxNodes is the per-query node cap, chosen from the run length:
	// one pass over the 165 queries takes 16-20 s on a 2-core host, so a
	// 20 s run holds one pass. The solver's work is then fixed and wall
	// time moves only with the speed of the layers. The root LP takes
	// about two thirds of a solve, so a lower cap would buy few queries.
	milpMaxNodes = 15
	// milpReps is the number of queries per shape and size. A pass holds
	// as many as the run length allows, because a few stuck node LPs per
	// pass, each stopped by milpSafety, set most of the seed-to-seed
	// spread of sweep_s, and p99_ms is the third-slowest solve.
	milpReps = 5
	// milpSafety is a safety stop, about twice the slowest node-capped
	// solve (a 20-table cycle or star, 250-400 ms). A query that reaches
	// it counts in milp.time_limited; its wall time stays in sweep_s and
	// req_per_s but not in the latency quantiles.
	milpSafety = 800 * time.Millisecond
)

// milpPaper solves the paper's chain, cycle and star queries of 10-20
// tables with the MILP (C_out, medium precision, one thread, fixed node
// cap) through the public library, against exact DP and greedy references.
type milpPaper struct {
	seed    int64
	tiny    bool
	queries []*qopt.Query
	shapes  []workload.GraphShape
	dpCost  []float64
	greedy  []float64
	reps    int // queries per shape and size
}

func (m *milpPaper) opts() joinorder.Options {
	return joinorder.Options{
		Strategy:  "milp",
		Metric:    joinorder.Cout,
		Precision: joinorder.PrecisionMedium,
		Budget:    joinorder.Budget{MaxNodes: m.maxNodes(), Threads: 1, TimeLimit: milpSafety},
	}
}

func (m *milpPaper) maxNodes() int {
	if m.tiny {
		return 3
	}
	return milpMaxNodes
}

func (m *milpPaper) setup(tr *tracer) error {
	sizes := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	m.reps = milpReps
	if m.tiny {
		sizes, m.reps = []int{8, 10}, 1
	}
	rng := rand.New(rand.NewSource(m.seed))
	for _, shape := range workload.Shapes() {
		for _, n := range sizes {
			for i := 0; i < m.reps; i++ {
				q := workload.Generate(shape, n, rng.Int63(), workload.Config{})
				m.queries = append(m.queries, q)
				m.shapes = append(m.shapes, shape)
			}
		}
	}
	for i, q := range m.queries {
		var c float64
		var err error
		tr.do("dp.leftdeep", 0, int64(i+1), func(int64) {
			_, c, err = dp.OptimizeLeftDeep(context.Background(), q, cout, dp.Options{})
		})
		if err != nil {
			return fmt.Errorf("DP reference: %w", err)
		}
		m.dpCost = append(m.dpCost, c)
		_, g, err := dp.GreedyLeftDeep(q, cout)
		if err != nil {
			return fmt.Errorf("greedy reference: %w", err)
		}
		m.greedy = append(m.greedy, g)
	}
	return nil
}

func (m *milpPaper) close() {}

// run solves every query with joinorder.Optimize, the same call whether
// traced or not; a traced run wraps it in one span and probes the layers
// afterwards (see probe).
func (m *milpPaper) run(d time.Duration, tr *tracer) *result {
	r := &result{counters: map[string]float64{}}
	start := time.Now()
	var stats []obs.Stats
	var plans []*plan.Plan
	for len(r.passes) == 0 || morePasses(start, d, r.passes) {
		passStart := time.Now()
		stats, plans = stats[:0], plans[:0]
		for i, q := range m.queries {
			opID := int64(len(r.ops) + r.failed + 1)
			t0 := time.Now()
			var res *joinorder.Result
			var err error
			tr.do("joinorder.optimize", 0, opID, func(int64) { res, err = joinorder.Optimize(context.Background(), q, m.opts()) })
			lat := time.Since(t0)
			if err == nil {
				err = m.check(i, q, res)
			}
			if err != nil {
				r.fail(fmt.Errorf("%s%d #%d: %w", m.shapes[i], q.NumTables(), i, err))
				plans = append(plans, nil)
				continue
			}
			stats = append(stats, *res.Stats)
			plans = append(plans, res.Plan)
			timeLimit := res.Status == joinorder.StatusTimeLimit
			if timeLimit {
				r.counters["milp.time_limited"]++
			}
			o := op{
				lat:      lat,
				stopped:  timeLimit,
				cost:     res.Cost,
				factor:   math.NaN(),
				boundLog: boundLog(res.Objective, res.Bound),
				dp:       m.dpCost[i],
				greedy:   m.greedy[i],
			}
			if res.Bound > 0 && !math.IsInf(res.Bound, 0) {
				o.factor = res.Objective / res.Bound
			}
			r.ok(o)
		}
		r.passes = append(r.passes, time.Since(passStart).Seconds())
	}
	r.window = time.Since(start)
	m.summarize(r, stats)
	if tr != nil {
		m.probe(r, tr, plans)
	}
	return r
}

func boundLog(objective, bound float64) float64 {
	if bound > 0 && !math.IsInf(bound, 0) {
		return math.Log10(objective / bound)
	}
	return math.NaN()
}

// check applies the correctness rules to one answer: a permutation of the
// query's tables, the reported cost equal to plan.Evaluate's, no cheaper
// than the exact left-deep DP optimum, and an objective no lower than the
// proven bound. A solve stopped before its root LP finished has no bound.
func (m *milpPaper) check(i int, q *qopt.Query, res *joinorder.Result) error {
	if res.Stats == nil {
		return errors.New("milp result carries no stats")
	}
	if _, err := checkPlan(q, res.Plan, res.Cost); err != nil {
		return err
	}
	if res.Cost < m.dpCost[i]*(1-costTol) {
		return fmt.Errorf("cost %.17g below the DP optimum %.17g", res.Cost, m.dpCost[i])
	}
	if math.IsNaN(res.Bound) || res.Objective < res.Bound*(1-1e-6) {
		return fmt.Errorf("objective %g against bound %g", res.Objective, res.Bound)
	}
	return nil
}

// summarize turns the last pass's solver stats into per-layer counters and
// report lines, including the refactorizations per simplex iteration per
// shape that expose the refactor-on-every-iteration regime.
func (m *milpPaper) summarize(r *result, stats []obs.Stats) {
	var nodes, iters, refac, lpNS, searchNS, rootNS, rootIters, rows, hCalls, hSucc, preNS, cutNS, totalNS float64
	perShape := map[workload.GraphShape][]float64{}
	for i, s := range stats {
		nodes += float64(s.Nodes)
		iters += float64(s.SimplexIters)
		refac += float64(s.Refactorizations)
		lpNS += float64(s.LPTime)
		searchNS += float64(s.SearchTime)
		rootNS += float64(s.RootLPTime)
		preNS += float64(s.PresolveTime)
		cutNS += float64(s.CutTime)
		totalNS += float64(s.TotalTime)
		rootIters += float64(s.RootLPIters)
		rows += float64(s.RowsRemoved)
		hCalls += float64(s.HeuristicCalls)
		hSucc += float64(s.HeuristicSuccesses)
		perShape[m.shapes[i]] = append(perShape[m.shapes[i]], float64(s.Refactorizations)/math.Max(1, float64(s.SimplexIters)))
	}
	n := float64(len(stats))
	c := r.counters
	c["bb.us_per_node"] = searchNS / 1e3 / nodes
	c["bb.iters_per_node"] = iters / nodes
	c["bb.refactor_per_node"] = refac / nodes
	c["bb.lp_share"] = lpNS / searchNS
	c["simplex.root_lp_ms"] = rootNS / 1e6 / n
	c["simplex.root_iters"] = rootIters / n
	c["presolve.rows_removed"] = rows / n
	c["presolve.apply_ms"] = preNS / 1e6 / n
	if hCalls > 0 {
		c["bb.heuristic_success_ratio"] = hSucc / hCalls
	}
	for _, shape := range workload.Shapes() {
		xs := perShape[shape]
		med, hi := median(xs), quantile(xs, 1)
		c["simplex.refactor_per_iter."+shape.String()+".med"] = med
		c["simplex.refactor_per_iter."+shape.String()+".max"] = hi
		r.note("%-5s refactorizations per simplex iteration: median %.4f, max %.4f over %d queries", shape, med, hi, len(xs))
	}
	r.note("B&B: %.0f nodes, %.0f simplex iterations, %.0f LU refactorizations (%.2f per node) over %d queries",
		nodes, iters, refac, refac/nodes, len(stats))
	r.note("solve phases from obs.Stats, mean ms per query: presolve %.3f, root LP %.3f, cuts %.3f, search %.3f (node LPs %.3f), total %.3f",
		preNS/1e6/n, rootNS/1e6/n, cutNS/1e6/n, searchNS/1e6/n, lpNS/1e6/n, totalNS/1e6/n)
	r.note("primal heuristics: %.0f of %.0f attempts improved the incumbent", hSucc, hCalls)
	r.note("milp.time_limited: %.0f queries stopped by the %v safety limit", c["milp.time_limited"], milpSafety)
}

// probe times, after the pass, the layers joinorder.Optimize runs inside
// its one span: core.Encode on every query (also giving the model sizes),
// plan.Evaluate on every answer, and the LU kernel on root-optimal bases
// of one query per shape and size. For the LU probe the root LP of the
// presolved model is re-solved, its basis matrix assembled, and
// FactorizeInto and SolveInPlace are timed on it; a root LP the safety
// limit stops is skipped and counted.
func (m *milpPaper) probe(r *result, tr *tracer, plans []*plan.Plan) {
	const reps = 20
	copts := core.Options{Precision: core.PrecisionMedium, Metric: cost.Cout}
	var vars, constrs float64
	skipped := 0
	for i, q := range m.queries {
		opID := int64(-(i + 1))
		var enc *core.Encoding
		var err error
		tr.do("core.encode", 0, opID, func(int64) { enc, err = core.Encode(q, copts) })
		if err != nil {
			r.fail(fmt.Errorf("encode probe of query %d: %w", i, err))
			continue
		}
		st := enc.Stats()
		vars += float64(st.Vars)
		constrs += float64(st.Constrs)
		if pl := plans[i]; pl != nil {
			tr.do("plan.evaluate", 0, opID, func(int64) { _, err = plan.Evaluate(q, pl, cout) })
			if err != nil {
				r.fail(fmt.Errorf("evaluate probe of query %d: %w", i, err))
			}
		}
		if i%m.reps != 0 {
			continue
		}
		pre, err := presolve.Apply(enc.Model, presolve.Options{})
		if err != nil || pre.Status != presolve.StatusReduced {
			continue
		}
		prob := pre.Model.Compile().Problem
		var root *simplex.Result
		tr.do("simplex.root_probe", 0, opID, func(int64) {
			root, err = simplex.Solve(prob, nil, simplex.Options{Deadline: time.Now().Add(milpSafety)})
		})
		if err != nil {
			r.fail(fmt.Errorf("root LP probe of query %d: %w", i, err))
			continue
		}
		if root.Status != simplex.StatusOptimal {
			skipped++
			continue
		}
		basis := &sparse.CSC{Rows: prob.A.Rows, Cols: prob.A.Rows, ColPtr: []int{0}}
		for _, j := range root.Basis.Head {
			rows, vals := prob.A.Col(j)
			basis.RowInd = append(basis.RowInd, rows...)
			basis.Val = append(basis.Val, vals...)
			basis.ColPtr = append(basis.ColPtr, len(basis.RowInd))
		}
		var lu sparse.LU
		var ws sparse.FactorScratch
		for k := 0; k < reps; k++ {
			tr.do("sparse.factor", 0, opID, func(int64) { err = sparse.FactorizeInto(&lu, basis, sparse.FactorOptions{}, &ws) })
			if err != nil {
				r.fail(fmt.Errorf("factorizing the root basis of query %d: %w", i, err))
				break
			}
		}
		if err != nil {
			continue
		}
		b := make([]float64, basis.Rows)
		scratch := make([]float64, basis.Rows)
		for k := 0; k < reps; k++ {
			copy(b, prob.B)
			tr.do("sparse.solve", 0, opID, func(int64) { lu.SolveInPlace(b, scratch) })
		}
	}
	n := float64(len(m.queries))
	r.counters["core.vars"] = vars / n
	r.counters["core.constrs"] = constrs / n
	r.note("LU probe: root bases of one query per shape and size; %d root LPs stopped by the %v limit were skipped", skipped, milpSafety)
}

func (m *milpPaper) layers(r *result, lt map[string]*layerTime) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.counters {
		out[k] = v
	}
	if _, ok := out["bb.heuristic_success_ratio"]; !ok {
		out["bb.heuristic_success_ratio"] = 0
	}
	out["milp.time_limited"] = r.counters["milp.time_limited"]
	out["core.encode_ms"] = lt["core.encode"].meanUS() / 1e3
	out["plan.evaluate_us"] = lt["plan.evaluate"].meanUS()
	out["sparse.factor_us"] = lt["sparse.factor"].meanUS()
	out["sparse.solve_us"] = lt["sparse.solve"].meanUS()
	out["dp.leftdeep_ms"] = lt["dp.leftdeep"].meanUS() / 1e3
	return out
}
