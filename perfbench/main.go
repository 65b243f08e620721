// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks every answer the program gives,
// and prints its metrics by name with units; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the workload runs twice, untraced and then traced, and the
// metrics are the per-layer ones, taken from spans the benchmark records
// around its calls into each module plus the counters the program returns.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload milp-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// op is one completed operation: a query solve or an HTTP request.
type op struct {
	lat time.Duration
	at  time.Duration // completion time since the run's start
	// stopped marks a solve ended by the workload's safety time limit
	// rather than its own budget; it counts in sweep_s and req_per_s but
	// not in the latency quantiles.
	stopped bool
	cost    float64
	// factor is Objective/Bound when the strategy proves a bound over the
	// whole query in its own objective space (NaN otherwise).
	factor float64
	// boundLog is log10(Objective/Bound) when the bound is positive (NaN
	// otherwise).
	boundLog float64
	// dp and greedy are the reference costs of the op's query (0: none).
	dp, greedy float64
}

// result is the outcome of one measured phase.
type result struct {
	attempted, failed int
	errs              []string
	ops               []op
	passes            []float64 // seconds per pass over the fixed operation list
	window            time.Duration
	// windows, when above 1, splits the run into that many equal windows;
	// the rate and the latency quantiles are then the medians over the
	// windows, so a burst of interference from outside moves one window
	// only.
	windows  int
	notes    []string // workload-specific lines for the text report
	counters map[string]float64
}

func (r *result) fail(err error) {
	r.attempted++
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) ok(o op) {
	r.attempted++
	r.ops = append(r.ops, o)
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
	r.ops = append(r.ops, o.ops...)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// bench is one workload.
type bench interface {
	// setup builds inputs and references and starts any servers; tr
	// traces the calls it makes (nil: untraced).
	setup(tr *tracer) error
	// run measures the workload for about d; tr is nil when untraced.
	run(d time.Duration, tr *tracer) *result
	// layers derives the per-layer metrics of a traced run from its
	// spans and from the counters the program returned.
	layers(r *result, lt map[string]*layerTime) map[string]float64
	close()
}

type workloadDef struct {
	name string
	why  string
	make func(seed int64, tiny bool) bench
}

var workloads = []workloadDef{
	{"milp-paper", "the paper's Figure-2 workload through the library: MILP on 10-20 table chains, cycles and stars at a fixed node cap",
		func(seed int64, tiny bool) bench { return &milpPaper{seed: seed, tiny: tiny} }},
	{"serve-hot", "two clustered joinoptd nodes with a warm cache: decode, SQL parse, canonicalize, cache hit and the forward hop; only the uncacheable SQL bodies solve",
		func(seed int64, tiny bool) bench { return &serveBench{seed: seed, tiny: tiny, hot: true} }},
	{"serve-churn", "one node with a persistent log and a cache 4x smaller than a skewed working set: misses, evictions, log appends, solves",
		func(seed int64, tiny bool) bench { return &serveBench{seed: seed, tiny: tiny} }},
	{"hybrid-large", "100-150 table snowflakes, a transitive chain and a 40-clique through the hybrid decomposition at a fixed time budget",
		func(seed int64, tiny bool) bench { return &hybridLarge{seed: seed, tiny: tiny} }},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload; see README.md for each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"sweep_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"proven_factor", "ratio", "lower"},
	{"cost_vs_dp", "ratio", "lower"},
	{"cost_vs_greedy", "ratio", "lower"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"core.encode_ms", "ms", "lower"},
	{"core.vars", "count", "lower"},
	{"core.constrs", "count", "lower"},
	{"presolve.apply_ms", "ms", "lower"},
	{"presolve.rows_removed", "count", "higher"},
	{"simplex.root_lp_ms", "ms", "lower"},
	{"simplex.root_iters", "count", "lower"},
	{"sparse.factor_us", "us", "lower"},
	{"sparse.solve_us", "us", "lower"},
	{"bb.us_per_node", "us", "lower"},
	{"bb.iters_per_node", "count", "lower"},
	{"bb.refactor_per_node", "count", "lower"},
	{"simplex.refactor_per_iter.chain.med", "ratio", "lower"},
	{"simplex.refactor_per_iter.chain.max", "ratio", "lower"},
	{"simplex.refactor_per_iter.cycle.med", "ratio", "lower"},
	{"simplex.refactor_per_iter.cycle.max", "ratio", "lower"},
	{"simplex.refactor_per_iter.star.med", "ratio", "lower"},
	{"simplex.refactor_per_iter.star.max", "ratio", "lower"},
	{"bb.lp_share", "ratio", "lower"},
	{"bb.heuristic_success_ratio", "ratio", "higher"},
	{"milp.time_limited", "count", "lower"},
	{"plan.evaluate_us", "us", "lower"},
	{"server.decode_us", "us", "lower"},
	{"sql.parse_us", "us", "lower"},
	{"cache.canonicalize_us", "us", "lower"},
	{"cache.hit_us", "us", "lower"},
	{"server.handle_us", "us", "lower"},
	{"cluster.hop_p50_us", "us", "lower"},
	{"cluster.hop_p99_us", "us", "lower"},
	{"cluster.forward_ratio", "ratio", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.hit_ratio.dp-leftdeep", "ratio", "higher"},
	{"cache.hit_ratio.auto", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.coalesced", "count", "higher"},
	{"server.queue_p99_ms", "ms", "lower"},
	{"server.miss_p50_ms", "ms", "lower"},
	{"dp.leftdeep_ms", "ms", "lower"},
	{"portfolio.auto_ms", "ms", "lower"},
	{"persist.bytes_per_store", "B", "lower"},
	{"persist.syncs", "count", "lower"},
	{"persist.compactions", "count", "lower"},
	{"persist.dead_ratio", "ratio", "lower"},
	{"persist.replay_ms", "ms", "lower"},
	{"decomp.optimize_ms", "ms", "lower"},
	{"decomp.partitions", "count", "lower"},
	{"decomp.seam_improved", "ratio", "higher"},
	{"decomp.no_bound", "count", "lower"},
	{"decomp.bound_log10", "log10", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	spans    string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.spans = filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	out, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.Failed > 0 {
		// A wrong answer fails the run, whatever the success ratio.
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their checks\n", out.Failed, out.Attempted)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one configured benchmark, printing the text report to w,
// and returns the summary line.
func execute(cfg config, w io.Writer) (*summary, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	b, setups, err := setUp(def, cfg.seed, cfg.tiny, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(w, "workload %s seed %d: %s\n", def.name, cfg.seed, def.why)

	if !cfg.trace {
		r := b.run(d, nil)
		m := endToEndMetrics(r, setups)
		printEndToEnd(w, r, m)
		return finish(r, m, endToEnd), nil
	}

	// Traced: the same workload untraced and then traced for half the
	// time each, so the difference is the tracing overhead.
	base := b.run(d/2, nil)
	traced := b.run(d/2, tr)
	spans := tr.closed()
	lt := selfTimes(spans)
	layers := b.layers(traced, lt)
	layers["trace.overhead_pct"] = 100 * (meanLatency(traced) - meanLatency(base)) / meanLatency(base)
	for _, n := range traced.notes {
		fmt.Fprintln(w, "  "+n)
	}
	total := &result{}
	total.merge(base)
	total.merge(traced)

	// Layers this workload does not reach are measured on a tiny traced
	// run of each other workload, so every per-layer metric is a
	// measurement; the report names the source of each.
	source := map[string]string{}
	for k := range layers {
		source[k] = def.name
	}
	for _, other := range workloads {
		if other.name == def.name || coversAll(layers) {
			continue
		}
		ctr := newTracer()
		ob, _, err := setUp(other, cfg.seed, true, ctr)
		if err != nil {
			return nil, fmt.Errorf("calibration %s: %w", other.name, err)
		}
		or := ob.run(time.Second, ctr)
		ol := ob.layers(or, selfTimes(ctr.closed()))
		ob.close()
		total.merge(or)
		for k, v := range ol {
			if _, ok := layers[k]; !ok {
				layers[k] = v
				source[k] = other.name + " (tiny)"
			}
		}
		spans = append(spans, ctr.closed()...)
	}
	if err := writeSpans(cfg.spans, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), cfg.spans)
	printSelfTimes(w, lt)
	fmt.Fprintf(w, "tracing overhead: mean op latency %.3f ms untraced (n=%d), %.3f ms traced (n=%d)\n",
		meanLatency(base), len(base.ops), meanLatency(traced), len(traced.ops))
	m := map[string]float64{}
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		m[d.name] = v
		fmt.Fprintf(w, "  %-38s %14.6g %-6s [%s]\n", d.name, v, d.unit, source[d.name])
	}
	printFailures(w, total)
	return finish(total, m, perLayer), nil
}

// setUp builds the workload setupReps times and keeps the last, returning
// the set-up durations in seconds. Only the kept set-up is traced.
func setUp(def workloadDef, seed int64, tiny bool, tr *tracer) (bench, []float64, error) {
	var setups []float64
	for i := 1; ; i++ {
		b := def.make(seed, tiny)
		var t *tracer
		if i == setupReps {
			t = tr
		}
		start := time.Now()
		if err := b.setup(t); err != nil {
			b.close()
			return nil, nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupReps {
			return b, setups, nil
		}
		b.close()
		// Return the discarded set-up's memory, so peak_rss_mb reflects
		// one set-up plus the measured run.
		debug.FreeOSMemory()
	}
}

// morePasses reports whether another pass over a fixed operation list, as
// long as the last one, still ends within d (10% slack) of start.
func morePasses(start time.Time, d time.Duration, passes []float64) bool {
	last := time.Duration(passes[len(passes)-1] * float64(time.Second))
	return time.Since(start)+last <= d+d/10
}

func coversAll(layers map[string]float64) bool {
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok {
			return false
		}
	}
	return true
}

func meanLatency(r *result) float64 {
	var xs []float64
	for _, o := range r.ops {
		xs = append(xs, float64(o.lat.Nanoseconds())/1e6)
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return mean(xs)
}

func finish(r *result, m map[string]float64, defs []metricDef) *summary {
	s := &summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return s
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEndMetrics computes every end-to-end metric of one untraced run.
func endToEndMetrics(r *result, setups []float64) map[string]float64 {
	var lat, factors, vsDP, vsGreedy []float64
	for _, o := range r.ops {
		if !o.stopped {
			lat = append(lat, float64(o.lat.Nanoseconds())/1e6)
		}
		if !math.IsNaN(o.factor) {
			factors = append(factors, o.factor)
		}
		if o.dp > 0 {
			vsDP = append(vsDP, o.cost/o.dp)
		}
		if o.greedy > 0 {
			vsGreedy = append(vsGreedy, o.cost/o.greedy)
		}
	}
	m := map[string]float64{
		"setup_s":        median(append([]float64(nil), setups...)),
		"peak_rss_mb":    peakRSSMiB(),
		"success_ratio":  1 - float64(r.failed)/float64(max(r.attempted, 1)),
		"sweep_s":        median(append([]float64(nil), r.passes...)),
		"req_per_s":      float64(len(r.ops)) / r.window.Seconds(),
		"p50_ms":         quantile(lat, 0.5),
		"p99_ms":         quantile(lat, 0.99),
		"proven_factor":  geomean(factors),
		"cost_vs_dp":     geomean(vsDP),
		"cost_vs_greedy": geomean(vsGreedy),
	}
	if r.windows > 1 {
		m["req_per_s"], m["p50_ms"], m["p99_ms"] = windowed(r)
	}
	return m
}

// windowed returns the medians over r's windows of the completion rate and
// of the latency median and 99th percentile. A pooled p99 would be set by
// whichever stretch of the run the host slowed down.
func windowed(r *result) (rate, p50, p99 float64) {
	w := r.window / time.Duration(r.windows)
	lats := make([][]float64, r.windows)
	for _, o := range r.ops {
		i := min(int(o.at/w), r.windows-1)
		if !o.stopped {
			lats[i] = append(lats[i], float64(o.lat.Nanoseconds())/1e6)
		}
	}
	var rates, p50s, p99s []float64
	for _, l := range lats {
		rates = append(rates, float64(len(l))/w.Seconds())
		if len(l) > 0 {
			p50s = append(p50s, quantile(l, 0.5))
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	return median(rates), median(p50s), median(p99s)
}

func printEndToEnd(w io.Writer, r *result, m map[string]float64) {
	var boundLogs []float64
	var nFactor, nDP, nGreedy, nLat, nStopped int
	for _, o := range r.ops {
		if o.stopped {
			nStopped++
		} else {
			nLat++
		}
		if !math.IsNaN(o.boundLog) {
			boundLogs = append(boundLogs, o.boundLog)
		}
		if !math.IsNaN(o.factor) {
			nFactor++
		}
		if o.dp > 0 {
			nDP++
		}
		if o.greedy > 0 {
			nGreedy++
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	ops := len(r.ops)
	perWindow, nP50 := "", nLat
	if r.windows > 1 {
		perWindow = fmt.Sprintf("; rate, p50 and p99 are medians over %d windows", r.windows)
		nP50 /= r.windows
	}
	na := func(n int) string {
		if n == 0 {
			return "none carries this reference: neutral 1"
		}
		return fmt.Sprintf("n=%d", n)
	}
	rows := []struct {
		name, unit string
		v          float64
		note       string
	}{
		{"setup_s", "s", m["setup_s"], fmt.Sprintf("median of %d set-ups", setupReps)},
		{"peak_rss_mb", "MiB", m["peak_rss_mb"], "whole process"},
		{"error_ratio", "ratio", float64(r.failed) / float64(max(r.attempted, 1)), fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted)},
		{"success_ratio", "ratio", m["success_ratio"], "1 - error_ratio"},
		{"sweep_s", "s", m["sweep_s"], fmt.Sprintf("median of %d passes", len(r.passes))},
		{"req_per_s", "1/s", m["req_per_s"], fmt.Sprintf("%d ops in %.2fs%s", ops, r.window.Seconds(), perWindow)},
		{"p50_ms", "ms", m["p50_ms"], fmt.Sprintf("n=%d per quantile; %d stopped by the safety limit are not counted", nP50, nStopped)},
		{"p99_ms", "ms", m["p99_ms"], fmt.Sprintf("n=%d per quantile, %d beyond", nP50, nP50/100)},
		{"proven_factor", "ratio", m["proven_factor"], na(nFactor)},
		{"cost_vs_dp", "ratio", m["cost_vs_dp"], na(nDP)},
		{"cost_vs_greedy", "ratio", m["cost_vs_greedy"], na(nGreedy)},
		{"bound_log10", "log10", mean(boundLogs), fmt.Sprintf("n=%d with a positive bound", len(boundLogs))},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "  %-16s %14.6g %-6s (%s)\n", row.name, row.v, row.unit, row.note)
	}
	printFailures(w, r)
}

func printFailures(w io.Writer, r *result) {
	for _, e := range r.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}

func printSelfTimes(w io.Writer, lt map[string]*layerTime) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].Self > lt[names[j]].Self })
	fmt.Fprintln(w, "self time per span (traced phase):")
	for _, n := range names {
		l := lt[n]
		fmt.Fprintf(w, "  %-22s n=%-7d total %10.3f ms  self %10.3f ms  mean %10.1f us\n",
			n, l.Count, l.Total.Seconds()*1e3, l.Self.Seconds()*1e3, l.meanUS())
	}
}
