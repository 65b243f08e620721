package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"milpjoin/internal/plan"
	"milpjoin/internal/workload"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the command reports, with the same units and
// directions, and that layers.json maps every per-layer metric.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, m, d)
		}
	}

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		LayerMap []struct {
			Metric string `json:"metric"`
			Moves  []struct {
				Metric   string `json:"metric"`
				Workload string `json:"workload"`
			} `json:"moves"`
		} `json:"layer_map"`
		Roadmap []struct {
			Item     string `json:"item"`
			JudgedBy []struct {
				Workload string   `json:"workload"`
				Metrics  []string `json:"metrics"`
			} `json:"judged_by"`
		} `json:"roadmap"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	known["bound_log10"], known["error_ratio"] = true, true // printed, not gated
	mapped := map[string]bool{}
	for _, e := range lm.LayerMap {
		mapped[e.Metric] = true
		for _, mv := range e.Moves {
			if _, err := lookupWorkload(mv.Workload); err != nil || !known[mv.Metric] {
				t.Errorf("layers.json: %s moves unknown %s @ %s", e.Metric, mv.Metric, mv.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if !mapped[d.name] {
			t.Errorf("layers.json does not map per-layer metric %s", d.name)
		}
	}
	if len(lm.Roadmap) != 7 {
		t.Errorf("layers.json judges %d ROADMAP items, want 7", len(lm.Roadmap))
	}
	for _, it := range lm.Roadmap {
		if len(it.JudgedBy) == 0 {
			t.Errorf("ROADMAP item %s has no judge", it.Item)
		}
		for _, j := range it.JudgedBy {
			if _, err := lookupWorkload(j.Workload); err != nil {
				t.Errorf("ROADMAP item %s: %v", it.Item, err)
			}
			for _, m := range j.Metrics {
				if !known[m] {
					t.Errorf("ROADMAP item %s: unknown metric %s", it.Item, m)
				}
			}
		}
	}
}

// TestSmoke runs a tiny version of every workload, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that no answer failed its checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	workDir = t.TempDir()
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.5, tiny: true, trace: traced,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			var out bytes.Buffer
			s, err := execute(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed:\n%s", w.Name, traced, s.Failed, s.Attempted, out.String())
			}
			type named struct{ name, unit string }
			var want []named
			if traced {
				for _, m := range bf.PerLayer {
					want = append(want, named{m.Name, m.Unit})
				}
			} else {
				for _, m := range bf.EndToEnd {
					want = append(want, named{m.Name, m.Unit})
				}
			}
			text := out.String()
			for _, m := range want {
				v, ok := s.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w.Name, traced, m.name, m.unit, v)
				}
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.name) + `\s+\S+\s+` + regexp.QuoteMeta(m.unit) + `\s`)
				if !line.MatchString(text) {
					t.Errorf("%s traced=%v: report does not print %s with unit %s", w.Name, traced, m.name, m.unit)
				}
			}
			if !traced && !strings.Contains(text, "error_ratio") {
				t.Errorf("%s: report does not print error_ratio", w.Name)
			}
		}
	}
}

// TestCheckerRejects shows the correctness checks catch a non-permutation
// and a mis-costed plan, for left-deep plans and bushy trees.
func TestCheckerRejects(t *testing.T) {
	q := workload.Generate(workload.Chain, 5, 1, workload.Config{})
	good := &plan.Plan{Order: []int{0, 1, 2, 3, 4}}
	c, err := plan.Cost(q, good, cout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkPlan(q, good, c); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, p := range map[string]*plan.Plan{
		"repeated table": {Order: []int{0, 1, 1, 3, 4}},
		"missing table":  {Order: []int{0, 1, 2, 3}},
		"unknown table":  {Order: []int{0, 1, 2, 3, 9}},
	} {
		if _, err := checkPlan(q, p, c); err == nil {
			t.Errorf("%s: non-permutation %v accepted", name, p.Order)
		}
	}
	if _, err := checkPlan(q, good, c*(1+1e-6)); err == nil {
		t.Error("mis-costed plan accepted")
	}
	if _, err := checkPlan(q, nil, c); err == nil {
		t.Error("missing plan accepted")
	}

	tree, err := parseTree("((T0 ⋈ T1) ⋈ ((T2 ⋈ T3) ⋈ T4))")
	if err != nil {
		t.Fatal(err)
	}
	tc, err := plan.TreeCost(q, tree, cout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkTree(q, tree, tc); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if _, err := checkTree(q, tree, tc*1.001); err == nil {
		t.Error("mis-costed tree accepted")
	}
	bad, err := parseTree("((T0 ⋈ T1) ⋈ ((T2 ⋈ T2) ⋈ T4))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkTree(q, bad, tc); err == nil {
		t.Error("tree with a repeated table accepted")
	}
	if _, err := parseTree("((T0 ⋈ T1)"); err == nil {
		t.Error("truncated tree text parsed")
	}
}
