package cache

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache/persist"
)

// openLog opens a persist log in dir, failing the test on error, and
// closes it on cleanup unless the test closes it first (Close is
// idempotent).
func openLog(tb testing.TB, dir string) *persist.Log {
	tb.Helper()
	l, err := persist.Open(persist.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	return l
}

func TestPersistReplayServesWithoutResolving(t *testing.T) {
	dir := t.TempDir()
	qs := []*joinorder.Query{
		workload.Generate(workload.Chain, 6, 3, workload.Config{}),
		workload.Generate(workload.Star, 6, 7, workload.Config{}),
		workload.Generate(workload.Cycle, 5, 9, workload.Config{}),
	}
	costs := make([]float64, len(qs))

	log1 := openLog(t, dir)
	co1 := &countingOptimize{}
	o1 := mustNew(t, Config{Optimize: co1.fn, Persist: log1})
	for i, q := range qs {
		r, err := o1.Optimize(context.Background(), q, milpOpts())
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != joinorder.StatusOptimal {
			t.Fatalf("query %d not optimal: %v", i, r.Status)
		}
		costs[i] = r.Cost
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory serves every query from the
	// replayed cache: zero underlying solves.
	log2 := openLog(t, dir)
	co2 := &countingOptimize{}
	o2 := mustNew(t, Config{Optimize: co2.fn, Persist: log2})
	s := o2.Stats()
	if s.Replayed == 0 || s.Entries != len(qs) || s.Donors == 0 {
		t.Fatalf("replay stats = %+v, want %d entries and donors", s, len(qs))
	}
	for i, q := range qs {
		r, err := o2.Optimize(context.Background(), q, milpOpts())
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost != costs[i] {
			t.Fatalf("query %d replayed cost %g, want %g", i, r.Cost, costs[i])
		}
		if err := r.Plan.Validate(q); err != nil {
			t.Fatalf("query %d replayed plan invalid: %v", i, err)
		}
		if r.Tree == nil {
			t.Fatalf("query %d replayed result lost its tree", i)
		}
	}
	if got := co2.calls.Load(); got != 0 {
		t.Fatalf("replayed cache still solved %d times", got)
	}
	if hs := o2.Stats(); hs.Hits != int64(len(qs)) {
		t.Fatalf("post-replay stats = %+v, want %d hits", hs, len(qs))
	}
}

func TestPersistReplayDonorWarmStarts(t *testing.T) {
	dir := t.TempDir()
	q := workload.Generate(workload.Chain, 7, 5, workload.Config{})

	log1 := openLog(t, dir)
	o1 := mustNew(t, Config{Persist: log1})
	if _, err := o1.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same shape, perturbed cardinalities: the exact entry misses but the
	// replayed donor must warm-start the solve.
	pq := *q
	pq.Tables = append([]joinorder.Table(nil), q.Tables...)
	for i := range pq.Tables {
		pq.Tables[i].Card = pq.Tables[i].Card*1.5 + 7
	}
	log2 := openLog(t, dir)
	o2 := mustNew(t, Config{Persist: log2})
	if _, err := o2.Optimize(context.Background(), &pq, milpOpts()); err != nil {
		t.Fatal(err)
	}
	s := o2.Stats()
	if s.WarmStarts != 1 {
		t.Fatalf("stats = %+v, want 1 warm start from replayed donor", s)
	}
}

func TestPersistMaxBytesBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	n := 6
	log1 := openLog(t, dir)
	o1 := mustNew(t, Config{Persist: log1})
	for seed := int64(0); seed < int64(n); seed++ {
		q := workload.Generate(workload.Chain, 5, seed, workload.Config{})
		if _, err := o1.Optimize(context.Background(), q, milpOpts()); err != nil {
			t.Fatal(err)
		}
	}
	if o1.Len() != n {
		t.Fatalf("seeded %d entries, got %d", n, o1.Len())
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay into a cache whose byte bound holds only a fraction of the
	// log: the overflow is evicted during replay and counted.
	log2 := openLog(t, dir)
	o2 := mustNew(t, Config{Persist: log2, MaxBytes: 2 * 1024})
	s := o2.Stats()
	if s.Entries >= n {
		t.Fatalf("byte bound did not evict: %d entries resident (bytes=%d)", s.Entries, s.Bytes)
	}
	if s.Entries == 0 {
		t.Fatalf("byte bound evicted everything: stats %+v", s)
	}
	if s.ReplayEvicted == 0 {
		t.Fatalf("replay evictions not counted: %+v", s)
	}
	if s.Bytes > 2*1024 {
		t.Fatalf("resident bytes %d exceed bound", s.Bytes)
	}
	if s.ReplayEvicted+int64(s.Entries) < int64(n) {
		t.Fatalf("replayed %d + evicted %d < seeded %d", s.Entries, s.ReplayEvicted, n)
	}
}

func TestInvalidateTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	q := workload.Generate(workload.Chain, 6, 3, workload.Config{})
	keep := workload.Generate(workload.Star, 6, 4, workload.Config{})

	log1 := openLog(t, dir)
	o1 := mustNew(t, Config{Persist: log1})
	for _, qq := range []*joinorder.Query{q, keep} {
		if _, err := o1.Optimize(context.Background(), qq, milpOpts()); err != nil {
			t.Fatal(err)
		}
	}
	if !o1.Invalidate(q, milpOpts()) {
		t.Fatal("Invalidate reported entry absent")
	}
	if o1.Invalidate(q, milpOpts()) {
		t.Fatal("second Invalidate reported entry resident")
	}
	if s := o1.Stats(); s.Invalidated != 1 || s.Entries != 1 {
		t.Fatalf("stats after invalidate = %+v", s)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// After restart the tombstone holds: the invalidated query solves
	// again, the untouched one still hits.
	log2 := openLog(t, dir)
	co := &countingOptimize{}
	o2 := mustNew(t, Config{Optimize: co.fn, Persist: log2})
	if s := o2.Stats(); s.Entries != 1 {
		t.Fatalf("replayed %d entries, want 1 (tombstoned)", s.Entries)
	}
	if _, err := o2.Optimize(context.Background(), keep, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 0 {
		t.Fatalf("kept entry re-solved %d times", got)
	}
	if _, err := o2.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if got := co.calls.Load(); got != 1 {
		t.Fatalf("invalidated entry served without a solve (calls=%d)", got)
	}
}

func TestImportRecordRoundTripAndNoAnnounce(t *testing.T) {
	dirA := t.TempDir()
	var announced []string
	logA := openLog(t, dirA)
	oA := mustNew(t, Config{
		Persist: logA,
		OnStore: func(kind, key string, val []byte) { announced = append(announced, kind+" "+key) },
	})
	q := workload.Generate(workload.Chain, 6, 3, workload.Config{})
	r, err := oA.Optimize(context.Background(), q, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(announced) != 2 { // one exact entry + one donor
		t.Fatalf("announced %d entries, want 2: %v", len(announced), announced)
	}

	// Ship every announced record to a second node via ImportRecord: it
	// must serve the query without solving, must not re-announce, and the
	// import must survive the second node's own restart.
	dirB := t.TempDir()
	var reAnnounced int
	logB := openLog(t, dirB)
	coB := &countingOptimize{}
	oB := mustNew(t, Config{
		Optimize: coB.fn,
		Persist:  logB,
		OnStore:  func(kind, key string, val []byte) { reAnnounced++ },
	})
	if err := logA.Each(func(rec persist.Record) error {
		return oB.ImportRecord(rec.Kind, rec.Key, rec.Val)
	}); err != nil {
		t.Fatal(err)
	}
	if reAnnounced != 0 {
		t.Fatalf("import re-announced %d records (replication amplification)", reAnnounced)
	}
	if s := oB.Stats(); s.Imported != 2 {
		t.Fatalf("imported = %d, want 2", s.Imported)
	}
	rB, err := oB.Optimize(context.Background(), q, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if coB.calls.Load() != 0 || rB.Cost != r.Cost {
		t.Fatalf("import not served: calls=%d cost %g want %g", coB.calls.Load(), rB.Cost, r.Cost)
	}
	if err := logB.Close(); err != nil {
		t.Fatal(err)
	}
	logB2 := openLog(t, dirB)
	oB2 := mustNew(t, Config{Optimize: coB.fn, Persist: logB2})
	if _, err := oB2.Optimize(context.Background(), q, milpOpts()); err != nil {
		t.Fatal(err)
	}
	if coB.calls.Load() != 0 {
		t.Fatal("imported entry did not survive restart")
	}

	// Garbage and empty keys are rejected without poisoning the cache.
	if err := oB.ImportRecord(persist.KindExact, "", []byte(`{}`)); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := oB.ImportRecord(persist.KindExact, "e|x|y", []byte(`not json`)); err == nil {
		t.Fatal("garbage value accepted")
	}
	if err := oB.ImportRecord("weird", "k", []byte(`{}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestImportedBadPlansAreNotServed imports exact records whose plans are
// not permutations of the query (too short, repeated tables, an unknown
// table). Each lookup must reject the entry, count it, and solve afresh
// instead of serving it or panicking.
func TestImportedBadPlansAreNotServed(t *testing.T) {
	q := workload.Generate(workload.Chain, 6, 7, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep"}
	var key string
	var val []byte
	oA := mustNew(t, Config{OnStore: func(kind, k string, v []byte) {
		if kind == persist.KindExact {
			key, val = k, v
		}
	}})
	if _, err := oA.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("no exact record announced")
	}
	for i, bad := range [][]int{{0}, {0, 0, 0, 0, 0, 0}, {0, 1, 2, 3, 4, 99}} {
		var rec joinorder.Result
		if err := json.Unmarshal(val, &rec); err != nil {
			t.Fatal(err)
		}
		rec.Plan.Order = bad
		tampered, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		co := &countingOptimize{}
		oB := mustNew(t, Config{Optimize: co.fn})
		if err := oB.ImportRecord(persist.KindExact, key, tampered); err != nil {
			continue // refused at the door is fine too
		}
		res, err := oB.Optimize(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("order %v: %v", bad, err)
		}
		if err := res.Plan.Validate(q); err != nil {
			t.Fatalf("order %v served as %v: %v", bad, res.Plan.Order, err)
		}
		want, err := joinorder.PlanCost(q, res.Plan, opts)
		if err != nil || math.Abs(res.Cost-want) > 1e-9*want {
			t.Fatalf("order %v: cost %g, plan costs %g (%v)", bad, res.Cost, want, err)
		}
		s := oB.Stats()
		if co.calls.Load() != 1 || s.Misses != 1 || s.Hits != 0 || s.Rejected != 1 {
			t.Fatalf("case %d: calls=%d stats %+v, want one rejected entry and a fresh solve", i, co.calls.Load(), s)
		}
		// The rejected entry is gone: the next lookup hits the fresh solve.
		if _, err := oB.Optimize(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
		if s := oB.Stats(); s.Hits != 1 || co.calls.Load() != 1 {
			t.Fatalf("case %d: after re-solve hits=%d calls=%d", i, s.Hits, co.calls.Load())
		}
	}
}

// TestImportedBadDonorIsNotUsed imports a warm-start donor whose order
// names a table the query does not have. The next miss of that shape must
// drop the donor and solve cold instead of panicking on the translation.
func TestImportedBadDonorIsNotUsed(t *testing.T) {
	q := workload.Generate(workload.Chain, 6, 7, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep"}
	var key string
	var val []byte
	oA := mustNew(t, Config{OnStore: func(kind, k string, v []byte) {
		if kind == persist.KindDonor {
			key, val = k, v
		}
	}})
	if _, err := oA.Optimize(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("no donor record announced")
	}
	var dw donorWire
	if err := json.Unmarshal(val, &dw); err != nil {
		t.Fatal(err)
	}
	dw.Order = []int{0, 1, 2, 3, 4, 99}
	tampered, err := json.Marshal(&dw)
	if err != nil {
		t.Fatal(err)
	}
	oB := mustNew(t, Config{})
	if err := oB.ImportRecord(persist.KindDonor, key, tampered); err != nil {
		t.Fatal(err)
	}
	res, err := oB.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatal(err)
	}
	if s := oB.Stats(); s.WarmStarts != 0 || s.Rejected != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want one rejected donor and a cold solve", s)
	}
}

// TestFlightLeaderLooksAgain puts a request where it is when its exact
// lookup missed just before an earlier leader stored a proven-optimal
// answer and ended its flight: it leads a new flight, and must serve that
// answer instead of solving again.
func TestFlightLeaderLooksAgain(t *testing.T) {
	q := workload.Generate(workload.Chain, 6, 7, workload.Config{})
	opts := joinorder.Options{Strategy: "dp-leftdeep"}
	co := &countingOptimize{}
	o := mustNew(t, Config{Optimize: co.fn})
	first, err := o.Optimize(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Canonicalize(q, Exact)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := o.miss(context.Background(), q, opts, ce, "e|"+optionsKey(opts)+"|"+ce.Key, newCallEmitter(start, opts), start)
	if err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 1 || res.Cost != first.Cost {
		t.Fatalf("%d solves, cost %g; want the stored answer (cost %g) and no second solve", co.calls.Load(), res.Cost, first.Cost)
	}
	if s := o.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want the second request counted as a hit", s)
	}
}

func TestCorrectedFeedbackRefreshesCache(t *testing.T) {
	// Optimize against skewed estimates, execute against the truth: the
	// adaptive executor reports a corrected query, the stale entry is
	// invalidated, and the background refresh files a corrected plan under
	// the original fingerprint.
	truth := &joinorder.Query{
		Tables: []joinorder.Table{{Card: 200}, {Card: 200}, {Card: 50}, {Card: 50}, {Card: 50}},
		Predicates: []joinorder.Predicate{
			{Tables: []int{0, 1}, Sel: 0.5},
			{Tables: []int{1, 2}, Sel: 0.02},
			{Tables: []int{2, 3}, Sel: 0.002},
			{Tables: []int{3, 4}, Sel: 0.002},
		},
	}
	est := &joinorder.Query{
		Tables:     append([]joinorder.Table(nil), truth.Tables...),
		Predicates: append([]joinorder.Predicate(nil), truth.Predicates...),
	}
	est.Predicates[0].Sel = 1e-5

	o := mustNew(t, Config{BackgroundBudget: 10 * time.Second})
	ex, err := o.OptimizeExecuted(context.Background(), est, milpOpts(), joinorder.ExecOptions{
		DataQuery: truth,
		DataSeed:  17,
		Feedback:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.CorrectedQuery == nil {
		t.Fatal("feedback execution against corrupted stats produced no correction")
	}
	o.Wait()
	s := o.Stats()
	if s.FeedbackRefreshes != 1 || s.Invalidated == 0 {
		t.Fatalf("stats = %+v, want 1 feedback refresh with invalidation", s)
	}
	// The refreshed entry answers the original query without a solve.
	co := &countingOptimize{}
	o.cfg.Optimize = co.fn
	res, err := o.Optimize(context.Background(), est, milpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 0 {
		t.Fatalf("refreshed entry missing: %d solves after refresh", co.calls.Load())
	}
	// It states the plan's cost under the original statistics and claims
	// no optimality it was not proven to have for them.
	want, err := joinorder.PlanCost(est, res.Plan, milpOpts())
	if err != nil || res.Cost != want || res.Objective != res.Cost {
		t.Fatalf("refreshed entry cost %g objective %g, plan costs %g (%v)", res.Cost, res.Objective, want, err)
	}
	if res.Status != joinorder.StatusFeasible || res.Bound > res.Cost || !math.IsInf(res.Gap, 1) {
		t.Fatalf("refreshed entry status %v bound %g gap %g, want an unproven feasible plan", res.Status, res.Bound, res.Gap)
	}
}

func TestOptimizeExecutedWithoutFeedbackLeavesCacheAlone(t *testing.T) {
	q := workload.Generate(workload.Chain, 5, 2, workload.Config{
		MinLogCard: 1, MaxLogCard: 2,
		MinSel: 0.02, MaxSel: 0.3,
	})
	o := mustNew(t, Config{})
	ex, err := o.OptimizeExecuted(context.Background(), q, milpOpts(), joinorder.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.CorrectedQuery != nil {
		t.Fatal("no-feedback execution reported a corrected query")
	}
	o.Wait()
	if s := o.Stats(); s.FeedbackRefreshes != 0 || s.Invalidated != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Second call hits the entry stored by the first.
	co := &countingOptimize{}
	o.cfg.Optimize = co.fn
	if _, err := o.OptimizeExecuted(context.Background(), q, milpOpts(), joinorder.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if co.calls.Load() != 0 {
		t.Fatal("second executed call re-solved")
	}
}
