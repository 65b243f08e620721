package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"milpjoin/internal/dp"
	"milpjoin/internal/plan"
	"milpjoin/internal/qopt"
	"milpjoin/internal/sql"
	"milpjoin/internal/workload"
	"milpjoin/joinorder"
	"milpjoin/joinorder/cache"
	"milpjoin/joinorder/cache/persist"
	"milpjoin/joinorder/cluster"
	"milpjoin/joinorder/server"
)

// workDir holds the files a run writes (the churn workload's plan log).
var workDir = filepath.Join(".bench_build", "perfbench")

const (
	opHeader   = "X-Bench-Op"   // request sequence number, for the spans
	spanHeader = "X-Bench-Span" // parent span of the receiving handler
)

type ctxKey int

const (
	ctxOp ctxKey = iota
	ctxSpan
)

// request is one fixed request body of a serving workload.
type request struct {
	body     []byte
	q        *qopt.Query // the caller's query (SQL bodies: the translated one)
	strategy string
	item     int // working-set index
	sql      bool
	dp       float64
	greedy   float64
	first    float64 // cost of the first answer (serve-hot: from warm-up)
}

// node is one in-process joinoptd: server, HTTP listener, optional router.
type node struct {
	id  string
	url string
	srv *server.Server
	hs  *http.Server
	rt  *cluster.Router
}

// serveBench is serve-hot (hot: two clustered nodes, warm cache, all hits)
// or serve-churn (one node with a persistent log and a small cache).
type serveBench struct {
	seed int64
	tiny bool
	hot  bool

	items []*qopt.Query
	reqs  []*request
	nodes []*node
	plog  *persist.Log
	dir   string
	tr    atomic.Pointer[tracer] // current tracer of the server-side spans
	seq   atomic.Int64           // request sequence numbers

	// Hit-path costs of serve-churn, first answer per request.
	firstMu  sync.Mutex
	firstHit map[string]float64
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (s *serveBench) setup(tr *tracer) error {
	rng := rand.New(rand.NewSource(s.seed))
	nItems, nReqs, nSizes, nBig := 104, 416, 4, 8
	if !s.hot {
		nItems, nReqs, nSizes, nBig = 384, 5*384, 7, 0
	}
	if s.tiny {
		nItems, nReqs, nBig = 6, 30, min(nBig, 1)
	}
	// Shapes and sizes (8-11 tables on serve-hot, 8-14 on serve-churn)
	// cycle over the item index, so every seed serves the same mix; the
	// seed draws the statistics, the relabelings and the skewed draw.
	// serve-hot adds nBig stars of 15 tables. Their uncacheable SQL
	// bodies, about 2% of the requests, each run a DP solve of a few ms,
	// so its p99 falls among these solves, a fixed amount of work,
	// rather than among the hits that a scheduler stall on a shared host
	// happens to delay.
	for i := 0; i < nItems-nBig; i++ {
		s.items = append(s.items, workload.Generate(workload.Shapes()[i%3], 8+i%nSizes, rng.Int63(), workload.Config{}))
	}
	for i := 0; i < nBig; i++ {
		s.items = append(s.items, workload.Generate(workload.Star, 15, rng.Int63(), workload.Config{}))
	}
	// serve-hot cycles over the items; each item appears as its original
	// JSON body, two relabeled isomorphic copies, and one relabeled SQL
	// body. serve-churn draws dp-leftdeep requests from a Zipf(1.1) skew
	// over the working set; every fifth request is strategy "auto" on the
	// next item in turn.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nItems-1))
	for j := 0; j < nReqs; j++ {
		item, strategy, variant := j%nItems, "dp-leftdeep", (j/nItems)%4
		if !s.hot {
			variant = 0
			if j%5 == 4 {
				strategy, item = "auto", (j/5)%nItems
			} else {
				item = int(zipf.Uint64())
			}
		}
		q := s.items[item]
		r := &request{strategy: strategy, item: item}
		if variant > 0 {
			q = relabel(q, rng)
		}
		body := map[string]any{"strategy": r.strategy, "metric": "cout"}
		if variant == 3 {
			text, cat := renderSQL(q)
			stmt, err := sql.Parse(text)
			if err != nil {
				return fmt.Errorf("rendered SQL: %w", err)
			}
			c := sql.NewCatalog()
			c.Tables = cat
			if q, _, err = c.Translate(stmt); err != nil {
				return fmt.Errorf("rendered SQL: %w", err)
			}
			body["sql"], body["catalog"] = text, cat
			r.sql = true
		} else {
			body["query"] = q
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return err
		}
		r.q = q
		s.reqs = append(s.reqs, r)
	}
	refs := map[*qopt.Query][2]float64{}
	for i, r := range s.reqs {
		if ref, ok := refs[r.q]; ok {
			r.dp, r.greedy = ref[0], ref[1]
			continue
		}
		var err error
		tr.do("dp.reference", 0, int64(-(i + 1)), func(int64) {
			_, r.dp, err = dp.OptimizeLeftDeep(context.Background(), r.q, cout, dp.Options{})
		})
		if err != nil {
			return fmt.Errorf("DP reference: %w", err)
		}
		if _, r.greedy, err = dp.GreedyLeftDeep(r.q, cout); err != nil {
			return fmt.Errorf("greedy reference: %w", err)
		}
		refs[r.q] = [2]float64{r.dp, r.greedy}
	}
	s.firstHit = map[string]float64{}
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	if s.hot {
		return s.setupHot()
	}
	return s.setupChurn(tr)
}

// setupHot boots two clustered nodes and warms their caches with every
// request body once.
func (s *serveBench) setupHot() error {
	var peers []cluster.Peer
	var lns []net.Listener
	// Listeners not yet handed to a node are closed on error.
	defer func() {
		for _, ln := range lns[len(s.nodes):] {
			ln.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		peers = append(peers, cluster.Peer{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()})
	}
	for i := range lns {
		rt, err := cluster.New(cluster.Config{
			Self:          peers[i].ID,
			Peers:         peers,
			ProbeInterval: -1, // static loopback ring: no health probes
			Client:        &http.Client{Transport: &hopTransport{s: s, base: &http.Transport{MaxIdleConnsPerHost: 4}}},
			Logger:        discardLog,
		})
		if err != nil {
			return err
		}
		n, err := s.startNode(lns[i], peers[i], rt, nil)
		if err != nil {
			rt.Close()
			return err
		}
		s.nodes = append(s.nodes, n)
	}
	c := newClient()
	for j, r := range s.reqs {
		a, _, _, err := s.send(c, s.nodes[j%2], r, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		r.first = a.cost
	}
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := n.rt.Flush(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("replication flush: %w", err)
		}
	}
	return nil
}

// setupChurn replays a previous churn run: a node with a fresh log serves
// the first eighth of the request list, shuts down, and the measured node
// boots from that log.
func (s *serveBench) setupChurn(tr *tracer) error {
	s.dir = filepath.Join(workDir, fmt.Sprintf("churn-%d-%d", os.Getpid(), time.Now().UnixNano()))
	prev, err := s.openNode()
	if err != nil {
		return err
	}
	c := newClient()
	for _, r := range s.reqs[:len(s.reqs)/8] {
		if _, _, _, err := s.send(c, prev, r, nil, 0); err != nil {
			s.stopNode(prev)
			return fmt.Errorf("previous run: %w", err)
		}
	}
	s.stopNode(prev)
	s.plog.Close()
	s.plog = nil

	var n *node
	tr.do("persist.replay", 0, 0, func(int64) { n, err = s.openNode() })
	if err != nil {
		return err
	}
	s.nodes = []*node{n}
	return nil
}

// openNode opens the churn log and boots one unclustered node on it.
func (s *serveBench) openNode() (*node, error) {
	plog, err := persist.Open(persist.Config{Dir: s.dir, Policy: persist.SyncInterval})
	if err != nil {
		return nil, err
	}
	s.plog = plog
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return s.startNode(ln, cluster.Peer{ID: "n0"}, nil, plog)
}

func (s *serveBench) startNode(ln net.Listener, self cluster.Peer, rt *cluster.Router, plog *persist.Log) (*node, error) {
	cc := cache.Config{Persist: plog, Optimize: s.solveHook}
	if !s.hot {
		cc.MaxEntries = max(2, len(s.items)/4)
	}
	srv, err := server.New(server.Config{Cache: cc, Cluster: rt, Logger: discardLog})
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{id: self.ID, url: "http://" + ln.Addr().String(), srv: srv, rt: rt}
	n.hs = &http.Server{Handler: s.middleware(n)}
	go n.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return n, nil
}

func (s *serveBench) stopNode(n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.BeginDrain()
	n.hs.Shutdown(ctx) //nolint:errcheck // best effort at teardown
	n.srv.Drain(ctx)   //nolint:errcheck // best effort at teardown
	if n.rt != nil {
		n.rt.Close()
	}
}

func (s *serveBench) close() {
	for _, n := range s.nodes {
		s.stopNode(n)
	}
	s.nodes = nil
	if s.plog != nil {
		s.plog.Close()
		s.plog = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// middleware records the server.handle span around the node's handler,
// parented by the client's (or forwarding node's) span.
func (s *serveBench) middleware(n *node) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			n.srv.ServeHTTP(w, r)
			return
		}
		opID, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, _ := tr.begin("server.handle", parent, opID)
		ctx := context.WithValue(context.WithValue(r.Context(), ctxOp, opID), ctxSpan, id)
		n.srv.ServeHTTP(w, r.WithContext(ctx))
		tr.end(id)
	})
}

// hopTransport records the cluster.forward span around each forwarded
// request and hands its span to the owning node.
type hopTransport struct {
	s    *serveBench
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := h.s.tr.Load()
	if tr == nil {
		return h.base.RoundTrip(req)
	}
	opID, _ := req.Context().Value(ctxOp).(int64)
	parent, _ := req.Context().Value(ctxSpan).(int64)
	id, _ := tr.begin("cluster.forward", parent, opID)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { tr.end(id) }}
	return resp, nil
}

// endOnClose ends a span when the response body is closed, so the forward
// span covers relaying the owner's answer.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// solveHook is the cache's underlying optimizer: joinorder.Optimize inside
// a span named after the strategy's layer.
func (s *serveBench) solveHook(ctx context.Context, q *joinorder.Query, opts joinorder.Options) (*joinorder.Result, error) {
	tr := s.tr.Load()
	if tr == nil {
		return joinorder.Optimize(ctx, q, opts)
	}
	name := "solve." + opts.Strategy
	switch opts.Strategy {
	case "dp-leftdeep":
		name = "dp.leftdeep"
	case "auto":
		name = "portfolio.auto"
	}
	opID, _ := ctx.Value(ctxOp).(int64)
	parent, _ := ctx.Value(ctxSpan).(int64)
	var res *joinorder.Result
	var err error
	tr.do(name, parent, opID, func(int64) { res, err = joinorder.Optimize(ctx, q, opts) })
	return res, err
}

// newClient returns a client holding at most one connection per node.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// answer is the part of a response the checks read.
type answer struct {
	cost, factor, boundLog float64
	queueMS                float64
	node                   string
	leftDeep               bool // a left-deep plan, comparable to the DP and greedy references
}

// send posts one request to n and checks the answer: HTTP 200 with a plan
// that is a permutation of the caller's query, whose plan.Evaluate cost
// matches the reported cost. It returns the answer, whether it was a
// cache hit, and the round-trip latency. A non-nil tr records the
// http.request span and passes it to the server.
func (s *serveBench) send(c *http.Client, n *node, r *request, tr *tracer, opID int64) (*answer, bool, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, n.url+"/v1/optimize", bytes.NewReader(r.body))
	if err != nil {
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id, start := tr.begin("http.request", 0, opID)
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		tr.end(id)
		return nil, false, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	tr.end(id)
	if err != nil {
		return nil, false, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var body struct {
		Result   json.RawMessage `json:"result"`
		CacheHit bool            `json:"cache_hit"`
		Degraded bool            `json:"degraded"`
		QueueMS  float64         `json:"queue_ms"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, false, lat, err
	}
	var res joinorder.Result
	if err := json.Unmarshal(body.Result, &res); err != nil {
		return nil, false, lat, err
	}
	if body.Degraded {
		return nil, false, lat, errors.New("degraded answer")
	}
	a := &answer{cost: res.Cost, queueMS: body.QueueMS, node: resp.Header.Get(server.NodeHeader),
		factor: math.NaN(), boundLog: math.NaN(), leftDeep: res.Plan != nil}
	if res.Plan != nil {
		_, err = checkPlan(r.q, res.Plan, res.Cost)
	} else {
		var tree struct {
			Tree string `json:"tree"`
		}
		if err = json.Unmarshal(body.Result, &tree); err == nil {
			var t *plan.Tree
			if t, err = parseTree(tree.Tree); err == nil {
				_, err = checkTree(r.q, t, res.Cost)
			}
		}
	}
	if err != nil {
		return nil, false, lat, err
	}
	if res.Bound > 0 && !math.IsInf(res.Bound, 0) {
		a.factor = res.Objective / res.Bound
		a.boundLog = math.Log10(res.Objective / res.Bound)
	}
	return a, body.CacheHit, lat, nil
}

// sample is one measured request.
type sample struct {
	lat     time.Duration
	hit     bool
	remote  bool
	queueMS float64
	strat   string
}

func (s *serveBench) run(d time.Duration, tr *tracer) *result {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	before := s.snapshots()
	var plogBefore persist.Stats
	if s.plog != nil {
		plogBefore = s.plog.Stats()
	}

	var mu sync.Mutex
	r := &result{counters: map[string]float64{}, windows: 10}
	var samples []sample
	var done int64
	var lastPass time.Time
	start := time.Now()
	lastPass = start
	deadline := start.Add(d)
	// serve-hot has one client, so a request never waits behind
	// another; serve-churn has two, for coalescing and admission queueing.
	clients := 2
	if s.hot {
		clients = 1
	}
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for j := ci; time.Now().Before(deadline); j += clients {
				r1 := s.reqs[j%len(s.reqs)]
				// Each body goes to every node in turn, one per pass, so
				// the forwarded share of hits does not depend on which
				// node the seed's keys hash to.
				n := s.nodes[(j/clients+ci+j/len(s.reqs))%len(s.nodes)]
				opID := s.seq.Add(1)
				a, hit, lat, err := s.send(c, n, r1, tr, opID)
				if err == nil {
					err = s.checkRepeat(r1, a, hit)
				}
				mu.Lock()
				if err != nil {
					r.fail(fmt.Errorf("request %d (item %d, %s): %w", j%len(s.reqs), r1.item, r1.strategy, err))
				} else {
					o := op{lat: lat, at: time.Since(start), cost: a.cost, factor: a.factor, boundLog: a.boundLog}
					if a.leftDeep {
						o.dp, o.greedy = r1.dp, r1.greedy
					}
					r.ok(o)
					samples = append(samples, sample{lat: lat, hit: hit, remote: a.node != "" && a.node != n.id,
						queueMS: a.queueMS, strat: r1.strategy})
					done++
					if done%int64(len(s.reqs)) == 0 {
						now := time.Now()
						r.passes = append(r.passes, now.Sub(lastPass).Seconds())
						lastPass = now
					}
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	r.window = time.Since(start)
	if len(r.passes) == 0 {
		// Fewer requests than one pass (tiny runs): scale the window.
		r.passes = append(r.passes, r.window.Seconds()*float64(len(s.reqs))/math.Max(1, float64(done)))
	}
	s.summarize(r, samples, before, plogBefore)
	if tr != nil {
		s.probe(r, tr)
	}
	return r
}

// checkRepeat enforces that a cache hit returns the cost of the first
// answer to the same request.
func (s *serveBench) checkRepeat(r *request, a *answer, hit bool) error {
	if s.hot {
		if !relEq(a.cost, r.first, costTol) {
			return fmt.Errorf("hit cost %.17g, first solve %.17g", a.cost, r.first)
		}
		return nil
	}
	s.firstMu.Lock()
	defer s.firstMu.Unlock()
	key := fmt.Sprintf("%s/%d", r.strategy, r.item)
	first, seen := s.firstHit[key]
	if !seen {
		s.firstHit[key] = a.cost
		return nil
	}
	if hit && !relEq(a.cost, first, costTol) {
		return fmt.Errorf("hit cost %.17g, first answer %.17g", a.cost, first)
	}
	return nil
}

type snap struct {
	cache   cache.Stats
	cluster cluster.Stats
}

func (s *serveBench) snapshots() []snap {
	var out []snap
	for _, n := range s.nodes {
		sn := n.srv.Snapshot()
		x := snap{cache: sn.Cache}
		if sn.Cluster != nil {
			x.cluster = *sn.Cluster
		}
		out = append(out, x)
	}
	return out
}

func (s *serveBench) summarize(r *result, samples []sample, before []snap, plogBefore persist.Stats) {
	after := s.snapshots()
	var hits, lookups, evicted, coalesced, uncacheable, forwards float64
	for i := range after {
		a, b := after[i].cache, before[i].cache
		hits += float64(a.Hits - b.Hits)
		uncacheable += float64(a.Uncacheable - b.Uncacheable)
		lookups += float64(a.Hits + a.Misses + a.Coalesced - b.Hits - b.Misses - b.Coalesced)
		evicted += float64(a.Evicted - b.Evicted)
		coalesced += float64(a.Coalesced - b.Coalesced)
		forwards += float64(after[i].cluster.Forwards - before[i].cluster.Forwards)
	}
	c := r.counters
	c["cache.hit_ratio"] = hits / math.Max(1, lookups)
	c["cache.evictions"] = evicted
	c["cache.coalesced"] = coalesced
	n := float64(len(samples))
	var local, remote, queue, miss []float64
	perStrat := map[string][2]float64{}
	for _, x := range samples {
		us := float64(x.lat.Nanoseconds()) / 1e3
		if x.hit {
			if x.remote {
				remote = append(remote, us)
			} else {
				local = append(local, us)
			}
		} else {
			miss = append(miss, us/1e3)
		}
		queue = append(queue, x.queueMS)
		ps := perStrat[x.strat]
		ps[1]++
		if x.hit {
			ps[0]++
		}
		perStrat[x.strat] = ps
	}
	if len(s.nodes) > 1 {
		c["cluster.forward_ratio"] = forwards / math.Max(1, n)
		if len(local) > 0 && len(remote) > 0 {
			c["cluster.hop_p50_us"] = quantile(remote, 0.5) - quantile(local, 0.5)
			c["cluster.hop_p99_us"] = quantile(remote, 0.99) - quantile(local, 0.99)
		}
		r.note("forward hop: %d local hits (p50 %.1f us), %d remote hits (p50 %.1f us); %.0f forwards",
			len(local), quantile(local, 0.5), len(remote), quantile(remote, 0.5), forwards)
	}
	r.note("slowest 1%% of requests: %s", tailMix(samples))
	c["server.queue_p99_ms"] = quantile(queue, 0.99)
	if len(miss) > 0 {
		c["server.miss_p50_ms"] = quantile(miss, 0.5)
	}
	for _, strat := range []string{"dp-leftdeep", "auto"} {
		ps, ok := perStrat[strat]
		if !ok {
			continue
		}
		c["cache.hit_ratio."+strat] = ps[0] / ps[1]
		r.note("cache hit ratio for strategy %s: %.0f of %.0f requests", strat, ps[0], ps[1])
	}
	r.note("cache: hit ratio %.4f over %.0f lookups, %.0f evictions, %.0f coalesced; %.0f uncacheable requests (SQL bodies carry projection columns); %d answers not from the cache",
		c["cache.hit_ratio"], lookups, evicted, coalesced, uncacheable, len(miss))
	if s.plog != nil {
		ps := s.plog.Stats()
		c["persist.syncs"] = float64(ps.Syncs - plogBefore.Syncs)
		c["persist.compactions"] = float64(ps.Compactions - plogBefore.Compactions)
		c["persist.dead_ratio"] = float64(ps.DeadBytes) / math.Max(1, float64(ps.FileBytes))
		c["persist.bytes_per_store"] = float64(ps.FileBytes-ps.DeadBytes) / math.Max(1, float64(ps.LiveRecords))
		r.note("persist (sync policy %s): %d live records, %d bytes, %d dead, %.0f syncs, %d compactions",
			persist.SyncInterval, ps.LiveRecords, ps.FileBytes, ps.DeadBytes, c["persist.syncs"], ps.Compactions)
	}
}

// tailMix says which kinds of request make up the slowest 1% of samples.
func tailMix(samples []sample) string {
	if len(samples) == 0 {
		return "none"
	}
	lats := make([]float64, len(samples))
	for i, x := range samples {
		lats[i] = float64(x.lat.Nanoseconds())
	}
	cut := quantile(lats, 0.99)
	var local, remote, solved int
	for _, x := range samples {
		switch {
		case float64(x.lat.Nanoseconds()) < cut:
		case !x.hit:
			solved++
		case x.remote:
			remote++
		default:
			local++
		}
	}
	return fmt.Sprintf("%d local hits, %d forwarded hits, %d solved (from %.3f ms)", local, remote, solved, cut/1e6)
}

// probe times the request-path layers the server runs internally on each
// distinct request body: JSON decode, SQL parse and translation,
// canonicalization and, on serve-hot, the cache hit itself.
func (s *serveBench) probe(r *result, tr *tracer) {
	opts := joinorder.Options{Metric: joinorder.Cout, Precision: joinorder.PrecisionMedium,
		Budget: joinorder.Budget{TimeLimit: 10 * time.Second}}
	before := s.nodes[0].srv.Cache().Stats()
	for i, rq := range s.reqs {
		opID := int64(-(i + 1))
		var req server.OptimizeRequest
		var err error
		tr.do("server.decode", 0, opID, func(int64) { err = json.Unmarshal(rq.body, &req) })
		if err != nil {
			r.fail(fmt.Errorf("decode probe: %w", err))
			continue
		}
		q := req.Query
		if rq.sql {
			tr.do("sql.parse", 0, opID, func(int64) {
				var stmt *sql.SelectStatement
				if stmt, err = sql.Parse(req.SQL); err == nil {
					c := sql.NewCatalog()
					c.Tables = req.Catalog
					q, _, err = c.Translate(stmt)
				}
			})
			if err != nil {
				r.fail(fmt.Errorf("sql probe: %w", err))
				continue
			}
		}
		tr.do("cache.canonicalize", 0, opID, func(int64) { _, err = cache.Canonicalize(q, cache.Exact) })
		if errors.Is(err, cache.ErrUncacheable) {
			continue // served without the cache, as the server does
		}
		if err != nil {
			r.fail(fmt.Errorf("canonicalize probe: %w", err))
			continue
		}
		if s.hot {
			o := opts
			o.Strategy = rq.strategy
			tr.do("cache.hit", 0, opID, func(int64) { _, err = s.nodes[0].srv.Cache().Optimize(context.Background(), q, o) })
			if err != nil {
				r.fail(fmt.Errorf("cache hit probe: %w", err))
			}
		}
	}
	if s.hot {
		after := s.nodes[0].srv.Cache().Stats()
		if m := after.Misses - before.Misses; m > 0 {
			r.fail(fmt.Errorf("cache hit probe missed %d times", m))
		}
	}
}

func (s *serveBench) layers(r *result, lt map[string]*layerTime) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.counters {
		out[k] = v
	}
	set := func(key, span string, scale float64) {
		if l := lt[span]; l != nil && l.Count > 0 {
			out[key] = l.meanUS() * scale
		}
	}
	set("server.decode_us", "server.decode", 1)
	set("sql.parse_us", "sql.parse", 1)
	set("cache.canonicalize_us", "cache.canonicalize", 1)
	set("cache.hit_us", "cache.hit", 1)
	set("dp.leftdeep_ms", "dp.leftdeep", 1e-3)
	set("portfolio.auto_ms", "portfolio.auto", 1e-3)
	set("persist.replay_ms", "persist.replay", 1e-3)
	if l := lt["server.handle"]; l != nil && l.Count > 0 {
		out["server.handle_us"] = float64(l.Self.Nanoseconds()) / 1e3 / float64(l.Count)
	}
	return out
}

// relabel returns an isomorphic copy of q with permuted table indices and
// shuffled predicates.
func relabel(q *qopt.Query, rng *rand.Rand) *qopt.Query {
	perm := rng.Perm(q.NumTables())
	out := &qopt.Query{Tables: make([]qopt.Table, q.NumTables())}
	for i, t := range q.Tables {
		t.Name = fmt.Sprintf("T%d", perm[i])
		out.Tables[perm[i]] = t
	}
	for _, pi := range rng.Perm(len(q.Predicates)) {
		p := q.Predicates[pi]
		p.Tables = []int{perm[p.Tables[0]], perm[p.Tables[1]]}
		out.Predicates = append(out.Predicates, p)
	}
	return out
}

// renderSQL writes q as a select-project-join statement plus a catalog
// whose distinct counts reproduce each predicate's selectivity.
func renderSQL(q *qopt.Query) (string, map[string]sql.TableStats) {
	cat := map[string]sql.TableStats{}
	var from, where []string
	for i, t := range q.Tables {
		name := fmt.Sprintf("t%d", i)
		from = append(from, name)
		cat[name] = sql.TableStats{Card: t.Card, Columns: map[string]sql.ColumnStats{}}
	}
	for pi, p := range q.Predicates {
		col := fmt.Sprintf("k%d", pi)
		for _, t := range p.Tables {
			cat[fmt.Sprintf("t%d", t)].Columns[col] = sql.ColumnStats{Distinct: 1 / p.Sel, Bytes: 8}
		}
		where = append(where, fmt.Sprintf("t%d.%s = t%d.%s", p.Tables[0], col, p.Tables[1], col))
	}
	return "SELECT * FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "), cat
}
