package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"lubt"
	"lubt/internal/serve"
	"lubt/internal/wkld"
)

// serveClients is the closed-loop client count: each client sends its
// next request only once the previous answer arrived, as an EDA caller
// waiting on each net does. It stays at or below the pinned GOMAXPROCS.
const serveClients = 2

// serveUppers are the normalized window tops of /solve requests; each
// window is serveWidth radii wide. None sits exactly at the radius (see
// windowTop).
var serveUppers = []float64{1.01, 1.03, 1.05, 1.07}

const serveWidth = 0.1

// serveConfig is a lubtd traffic mix, sent to an in-process server
// through ServeHTTP with no network in between.
type serveConfig struct {
	workers, cacheSize int     // the server's serve.Config
	nets, sinks        int     // distinct nets in the traffic, sinks per net
	ecoFrac            float64 // share of requests that are /eco edits
	prefix             int     // leading requests whose /solve costs wirelength_sum covers
}

// serveReq is request i of the traffic: a /solve of one net in one
// window, or an /eco relaxing one sink of a cached net to [0, 2 radii].
type serveReq struct {
	index, net, window, sink int
	eco                      bool
}

func (c *serveConfig) request(seed int64, i int) serveReq {
	h := mix(uint64(opSeed(seed, i)))
	r := serveReq{index: i, net: int(h % uint64(c.nets))}
	h = mix(h)
	r.eco = float64(h>>11)/(1<<53) < c.ecoFrac
	h = mix(h)
	r.window = int(h % uint64(len(serveUppers)))
	h = mix(h)
	r.sink = int(h % uint64(c.sinks))
	return r
}

// solveWire is the part of a /solve or /eco answer the benchmark reads.
type solveWire struct {
	Key        string  `json:"key"`
	Cache      string  `json:"cache"`
	Pivots     int     `json:"pivots"`
	ColdPivots int     `json:"cold_pivots"`
	Rounds     int     `json:"rounds"`
	Restages   int     `json:"restages"`
	Cost       float64 `json:"cost"`
	Tree       struct {
		MinDelay float64 `json:"min_delay"`
		MaxDelay float64 `json:"max_delay"`
	} `json:"tree"`
	Trace json.RawMessage `json:"trace"`
}

// serveOut is one answered request.
type serveOut struct {
	req  serveReq
	lat  time.Duration
	resp solveWire
	span *span // traced requests only
	err  error
}

type serveNet struct {
	sinks  []lubt.Point
	source lubt.Point
	radius float64
	bodies [2][][]byte // /solve bodies by [traced][window]
	key    string      // cache key, once set-up solved the net
}

// serveState is a set-up server and the nets of its traffic.
type serveState struct {
	srv      *serve.Server
	nets     []serveNet
	replaced int                // nets replaced because the topology generator panicked
	refs     map[[2]int]float64 // reference cost by (net, window)
}

func (c *serveConfig) run(p plan, epoch time.Time) (*result, error) {
	if c.ecoFrac > 0 && c.nets > c.cacheSize {
		return nil, errors.New("/eco traffic needs every net cached")
	}
	// The reference solves come first, so that the timed phase can run to
	// the deadline.
	nets, _, err := c.generate(p.seed)
	if err != nil {
		return nil, err
	}
	refs, err := references(nets)
	if err != nil {
		return nil, err
	}
	var st *serveState
	setups, err := timeSetups(p, func() error {
		if st != nil {
			st.srv.Close()
		}
		var err error
		st, err = c.setup(p.seed, epoch)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.srv.Close()
	st.refs = refs

	var evictions int64 // during the traced replay
	tp, err := runTimed(p, 1, func(pull func() (int, bool), traced bool) ([]serveOut, []time.Duration) {
		before := st.srv.Metrics().Counter("cache_evictions")
		outs := st.drive(c, p.seed, pull, traced, epoch)
		if traced {
			evictions += st.srv.Metrics().Counter("cache_evictions") - before
		}
		return outs, serveLatencies(outs)
	})
	if err != nil {
		return nil, err
	}
	st.check(tp.ops)
	st.check(tp.tracedOps)
	res := newResult(setups, tp)
	res.replaced = st.replaced
	res.failed, res.firstErr = serveFailures(tp.ops, tp.tracedOps)
	if p.trace {
		c.layers(res.metrics, tp.ops, tp.tracedOps, evictions, opScales(tp.replay))
		res.metrics["replaced_nets"] = float64(st.replaced)
		for _, o := range tp.tracedOps {
			if o.span != nil {
				res.spans = append(res.spans, o.span)
			}
		}
	}
	return res, nil
}

// setup generates the nets, builds the server and fills its cache with
// the first nets, one cold solve each.
func (c *serveConfig) setup(seed int64, epoch time.Time) (*serveState, error) {
	nets, replaced, err := c.generate(seed)
	if err != nil {
		return nil, err
	}
	st := &serveState{
		srv:      serve.New(serve.Config{Workers: c.workers, CacheSize: c.cacheSize}),
		nets:     nets,
		replaced: replaced,
	}
	for j := 0; j < min(c.nets, c.cacheSize); j++ {
		o := st.do(serveReq{net: j}, false, epoch)
		if o.err != nil {
			st.srv.Close()
			return nil, fmt.Errorf("filling the cache: %w", o.err)
		}
		st.nets[j].key = o.resp.Key
	}
	return st, nil
}

// generate makes the nets of the traffic and their /solve bodies. It
// returns how many nets it replaced.
func (c *serveConfig) generate(seed int64) ([]serveNet, int, error) {
	nets := make([]serveNet, c.nets)
	total := 0
	skew := skewFrac
	for j := range nets {
		n := &nets[j]
		// ^seed gives the nets a sequence apart from the requests'.
		gen, replaced, err := routableNet(c.sinks, ^seed, j)
		if err != nil {
			return nil, 0, fmt.Errorf("net %d: %w", j, err)
		}
		total += replaced
		n.source = lubt.Point(gen.Source)
		wire := make([]serve.PointJSON, len(gen.Sinks))
		for k, s := range gen.Sinks {
			n.sinks = append(n.sinks, lubt.Point(s))
			wire[k] = serve.PointJSON{X: s.X, Y: s.Y}
		}
		n.radius = radius(n.sinks, n.source)
		for tr := range n.bodies {
			for _, u := range serveUppers {
				body, err := json.Marshal(serve.SolveRequest{
					Sinks:    wire,
					Source:   &serve.PointJSON{X: n.source.X, Y: n.source.Y},
					Topology: &serve.TopologySpec{Type: "skew", SkewBound: &skew},
					LowerAll: u - serveWidth, UpperAll: u, Normalized: true,
					Trace: tr == 1,
				})
				if err != nil {
					return nil, 0, err
				}
				n.bodies[tr] = append(n.bodies[tr], body)
			}
		}
	}
	return nets, total, nil
}

// routableNet generates net j, replaced by the next of its sequence
// while the skew-guided topology generator, the server's first step,
// panics on it (bench/README.md, Findings). It returns the net and how
// many were replaced.
func routableNet(sinks int, seed int64, j int) (*wkld.Benchmark, int, error) {
	for k := 0; k <= maxReplacements; k++ {
		gen := wkld.Custom("serve", sinks, netSeed(seed, j, k))
		pts := make([]lubt.Point, len(gen.Sinks))
		for i, s := range gen.Sinks {
			pts[i] = lubt.Point(s)
		}
		if !topologyPanics(pts, lubt.Point(gen.Source)) {
			return gen, k, nil
		}
	}
	return nil, 0, fmt.Errorf("the topology generator panicked on %d nets in a row", maxReplacements+1)
}

func topologyPanics(sinks []lubt.Point, src lubt.Point) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	inst, err := lubt.NewInstance(sinks)
	if err != nil {
		return false
	}
	inst.SetSource(src)
	_ = inst.UseSkewGuidedTopology(skewFrac * radius(sinks, src))
	return false
}

// drive runs the closed-loop clients until pull stops handing out
// requests, and returns the answers in request order.
func (st *serveState) drive(c *serveConfig, seed int64, pull func() (int, bool), traced bool, epoch time.Time) []serveOut {
	var (
		mu   sync.Mutex
		outs []serveOut
		wg   sync.WaitGroup
	)
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []serveOut
			for i, ok := pull(); ok; i, ok = pull() {
				mine = append(mine, st.do(c.request(seed, i), traced, epoch))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	slices.SortFunc(outs, func(a, b serveOut) int { return cmp.Compare(a.req.index, b.req.index) })
	return outs
}

// do sends one request and checks the answer: status 200 and, for
// /solve, every sink delay inside the requested window.
func (st *serveState) do(r serveReq, traced bool, epoch time.Time) serveOut {
	out := serveOut{req: r}
	n := &st.nets[r.net]
	tr := 0
	if traced {
		tr = 1
	}
	path, body := "/solve", n.bodies[tr][r.window]
	if r.eco {
		path = "/eco"
		var err error
		// A finite top: relaxing to [0, ∞) can come back infeasible after
		// earlier edits on the session (see bench/README.md, Findings).
		edit := serve.WindowEdit{Sink: r.sink, Upper: 2 * n.radius}
		if body, err = json.Marshal(serve.EcoRequest{Key: n.key, Retighten: []serve.WindowEdit{edit}, Trace: traced}); err != nil {
			out.err = err
			return out
		}
	}
	hreq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	st.srv.ServeHTTP(rec, hreq)
	end := time.Now()
	out.lat = end.Sub(start)
	if rec.Code != http.StatusOK {
		out.err = fmt.Errorf("%s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		return out
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out.resp); err != nil {
		out.err = fmt.Errorf("%s: decoding answer: %w", path, err)
		return out
	}
	if !r.eco {
		u := serveUppers[r.window]
		tol := 1e-5 * (1 + n.radius)
		if d := out.resp.Tree; d.MinDelay < (u-serveWidth)*n.radius-tol || d.MaxDelay > u*n.radius+tol {
			out.err = fmt.Errorf("/solve: delays [%g, %g] outside window [%g, %g]·%g",
				d.MinDelay, d.MaxDelay, u-serveWidth, u, n.radius)
			return out
		}
	}
	if traced {
		out.span = newSpan("bench.serve-http", epoch, start, end)
		out.span.ID = rec.Header().Get("X-Request-Id")
		if err := graft(out.span, out.resp.Trace); err != nil {
			out.err = err
		}
	}
	out.resp.Trace = nil
	return out
}

// check fails every /solve answer whose cost is more than 1e-6 radii off
// the reference cost of its net and window.
func (st *serveState) check(outs []serveOut) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.req.eco {
			continue
		}
		ref := st.refs[[2]int{o.req.net, o.req.window}]
		if tol := 1e-6 * st.nets[o.req.net].radius; math.Abs(o.resp.Cost-ref) > tol {
			o.err = fmt.Errorf("/solve cost %.9g, cold reference %.9g", o.resp.Cost, ref)
		}
	}
}

// references solves every net of the traffic in every window cold
// through the library facade, procs solves at a time, and returns the
// costs by (net, window) for check.
func references(nets []serveNet) (map[[2]int]float64, error) {
	type job struct{ net, window int }
	jobs := make(chan job)
	refs := map[[2]int]float64{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for k := 0; k < procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cost, err := reference(&nets[j.net], j.window)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference solve of net %d window %d: %w", j.net, j.window, err)
				}
				refs[[2]int{j.net, j.window}] = cost
				mu.Unlock()
			}
		}()
	}
	for j := range nets {
		for w := range serveUppers {
			jobs <- job{j, w}
		}
	}
	close(jobs)
	wg.Wait()
	return refs, firstErr
}

// reference solves net n in window w the way the server builds it.
func reference(n *serveNet, w int) (float64, error) {
	inst, err := lubt.NewInstance(n.sinks)
	if err != nil {
		return 0, err
	}
	inst.SetSource(n.source)
	if err := inst.UseSkewGuidedTopology(skewFrac * n.radius); err != nil {
		return 0, err
	}
	u := serveUppers[w]
	tree, err := inst.Solve(lubt.Uniform(len(n.sinks), (u-serveWidth)*n.radius, u*n.radius), nil)
	if err != nil {
		return 0, err
	}
	return tree.Cost, nil
}

func serveLatencies(outs []serveOut) []time.Duration {
	lat := make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i] = o.lat
	}
	return lat
}

// serveFailures counts the failed requests and returns the first failure.
func serveFailures(phases ...[]serveOut) (n int, first error) {
	for _, outs := range phases {
		for _, o := range outs {
			if o.err != nil {
				if n == 0 {
					first = fmt.Errorf("request %d: %w", o.req.index, o.err)
				}
				n++
			}
		}
	}
	return n, first
}

// layers adds the traced run's per-layer metrics to m: wirelength_sum
// over the /solve answers among the first prefix untraced requests, the
// rest over the traced replay, whose span trees split each request into
// the server's phases; each time is brought to the reference host by its
// request's scale. evictions is the cache's eviction count during the
// replay.
func (c *serveConfig) layers(m map[string]float64, untraced, traced []serveOut, evictions int64, scales []float64) {
	for _, o := range untraced {
		if o.req.index < c.prefix && !o.req.eco && o.err == nil {
			m["wirelength_sum"] += o.resp.Cost
		}
	}

	var n, solves, cold, hits, ecos, warmHits int
	var pivots, rounds, warmPivots, coldPivots, restages int
	var queue, build, coldMS, hitMS, ecoMS, other float64
	for i, o := range traced {
		if o.err != nil {
			continue
		}
		n++
		sp, sc := o.span, scales[i]
		queue += sp.totalMS(false, "queue-wait") * sc
		other += sp.totalMS(true, "bench.serve-http", "serve-solve", "serve-eco") * sc
		pivots += o.resp.Pivots
		rounds += o.resp.Rounds
		switch {
		case o.req.eco:
			ecos++
			ecoMS += sp.totalMS(false, "resolve") * sc
		case o.resp.Cache == "hit":
			solves++
			hits++
			build += sp.totalMS(false, "build") * sc
			hitMS += sp.totalMS(false, "resolve") * sc
		default:
			solves++
			cold++
			build += sp.totalMS(false, "build") * sc
			coldMS += sp.totalMS(false, "solve") * sc
		}
		if o.resp.Cache == "hit" {
			warmHits++
			warmPivots += o.resp.Pivots
			coldPivots += o.resp.ColdPivots
			restages += o.resp.Restages
		}
	}
	m["serve.queue_wait_ms"] = mean(queue, n)
	m["serve.build_ms"] = mean(build, solves)
	m["serve.solve_cold_ms"] = mean(coldMS, cold)
	m["serve.resolve_hit_ms"] = mean(hitMS, hits)
	m["serve.resolve_eco_ms"] = mean(ecoMS, ecos)
	m["serve.other_ms"] = mean(other, n)
	m["serve.cache_hit_ratio"] = mean(float64(hits), solves)
	m["serve.evictions"] = mean(float64(evictions), n)
	m["serve.warm_pivot_ratio"] = mean(float64(warmPivots), coldPivots)
	m["serve.restages_per_hit"] = mean(float64(restages), warmHits)
	m["lp.pivots"] = mean(float64(pivots), n)
	m["core.rounds"] = mean(float64(rounds), n)
}
