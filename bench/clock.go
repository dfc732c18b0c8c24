package main

import (
	"bytes"
	"fmt"
	"time"

	"lubt"
	"lubt/internal/bst"
	"lubt/internal/topology"
	"lubt/internal/wkld"
)

const (
	skewFrac = 0.1 // topology skew bound, in radii
	sectors  = 8   // angular sectors of the clock-scale baseline router
	// windowTop is the top of a clock-mid window, in radii. It sits just
	// above the radius: a window topped exactly at the radius can be
	// declared infeasible although a narrower window inside it is solved
	// (bench/README.md, Findings).
	windowTop = 1.01
)

// clockConfig is a clock-routing workload: one caller routing one net
// after another through the library facade and verifying every tree.
type clockConfig struct {
	sizes  []int     // op i routes sizes[i mod len(sizes)] sinks
	widths []float64 // in a window widths[i/len(sizes) mod len(widths)] radii wide
	// scale routes with the sector-partitioned baseline and a window
	// topped by its longest delay; otherwise the skew-guided topology and
	// a window topped at windowTop radii.
	scale  bool
	warmup int // ops run in each set-up
	prefix int // leading ops that wirelength_sum and the exact counts cover
}

// clockOp is one routed, verified net.
type clockOp struct {
	sinks                    int
	lat, topo, solve, verify time.Duration
	cost                     float64
	stats                    lubt.SolveStats
	span                     *span // traced ops only
	replaced                 int   // nets replaced before this one routed
	err                      error
}

func (c *clockConfig) run(p plan, epoch time.Time) (*result, error) {
	setups, err := timeSetups(p, func() error {
		for j := 0; j < c.warmup; j++ {
			// ^seed keeps warm-up inputs apart from the timed ops'.
			if op := c.op(^p.seed, j, false, epoch); op.err != nil {
				return fmt.Errorf("warm-up op %d: %w", j, op.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One unit is a cycle through every (size, width) pair.
	tp, err := runTimed(p, len(c.sizes)*len(c.widths), func(pull func() (int, bool), traced bool) ([]clockOp, []time.Duration) {
		ops := c.ops(p.seed, pull, traced, epoch)
		return ops, clockLatencies(ops)
	})
	if err != nil {
		return nil, err
	}

	res := newResult(setups, tp)
	for _, op := range tp.ops { // the traced replay routes the same nets
		res.replaced += op.replaced
	}
	res.failed, res.firstErr = failures(tp.ops, tp.tracedOps)
	if p.trace {
		c.layers(res.metrics, tp.ops, tp.tracedOps, opScales(tp.replay))
		for _, op := range tp.tracedOps {
			if op.span != nil {
				res.spans = append(res.spans, op.span)
			}
		}
	}
	return res, nil
}

func (c *clockConfig) ops(seed int64, pull func() (int, bool), traced bool, epoch time.Time) []clockOp {
	var out []clockOp
	for i, ok := pull(); ok; i, ok = pull() {
		out = append(out, c.op(seed, i, traced, epoch))
	}
	return out
}

// maxReplacements caps how many nets in a row may be replaced because
// the topology generator panicked on them.
const maxReplacements = 8

// op routes, solves and verifies net i: NewInstance → SetSource →
// topology → Solve → Tree.Verify, the sequence a library caller runs.
// The topology generator panics on rare nets (bench/README.md, Findings);
// such a net is replaced by the next of its sequence and counted. A panic
// anywhere else fails the op.
func (c *clockConfig) op(seed int64, i int, traced bool, epoch time.Time) clockOp {
	for k := 0; ; k++ {
		op, topologyPanic := c.attempt(netSeed(seed, i, k), i, traced, epoch)
		if !topologyPanic || k == maxReplacements {
			op.replaced = k
			return op
		}
	}
}

func (c *clockConfig) attempt(seed int64, i int, traced bool, epoch time.Time) (op clockOp, topologyPanic bool) {
	m := c.sizes[i%len(c.sizes)]
	w := c.widths[i/len(c.sizes)%len(c.widths)]
	gen := wkld.Custom("clock", m, seed)
	sinks := make([]lubt.Point, m)
	for k, s := range gen.Sinks {
		sinks[k] = lubt.Point(s)
	}
	src := lubt.Point(gen.Source)
	r := radius(sinks, src)
	var trace bytes.Buffer
	opts := &lubt.Options{}
	if traced {
		opts.TraceJSON = &trace
	}
	op.sinks = m
	stage := "topology"
	defer func() {
		if p := recover(); p != nil {
			op.err = fmt.Errorf("%s panicked: %v", stage, p)
			topologyPanic = stage == "topology"
		}
	}()

	start := time.Now()
	inst, err := lubt.NewInstance(sinks)
	if err != nil {
		op.err = err
		return op, false
	}
	inst.SetSource(src)
	upper := windowTop * r
	if c.scale {
		upper, err = scaleTopology(inst, gen, skewFrac*r)
	} else {
		err = inst.UseSkewGuidedTopology(skewFrac * r)
	}
	routed := time.Now()
	if err != nil {
		op.err = fmt.Errorf("topology: %w", err)
		return op, false
	}
	stage = "solve"
	tree, err := inst.Solve(lubt.Uniform(m, upper-w*r, upper), opts)
	solved := time.Now()
	if err != nil {
		op.err = fmt.Errorf("solve: %w", err)
		return op, false
	}
	stage = "verify"
	err = tree.Verify()
	end := time.Now()
	if err != nil {
		op.err = fmt.Errorf("verify: %w", err)
		return op, false
	}

	op.lat, op.topo, op.solve, op.verify = end.Sub(start), routed.Sub(start), solved.Sub(routed), end.Sub(solved)
	op.cost, op.stats = tree.Cost, tree.Stats
	if traced {
		solveSpan := newSpan("bench.solve", epoch, routed, solved)
		if err := graft(solveSpan, trace.Bytes()); err != nil {
			op.err = err
			return op, false
		}
		op.span = newSpan("bench.op", epoch, start, end)
		op.span.ID = fmt.Sprintf("op%d", i)
		op.span.Children = []*span{newSpan("bench.topology", epoch, start, routed), solveSpan, newSpan("bench.verify", epoch, solved, end)}
	}
	return op, false
}

// radius is the paper's §2 radius for a fixed source: the distance to the
// farthest sink.
func radius(sinks []lubt.Point, src lubt.Point) float64 {
	r := 0.0
	for _, s := range sinks {
		r = max(r, lubt.Dist(src, s))
	}
	return r
}

// scaleTopology installs the clock-scale topology: the sector-partitioned
// baseline at the given skew bound with its forced-zero root spine
// contracted to an 8-ary root, which UseCustomTopology splits again
// (Fig. 2). It returns the baseline's longest sink delay, the top of the
// window.
func scaleTopology(inst *lubt.Instance, gen *wkld.Benchmark, skew float64) (float64, error) {
	base, err := bst.RoutePartitioned(gen.Sinks, skew, gen.Source, sectors)
	if err != nil {
		return 0, err
	}
	parent, err := contractSpine(base.Tree)
	if err != nil {
		return 0, err
	}
	return base.Stats.Max, inst.UseCustomTopology(parent)
}

// contractSpine returns t's parent vector without its forced-zero nodes,
// each kept node hung on its nearest kept ancestor. The split that made
// those nodes appends them after every other node, so kept ids stay put.
func contractSpine(t *topology.Tree) ([]int, error) {
	kept := t.N()
	for kept > 0 && t.ForcedZero[kept-1] {
		kept--
	}
	parent := make([]int, kept)
	for i := range parent {
		if t.ForcedZero[i] {
			return nil, fmt.Errorf("forced-zero node %d precedes kept nodes", i)
		}
		p := t.Parent[i]
		for p >= 0 && t.ForcedZero[p] {
			p = t.Parent[p]
		}
		parent[i] = p
	}
	return parent, nil
}

func clockLatencies(ops []clockOp) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, op := range ops {
		out[i] = op.lat
	}
	return out
}

// layers adds the traced run's per-layer metrics to m. Counts,
// wirelength_sum and replaced_nets cover the first prefix untraced ops, so
// they repeat exactly for a seed; layer times are per-op means over the
// traced replay, each brought to the reference host by its op's scale.
func (c *clockConfig) layers(m map[string]float64, untraced, traced []clockOp, scales []float64) {
	head := untraced[:min(c.prefix, len(untraced))]
	counts := map[string]int{}
	for _, op := range head {
		st := op.stats
		m["wirelength_sum"] += op.cost
		m["replaced_nets"] += float64(op.replaced)
		counts["core.rounds"] += st.Rounds
		counts["core.steiner_rows"] += st.SteinerRows
		counts["core.presolve_pruned_rows"] += st.PresolvePrunedRows
		counts["core.subtrees"] += st.Subtrees
		counts["core.peak_rows"] += st.PeakRows
		counts["lp.pivots"] += st.LPIterations
		counts["lp.bound_flips"] += st.BoundFlips
		counts["lp.refactorizations"] += st.Refactorizations
		counts["lp.resets"] += st.Resets
	}
	for name, v := range counts {
		m[name] = float64(v) / float64(len(head))
	}

	type class struct{ us, pivots float64 }
	classes := map[int]*class{}
	total := &class{}
	n := 0
	for i, op := range traced {
		if op.err != nil {
			continue
		}
		n++
		sc := scales[i]
		m["bst.route_ms"] += ms(op.topo) * sc
		m["lubt.solve_ms"] += ms(op.solve) * sc
		m["lubt.verify_ms"] += ms(op.verify) * sc
		m["core.sep_ms"] += ms(op.stats.SeparationTime) * sc
		m["lp.solve_ms"] += ms(op.stats.SolveTime) * sc
		m["core.rowgen_ms"] += op.span.totalMS(true, "ebf", "round") * sc
		m["lp.refactorize_ms"] += op.span.totalMS(false, "refactorize") * sc
		m["embed.place_ms"] += op.span.totalMS(false, "embed") * sc
		cl := classes[op.sinks]
		if cl == nil {
			cl = &class{}
			classes[op.sinks] = cl
		}
		for _, x := range []*class{cl, total} {
			x.us += float64(op.stats.SolveTime.Microseconds()) * sc
			x.pivots += float64(op.stats.LPIterations)
		}
	}
	for _, name := range []string{"bst.route_ms", "lubt.solve_ms", "lubt.verify_ms", "core.sep_ms",
		"lp.solve_ms", "core.rowgen_ms", "lp.refactorize_ms", "embed.place_ms"} {
		m[name] = mean(m[name], n)
	}
	if total.pivots > 0 {
		m["lp.us_per_pivot"] = total.us / total.pivots
	}
	for size, cl := range classes {
		// Only the sizes the per-layer table names; the smoke test's toy
		// sizes have none.
		if name := fmt.Sprintf("lp.us_per_pivot_m%d", size); cl.pivots > 0 {
			if _, ok := specOf(name); ok {
				m[name] = cl.us / cl.pivots
			}
		}
	}
}

// failures counts the failed ops and returns the first failure.
func failures(phases ...[]clockOp) (n int, first error) {
	for _, ops := range phases {
		for _, op := range ops {
			if op.err != nil {
				if n == 0 {
					first = op.err
				}
				n++
			}
		}
	}
	return n, first
}
