// Package lubt constructs Lower and Upper Bounded delay routing Trees
// (LUBTs) in the Manhattan plane using linear programming, implementing
// Oh, Pyo and Pedram, "Constructing Lower and Upper Bounded Delay Routing
// Trees Using Linear Programming" (USC CENG 96-05 / DAC 1996).
//
// A LUBT is a Steiner tree rooted at a source such that the delay from
// the source to each sink s_i lies in a prescribed window [l_i, u_i].
// Under the linear delay model the minimum-cost tree for a fixed topology
// is the solution of a linear program over the *edge lengths* (the
// Edge-Based Formulation, EBF); Steiner point positions follow from a
// DME-style geometric pass. The formulation subsumes global routing
// (l = 0), bounded-skew clock routing (u − l = skew bound) and zero-skew
// clock routing (l = u) as special cases.
//
// Typical use:
//
//	inst := lubt.NewInstance(sinks)                 // sinks in the plane
//	_ = inst.UseSkewGuidedTopology(skew)            // or Balanced/Custom
//	tree, err := inst.Solve(lubt.Uniform(len(sinks), l, u), nil)
//	// tree.Cost, tree.SinkDelays, tree.Locations, tree.Verify() ...
//
// The package also exposes the bounded-skew baseline the paper compares
// against (BoundedSkewBaseline) and the Elmore-delay extension
// (SolveElmore).
package lubt

import (
	"errors"
	"fmt"
	"io"
	"math"

	"lubt/internal/bst"
	"lubt/internal/core"
	"lubt/internal/delay"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/obs"
	"lubt/internal/topology"
	"lubt/internal/zst"
)

// Point is a location in the Manhattan plane.
type Point struct {
	X, Y float64
}

// Dist returns the Manhattan distance between two points.
func Dist(a, b Point) float64 { return geom.Dist(gp(a), gp(b)) }

func gp(p Point) geom.Point    { return geom.Point(p) }
func fromG(p geom.Point) Point { return Point(p) }

// ErrInfeasible reports that no tree satisfies the requested bounds under
// the chosen topology (cf. Fig. 1 of the paper).
var ErrInfeasible = errors.New("lubt: no tree satisfies the bounds under this topology")

// ErrStalled is returned (wrapped) when the LP's optimum violates rows
// it holds — Steiner rows row generation cannot add again, or a delay
// window the error names: the delay bounds are so large next to the
// instance's distances that the LP's feasibility tolerance, which grows
// with the largest bound, cannot resolve them. An unbounded window top
// (math.Inf(1)) avoids it.
var ErrStalled = errors.New("lubt: row generation stalled on bounds too large for the instance")

// coreErr translates a core solve error: the core's infeasibility and
// stall verdicts become the facade's sentinels.
func coreErr(err error) error {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	case errors.Is(err, core.ErrStalled):
		return fmt.Errorf("%w: %v", ErrStalled, err)
	}
	return err
}

// ErrNotFinite is returned (wrapped, with the offending coordinate or
// value) for numbers float64 cannot carry through a solve: a sink or
// source coordinate that is NaN or infinite or whose x ± y overflows, a
// bounding box whose half-perimeter overflows, or an optimum whose cost,
// an edge length, a delay or an embedded coordinate overflows.
var ErrNotFinite = errors.New("lubt: not finite")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkPoints returns an ErrNotFinite error naming the first sink or the
// source with a coordinate that is not finite or whose ±45° coordinates
// x ± y overflow (the merge regions of the router live in them), or the
// bounding box of sinks and source when its half-perimeter overflows:
// distances between the points would then overflow too.
func checkPoints(sinks []geom.Point, source *geom.Point) error {
	for i, s := range sinks {
		if !finite(math.Abs(s.X) + math.Abs(s.Y)) {
			return fmt.Errorf("%w: sink %d at (%g, %g)", ErrNotFinite, i, s.X, s.Y)
		}
	}
	var lo, hi geom.Point
	switch {
	case source != nil:
		if !finite(math.Abs(source.X) + math.Abs(source.Y)) {
			return fmt.Errorf("%w: source at (%g, %g)", ErrNotFinite, source.X, source.Y)
		}
		lo, hi = *source, *source
	case len(sinks) > 0:
		lo, hi = sinks[0], sinks[0]
	default:
		return nil
	}
	for _, p := range sinks {
		lo = geom.Pt(min(lo.X, p.X), min(lo.Y, p.Y))
		hi = geom.Pt(max(hi.X, p.X), max(hi.Y, p.Y))
	}
	if hp := (hi.X - lo.X) + (hi.Y - lo.Y); !finite(hp) {
		return fmt.Errorf("%w: the bounding box from (%g, %g) to (%g, %g) has half-perimeter %g",
			ErrNotFinite, lo.X, lo.Y, hi.X, hi.Y, hp)
	}
	return nil
}

// Bounds is the per-sink delay window, indexed like the sink slice
// (0-based).
type Bounds struct {
	Lower, Upper []float64
}

// Uniform gives all m sinks the window [l, u]. Use math.Inf(1) for an
// unbounded upper limit.
func Uniform(m int, l, u float64) Bounds {
	b := Bounds{Lower: make([]float64, m), Upper: make([]float64, m)}
	for i := range b.Lower {
		b.Lower[i] = l
		b.Upper[i] = u
	}
	return b
}

// SkewBounds is the tolerable-skew clock routing window of §6: all delays
// in [u−skew, u].
func SkewBounds(m int, skew, u float64) Bounds {
	return Uniform(m, u-skew, u)
}

func (b Bounds) toCore(m int) (core.Bounds, error) {
	if len(b.Lower) != m || len(b.Upper) != m {
		return core.Bounds{}, fmt.Errorf("lubt: bounds sized %d/%d for %d sinks",
			len(b.Lower), len(b.Upper), m)
	}
	cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	copy(cb.L[1:], b.Lower)
	copy(cb.U[1:], b.Upper)
	return cb, nil
}

// Options tune a solve.
type Options struct {
	// Weights holds per-edge objective weights (§7), indexed by edge
	// (child node id); nil means unit weights. A non-nil slice needs one
	// entry per node of the chosen topology (len(Topology())), and
	// entries 1…n−1 must be finite and ≥ 0; entry 0 is unused.
	Weights []float64
	// Placement selects where nodes land inside their feasible regions:
	// "nearest" (default) or "center".
	Placement string
	// OracleWorkers caps the separation oracle's worker pool; 0 means
	// GOMAXPROCS. The oracle's output order is deterministic for any
	// worker count. Solve's oracle also skips the Steiner rows its delay
	// windows imply, never changing the optimum, and reports their count
	// in SolveStats.PresolvePrunedRows; SolveECO (whose windows are
	// edited) and SolveElmore run it without that pruning.
	OracleWorkers int
	// Decompose controls root-branch subtree decomposition: "" (auto —
	// from 2048 sinks up), "on" or "off". It engages only when the source
	// is fixed and the topology has two or more root branches, where the
	// branch optima compose exactly; other instances run monolithic.
	// SolveStats.Subtrees reports the branch count (0 = monolithic).
	Decompose string
	// TraceJSON, when non-nil, enables span tracing for the solve and
	// writes the resulting span tree (schema "lubt-trace/1"; see package
	// internal/obs) to the writer on success. Nil (the default) disables
	// tracing entirely — the disabled path is allocation-free.
	TraceJSON io.Writer
}

// tracer builds the solve tracer when tracing is requested; the nil
// tracer it otherwise returns disables every obs call site.
func (o *Options) tracer(root string) *obs.Tracer {
	if o == nil || o.TraceJSON == nil {
		return nil
	}
	return obs.NewTracer(root)
}

// writeTrace closes the tracer and emits its JSON when tracing is on.
func (o *Options) writeTrace(tr *obs.Tracer) error {
	if !tr.Enabled() {
		return nil
	}
	tr.Close()
	if err := tr.WriteJSON(o.TraceJSON); err != nil {
		return fmt.Errorf("lubt: writing trace: %w", err)
	}
	return nil
}

func (o *Options) embedOptions() (*embed.Options, error) {
	eo := &embed.Options{}
	if o != nil {
		switch o.Placement {
		case "", "nearest":
		case "center":
			eo.Policy = embed.Center
		default:
			return nil, fmt.Errorf("lubt: unknown placement policy %q", o.Placement)
		}
	}
	return eo, nil
}

// Instance is a LUBT problem under construction: sink locations, an
// optional fixed source, and a routing topology.
type Instance struct {
	sinks  []geom.Point
	source *geom.Point
	tree   *topology.Tree
}

// NewInstance starts an instance over the given sinks (at least one),
// whose coordinates must be finite with a finite bounding-box
// half-perimeter (ErrNotFinite otherwise).
func NewInstance(sinks []Point) (*Instance, error) {
	if len(sinks) == 0 {
		return nil, errors.New("lubt: instance needs at least one sink")
	}
	in := &Instance{sinks: make([]geom.Point, len(sinks))}
	for i, s := range sinks {
		in.sinks[i] = gp(s)
	}
	if err := checkPoints(in.sinks, nil); err != nil {
		return nil, err
	}
	return in, nil
}

// SetSource fixes the source location (making Eq. 3 of the paper apply
// instead of Eq. 4). Call before choosing a topology. A non-finite
// source, or one that makes the bounding box's half-perimeter overflow,
// is reported by the topology and solve methods (ErrNotFinite).
func (in *Instance) SetSource(p Point) {
	s := gp(p)
	in.source = &s
}

// NumSinks returns the sink count m.
func (in *Instance) NumSinks() int { return len(in.sinks) }

// Radius returns the paper's §2 radius: source-to-farthest-sink distance
// when the source is fixed, half the sink diameter otherwise. Delay
// bounds are commonly expressed as multiples of this value.
func (in *Instance) Radius() float64 {
	return in.coreInstance(in.treeOrNil()).Radius()
}

func (in *Instance) treeOrNil() *topology.Tree {
	if in.tree != nil {
		return in.tree
	}
	// Radius does not depend on the topology; synthesize a trivial one.
	t, err := topology.Balanced(in.sinks, in.source != nil)
	if err != nil {
		// Single sink without source: fall back to a 2-node chain.
		t = topology.MustNew([]int{-1, 0}, 1)
	}
	return t
}

// checkSolvable is the solve methods' entry check: a topology was
// chosen, and the coordinates pass checkPoints.
func (in *Instance) checkSolvable() error {
	if in.tree == nil {
		return errors.New("lubt: choose a topology before solving")
	}
	return checkPoints(in.sinks, in.source)
}

func (in *Instance) coreInstance(t *topology.Tree) *core.Instance {
	ci := &core.Instance{Tree: t, SinkLoc: make([]geom.Point, len(in.sinks)+1)}
	copy(ci.SinkLoc[1:], in.sinks)
	ci.Source = in.source
	return ci
}

// UseBalancedTopology installs a recursive-bipartition binary topology.
func (in *Instance) UseBalancedTopology() error {
	if err := checkPoints(in.sinks, in.source); err != nil {
		return err
	}
	t, err := topology.Balanced(in.sinks, in.source != nil)
	if err != nil {
		return err
	}
	in.tree = t
	return nil
}

// UseSkewGuidedTopology installs the topology produced by the baseline
// bounded-skew generator at the given skew bound — the methodology of the
// paper's §8, which adopts the generator of its reference [9]. Use
// math.Inf(1) for a pure nearest-neighbour Steiner topology.
func (in *Instance) UseSkewGuidedTopology(skewBound float64) error {
	if err := checkPoints(in.sinks, in.source); err != nil {
		return err
	}
	res, err := bst.Route(in.sinks, skewBound, in.source)
	if err != nil {
		return err
	}
	in.tree = res.Tree
	return nil
}

// UseCustomTopology installs a caller-provided topology as a parent
// vector: node 0 is the root (the source if one is set), nodes 1…m are the
// sinks in input order, higher ids are Steiner points. Nodes with more
// than two children are split with zero-length edges (Fig. 2).
func (in *Instance) UseCustomTopology(parent []int) error {
	if err := checkPoints(in.sinks, in.source); err != nil {
		return err
	}
	t, err := topology.New(parent, len(in.sinks))
	if err != nil {
		return err
	}
	t, err = t.SplitHighDegree()
	if err != nil {
		return err
	}
	in.tree = t
	return nil
}

// Topology returns the current topology as a parent vector, or nil if none
// was chosen yet.
func (in *Instance) Topology() []int {
	if in.tree == nil {
		return nil
	}
	return append([]int(nil), in.tree.Parent...)
}

// Solve runs the EBF linear program (Theorem 4.2: minimum cost for the
// topology under linear delay) and embeds the result. A topology must
// have been chosen. Returns ErrInfeasible when the bounds are
// unsatisfiable under the topology, and ErrNotFinite for non-finite
// coordinates or an optimum that overflows float64.
func (in *Instance) Solve(b Bounds, opt *Options) (*Tree, error) {
	if err := in.checkSolvable(); err != nil {
		return nil, err
	}
	cb, err := b.toCore(len(in.sinks))
	if err != nil {
		return nil, err
	}
	tr := opt.tracer("solve")
	copts := &core.Options{Tracer: tr}
	if opt != nil {
		copts.OracleWorkers = opt.OracleWorkers
		copts.Decompose = opt.Decompose
		if opt.Weights != nil {
			copts.Weights = opt.Weights
		}
	}
	ci := in.coreInstance(in.tree)
	res, err := core.Solve(ci, cb, copts)
	if err != nil {
		return nil, coreErr(err)
	}
	tree, err := in.finish(ci, cb, res.E, res.Cost, opt, tr)
	if err != nil {
		return nil, err
	}
	tree.Stats = res.Stats
	if err := opt.writeTrace(tr); err != nil {
		return nil, err
	}
	return tree, nil
}

// SolveElmore runs the §7 Elmore-delay extension: the delay windows are
// interpreted under the Elmore model and solved by sequential linear
// programming (heuristic; see package core) on one persistent warm
// revised engine. Rw/Cw are wire resistance and capacitance per unit length, finite and
// ≥ 0 and not both zero; sinkCap is indexed like the sinks (nil means
// zero loads) and its loads are finite and ≥ 0. The same input gives the
// same tree on every run.
func (in *Instance) SolveElmore(b Bounds, rw, cw float64, sinkCap []float64, opt *Options) (*Tree, error) {
	if err := in.checkSolvable(); err != nil {
		return nil, err
	}
	cb, err := b.toCore(len(in.sinks))
	if err != nil {
		return nil, err
	}
	mdl, err := elmoreModel(rw, cw, sinkCap, len(in.sinks))
	if err != nil {
		return nil, err
	}
	tr := opt.tracer("solve-elmore")
	eopts := &core.ElmoreOptions{Model: mdl, Tracer: tr}
	if opt != nil && opt.Weights != nil {
		eopts.Weights = opt.Weights
	}
	ci := in.coreInstance(in.tree)
	res, err := core.SolveElmore(ci, cb, eopts)
	if err != nil {
		return nil, coreErr(err)
	}
	tree, err := in.finish(ci, core.UniformBounds(len(in.sinks), 0, math.Inf(1)), res.E, res.Cost, opt, tr)
	if err != nil {
		return nil, err
	}
	// Report Elmore delays instead of linear ones.
	for i := range tree.SinkDelays {
		tree.SinkDelays[i] = res.Delays[i+1]
	}
	tree.recomputeStats()
	if err := tree.checkFinite(); err != nil {
		return nil, err
	}
	// The merged SLP record (warm start + one lp.Stats per iteration)
	// becomes the tree's public stats.
	tree.Stats = res.Stats
	if err := opt.writeTrace(tr); err != nil {
		return nil, err
	}
	return tree, nil
}

// elmoreModel builds the Elmore model of a net of m sinks from the
// facade's sink-indexed loads (nil means zero loads); the model's own
// rules are checked by delay.Elmore.Validate where it is used.
func elmoreModel(rw, cw float64, sinkCap []float64, m int) (delay.Elmore, error) {
	mdl := delay.Elmore{Rw: rw, Cw: cw}
	if sinkCap != nil {
		if len(sinkCap) != m {
			return mdl, fmt.Errorf("lubt: %d sink loads for %d sinks", len(sinkCap), m)
		}
		mdl.SinkCap = make([]float64, m+1)
		copy(mdl.SinkCap[1:], sinkCap)
	}
	return mdl, nil
}

// finish embeds edge lengths and assembles the public Tree.
func (in *Instance) finish(ci *core.Instance, cb core.Bounds, e []float64, cost float64, opt *Options, tr *obs.Tracer) (*Tree, error) {
	eo, err := opt.embedOptions()
	if err != nil {
		return nil, err
	}
	if err := checkReach(ci, e); err != nil {
		return nil, err
	}
	eo.Tracer = tr
	pl, err := embed.Place(ci.Tree, ci.SinkLoc, ci.Source, e, eo)
	if err != nil {
		return nil, fmt.Errorf("lubt: embedding failed: %w", err)
	}
	return newTree(ci, cb, e, cost, ci.Tree.Delays(e), pl)
}

// newTree assembles the public Tree of a routed instance from its edge
// lengths, cost, per-node delays and embedding, and checks that every
// number it reports is finite.
func newTree(ci *core.Instance, cb core.Bounds, e []float64, cost float64, delays []float64, pl *embed.Placement) (*Tree, error) {
	t := ci.Tree
	tree := &Tree{
		Parent:      append([]int(nil), t.Parent...),
		NumSinks:    t.NumSinks,
		EdgeLengths: append([]float64(nil), e...),
		Cost:        cost,
		SinkDelays:  make([]float64, t.NumSinks),
		Locations:   make([]Point, t.N()),
		Elongation:  append([]float64(nil), pl.Elongation...),
		inst:        ci,
		bounds:      cb,
		placement:   pl,
	}
	for i := 1; i <= t.NumSinks; i++ {
		tree.SinkDelays[i-1] = delays[i]
	}
	for i, p := range pl.Loc {
		tree.Locations[i] = fromG(p)
	}
	tree.recomputeStats()
	if err := tree.checkFinite(); err != nil {
		return nil, err
	}
	return tree, nil
}

// checkReach returns an ErrNotFinite error unless an embedding of the
// edge lengths e stays inside float64: every embedded point, and every
// snaking spur, lies within the total wirelength Σe (in L1) of a sink or
// the source, so the farthest point's |x| + |y| plus 2·Σe must be finite.
func checkReach(ci *core.Instance, e []float64) error {
	far := 0.0
	for _, p := range ci.SinkLoc[1:] {
		far = max(far, math.Abs(p.X)+math.Abs(p.Y))
	}
	if ci.Source != nil {
		far = max(far, math.Abs(ci.Source.X)+math.Abs(ci.Source.Y))
	}
	sum := 0.0
	for k := 1; k < len(e); k++ {
		sum += e[k]
	}
	if !finite(far + 2*sum) {
		return fmt.Errorf("%w: edge lengths summing to %g embed past float64 from a point with |x| + |y| = %g", ErrNotFinite, sum, far)
	}
	return nil
}

// ElmoreZeroSkew routes the sinks with the exact zero-skew algorithm of
// the paper's reference [4] (Tsay, ICCAD'91) under the Elmore delay model:
// merging segments are balanced by closed-form tapping points, with wire
// snaking where no split of the direct wire balances. All sink Elmore
// delays in the result are exactly equal. It complements SolveElmore the
// way BoundedSkewBaseline complements Solve: a constructive baseline from
// the literature next to the paper's optimization formulation. Rw and Cw
// must be finite and positive; sinkCap is as in SolveElmore.
func ElmoreZeroSkew(sinks []Point, rw, cw float64, sinkCap []float64, source *Point) (*Tree, error) {
	return baseline(sinks, source, func(gs []geom.Point, src *geom.Point) (*baselineRoute, error) {
		mdl, err := elmoreModel(rw, cw, sinkCap, len(sinks))
		if err != nil {
			return nil, err
		}
		res, err := zst.Route(gs, mdl, src)
		if err != nil {
			return nil, err
		}
		return &baselineRoute{res.Tree, res.E, res.Cost, res.Delays, res.Placement}, nil
	})
}

// BoundedSkewBaseline routes the sinks with the reimplemented
// bounded-skew generator of the paper's reference [9]: greedy
// nearest-neighbour merging with delay-interval bookkeeping. It is the
// comparison baseline of Table 1 and the topology provider for the LUBT
// methodology. skewBound may be math.Inf(1).
func BoundedSkewBaseline(sinks []Point, skewBound float64, source *Point) (*Tree, error) {
	return baseline(sinks, source, func(gs []geom.Point, src *geom.Point) (*baselineRoute, error) {
		res, err := bst.Route(gs, skewBound, src)
		if err != nil {
			return nil, err
		}
		return &baselineRoute{res.Tree, res.E, res.Cost, res.Delays, res.Placement}, nil
	})
}

// baselineRoute is what a constructive baseline router returns: a
// topology with its edge lengths, cost, per-node delays and embedding.
type baselineRoute struct {
	tree      *topology.Tree
	e         []float64
	cost      float64
	delays    []float64
	placement *embed.Placement
}

// baseline checks the points, runs a constructive router over them and
// assembles its route as a public Tree whose windows are [0, ∞).
func baseline(sinks []Point, source *Point, route func([]geom.Point, *geom.Point) (*baselineRoute, error)) (*Tree, error) {
	gs := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		gs[i] = gp(s)
	}
	var src *geom.Point
	if source != nil {
		s := gp(*source)
		src = &s
	}
	if err := checkPoints(gs, src); err != nil {
		return nil, err
	}
	res, err := route(gs, src)
	if err != nil {
		return nil, err
	}
	t := res.tree
	ci := &core.Instance{Tree: t, SinkLoc: make([]geom.Point, len(sinks)+1), Source: src}
	copy(ci.SinkLoc[1:], gs)
	return newTree(ci, core.UniformBounds(t.NumSinks, 0, math.Inf(1)), res.e, res.cost, res.delays, res.placement)
}
