package lubt

import (
	"fmt"
	"io"
	"math"

	"lubt/internal/core"
	"lubt/internal/embed"
	"lubt/internal/lp"
)

// Tree is a routed LUBT: topology, optimal edge lengths, the embedding,
// and summary statistics.
type Tree struct {
	// Parent is the topology as a parent vector (node 0 = root).
	Parent []int
	// NumSinks is m; nodes 1…m are sinks (matching the input order, sink
	// i+1 ↔ sinks[i]), higher ids are Steiner points.
	NumSinks int
	// EdgeLengths is indexed by edge (child node); entry 0 unused. The
	// length includes any snaking elongation.
	EdgeLengths []float64
	// Cost is the weighted total wirelength Σ w_k e_k (unit weights unless
	// overridden).
	Cost float64
	// SinkDelays is indexed like the input sink slice (0-based).
	SinkDelays []float64
	// Locations gives the embedded position of every node.
	Locations []Point
	// Elongation[k] is the snaking slack of edge k: EdgeLengths[k] minus
	// the Manhattan span of its endpoints.
	Elongation []float64
	// MinDelay, MaxDelay and Skew summarize SinkDelays.
	MinDelay, MaxDelay, Skew float64
	// Stats records the LP work behind the solve (zero-valued for the
	// constructive baselines, which run no LP).
	Stats SolveStats

	inst      *core.Instance
	bounds    core.Bounds
	placement *embed.Placement
}

// SolveStats is the public observability record of a Solve call: how much
// LP work the §4.6 row-generation loop did and where the time went —
// rounds and Steiner rows (compare against C(m,2)), pivots as
// LPIterations, the revised engine's factorization and pricing gauges,
// the scale-path counters and the separation/solve wall times. It is the
// LP layer's record itself (see lp.Stats for every field), so the bench
// JSON, `lubt -stats` and Tree.Stats read one declaration.
type SolveStats = lp.Stats

func (t *Tree) recomputeStats() {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range t.SinkDelays {
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	t.MinDelay, t.MaxDelay, t.Skew = lo, hi, hi-lo
}

// checkFinite returns an ErrNotFinite error unless every number the tree
// serializes is finite: the cost, each edge length, delay, location and
// elongation, the skew, and the top of each snaking spur Routes draws
// (an edge's location raised by half its elongation).
func (t *Tree) checkFinite() error {
	if !finite(t.Cost) {
		return fmt.Errorf("%w: the optimum costs %g", ErrNotFinite, t.Cost)
	}
	for k := 1; k < len(t.EdgeLengths); k++ {
		if !finite(t.EdgeLengths[k]) {
			return fmt.Errorf("%w: edge %d has length %g", ErrNotFinite, k, t.EdgeLengths[k])
		}
	}
	for i, d := range t.SinkDelays {
		if !finite(d) {
			return fmt.Errorf("%w: sink %d has delay %g", ErrNotFinite, i, d)
		}
	}
	if !finite(t.Skew) {
		return fmt.Errorf("%w: the skew is %g", ErrNotFinite, t.Skew)
	}
	for k, p := range t.Locations {
		el := 0.0
		if k > 0 && k < len(t.Elongation) {
			el = t.Elongation[k]
		}
		if !finite(p.X) || !finite(p.Y) || !finite(el) || (el > 0 && !finite(p.Y+el/2)) {
			return fmt.Errorf("%w: node %d at (%g, %g) with elongation %g", ErrNotFinite, k, p.X, p.Y, el)
		}
	}
	return nil
}

// Verify re-checks the tree end to end: every EBF constraint by full
// enumeration (the bounds it was solved with) and the geometric
// consistency of the embedding. It returns nil for a valid tree.
func (t *Tree) Verify() error {
	if err := core.Verify(t.inst, t.bounds, t.EdgeLengths, 1e-5*(1+t.inst.Radius())); err != nil {
		return err
	}
	var srcLoc = t.inst.Source
	return embed.VerifyPlacement(t.inst.Tree, t.inst.SinkLoc, srcLoc, t.EdgeLengths,
		t.placement, 1e-5*(1+t.inst.Radius()))
}

// Routes returns one rectilinear polyline per edge (indexed by edge,
// entry 0 nil) realizing each edge's exact length, elongation rendered as
// a snaking spur.
func (t *Tree) Routes() [][]Point {
	rs := embed.Routes(t.inst.Tree, t.placement, t.EdgeLengths)
	out := make([][]Point, len(rs))
	for i, r := range rs {
		if r == nil {
			continue
		}
		pts := make([]Point, len(r))
		for j, p := range r {
			pts[j] = fromG(p)
		}
		out[i] = pts
	}
	return out
}

// TotalElongation sums the snaking slack over all edges — the wirelength
// spent purely on meeting lower bounds.
func (t *Tree) TotalElongation() float64 {
	var s float64
	for _, e := range t.Elongation {
		if e > 0 {
			s += e
		}
	}
	return s
}

// WriteSVG renders the routed tree as a standalone SVG: sinks as squares,
// the source as a circle, Steiner points as dots, wires as polylines.
func (t *Tree) WriteSVG(w io.Writer) error {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range t.Locations {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	span := math.Max(maxX-minX, maxY-minY)
	if span == 0 {
		span = 1
	}
	pad := span * 0.05
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" viewBox="%g %g %g %g" width="800" height="800">`+"\n",
		minX-pad, minY-pad, span+2*pad, span+2*pad); err != nil {
		return err
	}
	sw := span / 400
	for _, route := range t.Routes() {
		if route == nil {
			continue
		}
		fmt.Fprintf(w, `<polyline fill="none" stroke="#456" stroke-width="%g" points="`, sw)
		for _, p := range route {
			fmt.Fprintf(w, "%g,%g ", p.X, maxY-(p.Y-minY)) // flip y for SVG
		}
		fmt.Fprintln(w, `"/>`)
	}
	mark := span / 150
	for i, p := range t.Locations {
		y := maxY - (p.Y - minY)
		switch {
		case i == 0:
			fmt.Fprintf(w, `<circle cx="%g" cy="%g" r="%g" fill="#c33"/>`+"\n", p.X, y, 1.8*mark)
		case i <= t.NumSinks:
			fmt.Fprintf(w, `<rect x="%g" y="%g" width="%g" height="%g" fill="#283"/>`+"\n",
				p.X-mark, y-mark, 2*mark, 2*mark)
		default:
			fmt.Fprintf(w, `<circle cx="%g" cy="%g" r="%g" fill="#888"/>`+"\n", p.X, y, 0.7*mark)
		}
	}
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("lubt.Tree(%d sinks, cost %.2f, delays [%.3f, %.3f], skew %.3f)",
		t.NumSinks, t.Cost, t.MinDelay, t.MaxDelay, t.Skew)
}
