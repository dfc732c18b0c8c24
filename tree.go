package lubt

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

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
// LP work the §4.6 row-generation loop did and where the time went. The
// engine counters (pivots, refactorizations, basis size, fill-in) come
// from the LP layer; the round fields from the row-generation loop.
type SolveStats struct {
	// Rounds is the number of row-generation rounds; SteinerRows the
	// Steiner rows stated in the final LP (compare against C(m,2)).
	Rounds      int
	SteinerRows int
	// LPIterations counts simplex pivots (or IPM iterations) across all
	// rounds. Refactorizations, Resets, BasisSize and FillIn are revised
	// dual-simplex internals: basis refactorization count, full basis
	// resets after numerical trouble, the structural-core dimension of the
	// basis, and the LU fill-in beyond the basis core at the last
	// refactorization.
	LPIterations     int
	Refactorizations int
	Resets           int
	BasisSize        int
	FillIn           int
	// LogicalRows counts constraint rows as stated (an EQ or ranged row
	// once); TableauRows counts engine-internal rows — the boxed revised
	// engine stores each delay window as ONE row with a bounded slack,
	// while the cold solvers lower it to a ≤/≥ pair.
	// LoweredTableauRows is what the two-row lowering would need, so
	// (TableauRows, LoweredTableauRows) measures the delay-window row
	// halving. RangedRows counts logical rows stated with a two-sided (or
	// exact) window; RowNonzeros the stored constraint nonzeros.
	LogicalRows        int
	TableauRows        int
	LoweredTableauRows int
	RangedRows         int
	RowNonzeros        int
	// BoundFlips counts nonbasic bound-to-bound flips taken inside the
	// boxed dual ratio test (cheaper than pivots: one shared FTRAN per
	// batch).
	BoundFlips int
	// Restages counts post-solve edits the engine absorbed without
	// refactorizing (bound boxes, costs, rhs-only row retightens);
	// RowReplacements counts structural row rewrites (coefficient pattern
	// changes, deletions, revivals). Both stay 0 on cold solvers.
	Restages        int
	RowReplacements int
	// PricingScheme names the leaving-row rule the revised engine ran
	// with ("devex", "most-violated", "steepest-exact"; empty for the
	// other solvers). DevexResets counts Devex reference-framework
	// restarts forced by weight overflow; WeightMin/WeightMax bracket the
	// reference weights at the end of the solve (0 under most-violated).
	PricingScheme        string
	DevexResets          int
	WeightMin, WeightMax float64
	// EtaLen is the eta-file length consumed by the engine's last
	// refactorization; NumericalResidual is the terminal numerical-health
	// gauge (eta-replay drift for the revised engine, final scaled KKT
	// residual for the IPM, worst constraint violation of the returned
	// vertex for the cold simplex). PivotMin/PivotMax bracket the |pivot
	// element| magnitudes accepted across the solve — a PivotMin many
	// orders below PivotMax warns of ill-conditioned bases. ResetReasons
	// lists one reason code per basis reset, in order (see lp.Stats).
	EtaLen             int
	NumericalResidual  float64
	PivotMin, PivotMax float64
	ResetReasons       []string
	// PresolvePrunedRows counts candidate Steiner rows the dominance
	// presolve proved implied and never generated or priced (0 with
	// presolve off or below the auto threshold). Subtrees is the number of
	// root-branch subproblems the solve was decomposed into (0 for a
	// monolithic solve). PeakRows is the largest tableau row count any
	// single engine held — under decomposition this is the per-branch
	// memory high-water mark, not the sum.
	PresolvePrunedRows int
	Subtrees           int
	PeakRows           int
	// ViolatedByRound is the separation oracle's violated-pair count per
	// round (0 in the last entry on convergence).
	ViolatedByRound []int
	// SeparationTime is wall time spent scanning sink pairs; SolveTime is
	// wall time inside LP solves.
	SeparationTime time.Duration
	SolveTime      time.Duration
}

// String renders the stats as a compact multi-line summary (what
// cmd/lubt -stats prints).
func (s SolveStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds %d  steiner-rows %d  lp-iterations %d\n",
		s.Rounds, s.SteinerRows, s.LPIterations)
	fmt.Fprintf(&b, "rows %d logical / %d tableau (%d lowered, %d ranged)  nnz %d\n",
		s.LogicalRows, s.TableauRows, s.LoweredTableauRows, s.RangedRows, s.RowNonzeros)
	fmt.Fprintf(&b, "refactorizations %d  basis %d  fill-in %d  resets %d  bound-flips %d\n",
		s.Refactorizations, s.BasisSize, s.FillIn, s.Resets, s.BoundFlips)
	if s.Restages > 0 || s.RowReplacements > 0 {
		fmt.Fprintf(&b, "restages %d  row-replacements %d\n", s.Restages, s.RowReplacements)
	}
	if s.PresolvePrunedRows > 0 || s.Subtrees > 0 || s.PeakRows > 0 {
		fmt.Fprintf(&b, "presolve-pruned %d  subtrees %d  peak-rows %d\n",
			s.PresolvePrunedRows, s.Subtrees, s.PeakRows)
	}
	fmt.Fprintf(&b, "eta-len %d  residual %.3g  pivot-el [%.3g, %.3g]\n",
		s.EtaLen, s.NumericalResidual, s.PivotMin, s.PivotMax)
	if s.PricingScheme != "" {
		fmt.Fprintf(&b, "pricing %s  devex-resets %d  weights [%.3g, %.3g]\n",
			s.PricingScheme, s.DevexResets, s.WeightMin, s.WeightMax)
	}
	fmt.Fprintf(&b, "sep-scan %v  lp-solve %v", s.SeparationTime.Round(time.Microsecond), s.SolveTime.Round(time.Microsecond))
	if len(s.ResetReasons) > 0 {
		fmt.Fprintf(&b, "\nreset-reasons %v", s.ResetReasons)
	}
	if len(s.ViolatedByRound) > 0 {
		fmt.Fprintf(&b, "\nviolated/round %v", s.ViolatedByRound)
	}
	return b.String()
}

// solveStatsFrom converts the internal result record to the public one.
func solveStatsFrom(res *core.Result) SolveStats {
	s := solveStatsFromLP(res.Stats)
	s.Rounds = res.Rounds
	s.SteinerRows = res.RowsUsed
	s.LPIterations = res.LPIterations
	return s
}

// solveStatsFromLP maps a raw lp.Stats record onto the public SolveStats
// (used directly for the Elmore path, whose merged record already carries
// rounds and pivots).
func solveStatsFromLP(st lp.Stats) SolveStats {
	return SolveStats{
		Rounds:             st.Rounds,
		LPIterations:       st.Pivots,
		Refactorizations:   st.Refactorizations,
		Resets:             st.Resets,
		BasisSize:          st.BasisSize,
		FillIn:             st.FillIn,
		LogicalRows:        st.LogicalRows,
		TableauRows:        st.TableauRows,
		LoweredTableauRows: st.LoweredTableauRows,
		RangedRows:         st.RangedRows,
		RowNonzeros:        st.RowNonzeros,
		BoundFlips:         st.BoundFlips,
		Restages:           st.Restages,
		RowReplacements:    st.RowReplacements,
		PricingScheme:      st.PricingScheme,
		DevexResets:        st.DevexResets,
		WeightMin:          st.WeightMin,
		WeightMax:          st.WeightMax,
		EtaLen:             st.EtaLen,
		NumericalResidual:  st.NumericalResidual,
		PresolvePrunedRows: st.PresolvePrunedRows,
		Subtrees:           st.Subtrees,
		PeakRows:           st.PeakRows,
		PivotMin:           st.PivotMin,
		PivotMax:           st.PivotMax,
		ResetReasons:       append([]string(nil), st.ResetReasons...),
		ViolatedByRound:    append([]int(nil), st.ViolatedByRound...),
		SeparationTime:     st.SeparationTime,
		SolveTime:          st.SolveTime,
	}
}

func (t *Tree) recomputeStats() {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range t.SinkDelays {
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	t.MinDelay, t.MaxDelay, t.Skew = lo, hi, hi-lo
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
