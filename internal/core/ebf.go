package core

import (
	"fmt"
	"math"
	"time"

	"lubt/internal/lp"
	"lubt/internal/obs"
)

// Options tune the EBF solve.
type Options struct {
	// Solver selects an explicit cold solver (two-phase simplex or the
	// interior-point method); each row-generation round then re-solves the
	// whole LP from scratch. Nil (the default) runs the warm sparse
	// revised dual simplex, lp.Revised.
	Solver lp.Solver
	// OracleWorkers bounds the separation-oracle worker pool; ≤ 0 means
	// GOMAXPROCS. The oracle's output is deterministic regardless.
	OracleWorkers int
	// Weights is the per-edge objective weight w_k (§7 "different weights
	// on edges"), indexed by edge; nil means all ones. Entry 0 is unused;
	// a non-nil slice must have one entry per node, and entries 1…n−1
	// must be finite and ≥ 0.
	Weights []float64
	// FullMatrix disables row generation and states all C(m,2) Steiner
	// rows upfront (the ablation baseline for §4.6).
	FullMatrix bool
	// MaxRounds bounds row-generation rounds; ≤ 0 means 200.
	MaxRounds int
	// Batch is the number of violated rows added per round; ≤ 0 means
	// max(64, m).
	Batch int
	// Tol is the Steiner-violation tolerance, scaled by the instance
	// radius; ≤ 0 means 1e-7.
	Tol float64
	// Decompose controls root-branch subtree decomposition (see
	// decompose.go): "" is auto — on when the instance has at least
	// ScaleAutoSinks sinks — "on" forces it, "off" disables it. Either
	// way it engages only when the source is fixed and the topology has
	// at least two root branches, where it is exact; a free source always
	// runs monolithic.
	Decompose string
	// Tracer records solve spans (rounds, LP solves, separation scans,
	// engine refactorizations) when non-nil. Nil disables tracing at zero
	// cost — every obs call is a nil-receiver no-op.
	Tracer *obs.Tracer
}

// ScaleAutoSinks is the sink count at which the "" (auto) setting of
// Options.Decompose engages: large enough that every benchmark class at
// or below r5-s solves monolithically, small enough that the r6/r7 scale
// classes get the decomposed path by default.
const ScaleAutoSinks = 2048

// decompose resolves Options.Decompose against the instance ("" = auto
// at the ScaleAutoSinks threshold). FullMatrix never decomposes (the
// ablation states every row by definition), and neither does a free
// source: decomposition needs a fixed one, the regime where root
// branches are exactly independent given the seeded source rows.
func (o *Options) decompose(in *Instance) (bool, error) {
	s, full := "", false
	if o != nil {
		s, full = o.Decompose, o.FullMatrix
	}
	on := false
	switch s {
	case "":
		on = in.Tree.NumSinks >= ScaleAutoSinks
	case "on":
		on = true
	case "off":
	default:
		return false, fmt.Errorf("core: unknown decompose setting %q (want \"\", \"on\" or \"off\")", s)
	}
	// Free-source branches are coupled through d_i + d_j ≥ dist(i, j).
	return on && !full && in.Source != nil, nil
}

// tracer returns the configured tracer, nil (disabled) when opt is nil.
func (o *Options) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// engine builds the RowEngine the row-generation loop runs on: the warm
// revised engine by default, or a cold adapter around the explicit
// solver for cross-checking.
func (o *Options) engine(n int, w []float64) lp.RowEngine {
	if o != nil && o.Solver != nil {
		return newColdEngine(n, w, o.Solver)
	}
	return lp.NewRevised(n, w)
}

// loopParams lowers the option fields driving the row-generation loop to
// their effective values (defaults applied, tolerance scaled by radius).
func (o *Options) loopParams(in *Instance) (maxRounds, batch int, tol float64, workers int) {
	maxRounds = 200
	if o != nil && o.MaxRounds > 0 {
		maxRounds = o.MaxRounds
	}
	if o != nil {
		batch = o.Batch
	}
	if batch <= 0 {
		batch = max(64, in.Tree.NumSinks)
	}
	tol = 1e-7
	if o != nil && o.Tol > 0 {
		tol = o.Tol
	}
	tol *= math.Max(1, in.Radius())
	if o != nil {
		workers = o.OracleWorkers
	}
	return maxRounds, batch, tol, workers
}

// weights returns the per-edge objective for a tree of n nodes: unit
// weights when none are set, otherwise Options.Weights after checking it
// has n entries and that entries 1…n−1 are valid edge weights.
func (o *Options) weights(n int) ([]float64, error) {
	if o != nil && o.Weights != nil {
		if len(o.Weights) != n {
			return nil, fmt.Errorf("core: %d weights for a tree of %d nodes", len(o.Weights), n)
		}
		for k := 1; k < n; k++ {
			if err := checkWeight(k, o.Weights[k]); err != nil {
				return nil, err
			}
		}
		return o.Weights, nil
	}
	w := make([]float64, n)
	for i := 1; i < n; i++ {
		w[i] = 1
	}
	return w, nil
}

// checkWeight rejects an edge weight the engines cannot price: the dual
// simplex needs a non-negative cost, and a NaN or infinite one has no
// optimum.
func checkWeight(edge int, w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("core: edge %d weight %g must be finite and ≥ 0", edge, w)
	}
	return nil
}

// pairKey identifies an unordered fixed-point pair (stored with i ≤ j).
type pairKey struct{ i, j int }

// delayWindow lowers a sink's delay bounds (l, u) to the ranged-row
// window the engines consume: a non-positive lower bound is vacuous (path
// lengths are non-negative), an exact l = u window survives even at zero,
// and a fully unbounded window states no row at all (ok = false).
func delayWindow(l, u float64) (lo, hi float64, ok bool) {
	lo = l
	if lo <= 0 {
		lo = math.Inf(-1)
	}
	hi = u
	if l == u {
		lo, hi = l, u
	}
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		return 0, 0, false
	}
	return lo, hi, true
}

// genState is the row-generation loop state, shared between Solve (one
// run to convergence, then discarded) and the ECO Session (one run per
// Resolve against the same warm engine and Steiner row pool).
type genState struct {
	in        *Instance
	eng       lp.RowEngine
	w         []float64
	have      map[pairKey]bool
	full      bool
	batch     int
	maxRounds int
	tol       float64 // already scaled by the instance radius
	workers   int
	tr        *obs.Tracer
	ps        *presolve // the separation oracle (presolve.go)
}

// newGenState builds the loop state over an engine that already holds
// the delay rows and states the first Steiner rows: every fixed-point
// pair under FullMatrix, otherwise the oracle's seeds. windows are the
// delay windows the engine holds as fixed linear rows, which turn the
// oracle's window arm on; nil runs without it, and so does FullMatrix.
func newGenState(in *Instance, eng lp.RowEngine, w []float64, opt *Options, windows *Bounds) *genState {
	maxRounds, batch, tol, workers := opt.loopParams(in)
	g := &genState{
		in:        in,
		eng:       eng,
		w:         w,
		have:      map[pairKey]bool{},
		full:      opt != nil && opt.FullMatrix,
		batch:     batch,
		maxRounds: maxRounds,
		tol:       tol,
		workers:   workers,
		tr:        opt.tracer(),
	}
	if !g.full {
		g.ps = newPresolve(in, windows)
		for _, pr := range g.ps.seedPairs() {
			g.addPair(pr[0], pr[1])
		}
		return g
	}
	g.ps = newPresolve(in, nil)
	m := in.Tree.NumSinks
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.addPair(i, j)
		}
	}
	if in.Source != nil {
		for i := 1; i <= m; i++ {
			g.addPair(0, i)
		}
	}
	return g
}

// addPair states the Steiner row for fixed-point pair (i, j) once.
func (g *genState) addPair(i, j int) {
	if i > j {
		i, j = j, i
	}
	k := pairKey{i, j}
	if g.have[k] {
		return
	}
	g.have[k] = true
	g.eng.AddRow(unitTermsOf(g.in.Tree.Path(i, j)), lp.GE, g.in.Dist(i, j))
}

// run executes separation rounds — solve, scan, append violated rows —
// until the oracle comes back clean, and assembles the Result from the
// engine's cumulative counters.
func (g *genState) run() (*Result, error) {
	t := g.in.Tree
	n := t.N()
	var violByRound []int
	var solveTime, sepTime time.Duration
	for round := 0; ; round++ {
		if round >= g.maxRounds {
			return nil, fmt.Errorf("core: row generation did not converge in %d rounds", g.maxRounds)
		}
		rsp := g.tr.Start("round")
		rsp.SetInt("round", round)
		rsp.SetInt("rows", g.eng.NumRows())

		lsp := g.tr.Start("lp-solve")
		t0 := time.Now()
		sol, err := g.eng.Solve()
		solveTime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core: LP solve failed: %w", err)
		}
		lsp.SetInt("pivots", g.eng.Iterations())
		lsp.SetString("status", sol.Status.String())
		lsp.End()
		switch sol.Status {
		case lp.Optimal:
		case lp.Infeasible:
			// A subset of the true constraints is already infeasible, so
			// the full problem is too.
			return nil, fmt.Errorf("%w (LP infeasible after %d rounds)", ErrInfeasible, round)
		default:
			return nil, fmt.Errorf("core: LP returned %v", sol.Status)
		}

		e := make([]float64, n)
		copy(e[1:], sol.X[1:n])
		ssp := g.tr.Start("separation")
		t1 := time.Now()
		viol := g.ps.violatedPairs(t.Delays(e), g.tol, g.batch, g.workers)
		sepTime += time.Since(t1)
		ssp.SetInt("violated", len(viol))
		ssp.End()
		violByRound = append(violByRound, len(viol))
		rsp.End()
		if len(viol) == 0 || g.full {
			st := g.eng.Stats()
			st.Rounds = round + 1
			st.SteinerRows = len(g.have)
			st.ViolatedByRound = violByRound
			st.SolveTime = solveTime
			st.SeparationTime = sepTime
			st.PresolvePrunedRows = g.ps.prunedRows()
			st.PeakRows = g.eng.TableauRows()
			return &Result{E: e, Delays: t.Delays(e), Cost: weightedCost(g.w, e), Stats: st}, nil
		}
		stated := len(g.have)
		for _, pr := range viol {
			g.addPair(pr[0], pr[1])
		}
		if len(g.have) == stated {
			return nil, fmt.Errorf("%w: round %d found %d violated Steiner rows, all already in the LP", ErrStalled, round, len(viol))
		}
	}
}

// Result is a solved EBF instance.
type Result struct {
	// E holds the optimal edge lengths, indexed by edge (entry 0 unused).
	E []float64
	// Cost is the weighted tree cost Σ w_k e_k.
	Cost float64
	// Delays holds per-node linear delays under E.
	Delays []float64
	// Stats is the one observability record: engine counters (pivots,
	// refactorizations, basis size, fill-in) plus row-generation fields
	// (rounds, Steiner rows stated, per-round violated counts, separation
	// and solve wall time).
	Stats lp.Stats
}

// Solve computes the minimum-cost LUBT edge lengths for the instance and
// bounds (Theorem 4.2). It returns ErrInfeasible when no tree satisfies
// the bounds under the given topology.
//
// By default (Options.Solver nil) the row-generation loop runs on the
// sparse revised dual-simplex engine, which warm-starts from the previous
// basis after each batch of violated Steiner rows — the fast realization
// of the §4.6 constraint reduction. Passing an explicit Solver (cold
// simplex or the interior-point method) re-solves each round from
// scratch for cross-checking. Both paths share this one loop, written
// against lp.RowEngine.
func Solve(in *Instance, b Bounds, opt *Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(in); err != nil {
		return nil, err
	}
	t := in.Tree
	n := t.N() // LP variables: edges 1…n−1 mapped to columns 1…n−1 (column 0 unused but harmless)
	w, err := opt.weights(n)
	if err != nil {
		return nil, err
	}

	decomposeOn, err := opt.decompose(in)
	if err != nil {
		return nil, err
	}
	if decomposeOn {
		if res, done, err := solveDecomposed(in, b, opt); done {
			return res, err
		}
		// Fewer than two root branches: monolithic path.
	}

	tr := opt.tracer()
	ebfSpan := tr.Start("ebf")
	defer ebfSpan.End()

	eng := opt.engine(n, w)
	// Engines with internal phases (the revised engine's refactorizations
	// and resets) record them as spans under the current round.
	if tc, ok := eng.(lp.Traceable); ok {
		tc.SetTracer(tr)
	}
	// Forced-zero edges from degree splitting: engines with native
	// variable boxes (the boxed revised dual simplex) fix the variable —
	// zero rows, zero ratio-test work — everyone else gets an explicit EQ
	// row. Then the delay rows (§4.2): each finite window l ≤ path ≤ u is
	// ONE logical ranged row (the boxed engine stores it once with the
	// row's slack bounded by u − l; the cold adapter lowers it back to
	// the classic ≤/≥ pair), one-sided windows degrade to single rows,
	// and l = u pins the row's slack instead of splitting an equality.
	vb, _ := eng.(lp.VarBounder)
	for k := 1; k < n; k++ {
		if t.ForcedZero[k] {
			if vb != nil {
				vb.SetVarBounds(k, 0, 0)
			} else {
				eng.AddRow([]lp.Term{{Var: k, Coef: 1}}, lp.EQ, 0)
			}
		}
	}
	for i := 1; i <= t.NumSinks; i++ {
		lo, hi, ok := delayWindow(b.L[i], b.U[i])
		if !ok {
			continue // fully unbounded window: no constraint at all
		}
		eng.AddRangedRow(unitTermsOf(t.PathToRoot(i)), lo, hi)
	}
	// The windows stay fixed for the whole solve, so the oracle's window
	// arm prunes the rows they imply.
	return newGenState(in, eng, w, opt, &b).run()
}

// coldEngine adapts an explicit lp.Solver to the RowEngine interface: rows
// accumulate in one Problem and every Solve re-optimizes it from scratch.
// It exists for cross-checking the warm engine against the cold simplex
// and the interior-point method.
type coldEngine struct {
	p           *lp.Problem
	solver      lp.Solver
	iterations  int
	logicalRows int
	tableauRows int
	rangedRows  int
	// residual is the worst Solution.NumericalResidual any solve reported
	// (the cold solvers' terminal numerical-health gauge).
	residual float64
}

func newColdEngine(n int, w []float64, solver lp.Solver) *coldEngine {
	p := lp.NewProblem(n)
	for k := 1; k < n; k++ {
		p.SetCost(k, w[k])
	}
	// Variable 0 is a dummy (edges are 1-indexed); pin it to zero so the
	// interior-point method never sees a dangling column.
	p.AddSumEQ([]int{0}, 0, "dummy")
	return &coldEngine{p: p, solver: solver}
}

func (ce *coldEngine) AddRow(terms []lp.Term, op lp.Op, rhs float64) {
	ce.logicalRows++
	ce.tableauRows++
	if op == lp.EQ {
		ce.tableauRows++
		ce.rangedRows++
	}
	ce.p.AddConstraint(terms, op, rhs, "")
}

// AddRangedRow lowers lo ≤ Σ terms ≤ hi to the constraint forms the cold
// solvers (two-phase simplex, interior point) understand: an EQ row for an
// exact window, otherwise the finite sides as GE/LE rows. One logical row
// either way, matching the RowEngine counting contract.
func (ce *coldEngine) AddRangedRow(terms []lp.Term, lo, hi float64) {
	ce.logicalRows++
	switch {
	case lo == hi:
		ce.rangedRows++
		ce.tableauRows += 2
		ce.p.AddConstraint(terms, lp.EQ, lo, "")
	default:
		if !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
			ce.rangedRows++
		}
		if !math.IsInf(lo, -1) {
			ce.tableauRows++
			ce.p.AddConstraint(terms, lp.GE, lo, "")
		}
		if !math.IsInf(hi, 1) {
			ce.tableauRows++
			ce.p.AddConstraint(terms, lp.LE, hi, "")
		}
	}
}

func (ce *coldEngine) Solve() (*lp.Solution, error) {
	sol, err := ce.solver.Solve(ce.p)
	if sol != nil {
		ce.iterations += sol.Iterations
		if sol.NumericalResidual > ce.residual {
			ce.residual = sol.NumericalResidual
		}
	}
	return sol, err
}

func (ce *coldEngine) NumRows() int     { return ce.logicalRows }
func (ce *coldEngine) TableauRows() int { return ce.tableauRows }
func (ce *coldEngine) Iterations() int  { return ce.iterations }

func (ce *coldEngine) Stats() lp.Stats {
	st := lp.Stats{
		LPIterations:       ce.iterations,
		LogicalRows:        ce.logicalRows,
		TableauRows:        ce.tableauRows,
		LoweredTableauRows: ce.tableauRows, // cold problems are already lowered
		RangedRows:         ce.rangedRows,
		NumericalResidual:  ce.residual,
	}
	for _, c := range ce.p.Cons {
		st.RowNonzeros += len(c.Terms)
	}
	return st
}

func unitTermsOf(vars []int) []lp.Term {
	ts := make([]lp.Term, len(vars))
	for i, v := range vars {
		ts[i] = lp.Term{Var: v, Coef: 1}
	}
	return ts
}

func weightedCost(w, e []float64) float64 {
	var s float64
	for k := 1; k < len(e); k++ {
		s += w[k] * e[k]
	}
	return s
}

// Verify checks an edge-length vector against every EBF constraint by full
// enumeration (all C(m,2) Steiner rows, all delay rows, forced zeros,
// non-negativity). tol is absolute. It is the test oracle for Solve.
func Verify(in *Instance, b Bounds, e []float64, tol float64) error {
	t := in.Tree
	d := t.Delays(e)
	for k := 1; k < t.N(); k++ {
		if e[k] < -tol {
			return fmt.Errorf("core: edge %d negative (%g)", k, e[k])
		}
		if t.ForcedZero[k] && math.Abs(e[k]) > tol {
			return fmt.Errorf("core: forced-zero edge %d has length %g", k, e[k])
		}
	}
	m := t.NumSinks
	for i := 1; i <= m; i++ {
		if d[i] < b.L[i]-tol {
			return fmt.Errorf("core: sink %d delay %g below lower bound %g", i, d[i], b.L[i])
		}
		if d[i] > b.U[i]+tol {
			return fmt.Errorf("core: sink %d delay %g above upper bound %g", i, d[i], b.U[i])
		}
	}
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			if pl, need := t.PathLength(i, j, d), in.Dist(i, j); pl < need-tol {
				return fmt.Errorf("core: Steiner constraint (%d,%d) violated: path %g < dist %g", i, j, pl, need)
			}
		}
	}
	if in.Source != nil {
		for i := 1; i <= m; i++ {
			if need := in.Dist(0, i); d[i] < need-tol {
				return fmt.Errorf("core: source-sink constraint %d violated: %g < %g", i, d[i], need)
			}
		}
	}
	return nil
}
