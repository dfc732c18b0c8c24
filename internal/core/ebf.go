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
	// OracleWorkers bounds the separation-oracle worker pool; ≤ 0 means
	// GOMAXPROCS. The oracle's output is deterministic regardless.
	OracleWorkers int
	// Weights is the per-edge objective weight w_k (§7 "different weights
	// on edges"), indexed by edge; nil means all ones. Entry 0 is unused;
	// a non-nil slice must have one entry per node, and entries 1…n−1
	// must be finite and ≥ 0.
	Weights []float64
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
// at the ScaleAutoSinks threshold). A free source never decomposes:
// decomposition needs a fixed one, the regime where root branches are
// exactly independent given the seeded source rows.
func (o *Options) decompose(in *Instance) (bool, error) {
	s := ""
	if o != nil {
		s = o.Decompose
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
	return on && in.Source != nil, nil
}

// tracer returns the configured tracer, nil (disabled) when opt is nil.
func (o *Options) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
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

// stageEngine builds the warm engine over the instance's edges, in the
// order Solve and NewSession both rely on: the tracer, so the engine's
// refactorizations and resets nest under the loop's round spans; the
// forced-zero edges of degree splitting as fixed boxes e_k ∈ [0, 0] (no
// row, no ratio-test work); then the delay rows (§4.2), one ranged row
// l ≤ path ≤ u per sink whose window is not vacuous, stored once with
// the slack bounded by u − l (l = u pins the slack). delayRow maps sink
// id → the tableau row of its window, or −1 where none was stated.
func stageEngine(in *Instance, b Bounds, w []float64, tr *obs.Tracer) (rv *lp.Revised, delayRow []int) {
	t := in.Tree
	rv = lp.NewRevised(t.N(), w)
	rv.SetTracer(tr)
	for k := 1; k < t.N(); k++ {
		if t.ForcedZero[k] {
			rv.SetVarBounds(k, 0, 0)
		}
	}
	delayRow = make([]int, t.NumSinks+1)
	for i := 1; i <= t.NumSinks; i++ {
		delayRow[i] = -1
		lo, hi, ok := delayWindow(b.L[i], b.U[i])
		if !ok {
			continue // fully unbounded window: no constraint at all
		}
		delayRow[i] = rv.TableauRows()
		rv.AddRangedRow(unitTermsOf(t.PathToRoot(i)), lo, hi)
	}
	return rv, delayRow
}

// genState is the row-generation loop state, shared between Solve (one
// run to convergence, then discarded) and the ECO Session (one run per
// Resolve against the same warm engine and Steiner row pool).
type genState struct {
	in *Instance
	// b holds the delay windows the engine states; a converged optimum
	// must meet them (the Session edits them in place).
	b         *Bounds
	rv        *lp.Revised
	w         []float64
	have      map[pairKey]bool
	batch     int
	maxRounds int
	tol       float64 // already scaled by the instance radius
	workers   int
	tr        *obs.Tracer
	ps        *presolve // the separation oracle (presolve.go)
}

// newGenState builds the loop state over an engine that already holds
// the delay rows of b and states the oracle's seed rows. windowArm turns
// the oracle's window arm on, which only windows that stay fixed for
// the whole loop allow.
func newGenState(in *Instance, rv *lp.Revised, w []float64, b *Bounds, windowArm bool, opt *Options) *genState {
	maxRounds, batch, tol, workers := opt.loopParams(in)
	g := &genState{
		in:        in,
		b:         b,
		rv:        rv,
		w:         w,
		have:      map[pairKey]bool{},
		batch:     batch,
		maxRounds: maxRounds,
		tol:       tol,
		workers:   workers,
		tr:        opt.tracer(),
	}
	var windows *Bounds
	if windowArm {
		windows = b
	}
	g.ps = newPresolve(in, windows)
	for _, pr := range g.ps.seedPairs() {
		g.addPair(pr[0], pr[1])
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
	g.rv.AddRow(unitTermsOf(g.in.Tree.Path(i, j)), lp.GE, g.in.Dist(i, j))
}

// run executes separation rounds — solve, scan, append violated rows —
// until the oracle comes back clean, and assembles the Result from the
// engine's cumulative counters. The converged optimum must also meet
// the rows the loop never re-checks (edges, delay windows, source
// rows): the engine's feasibility tolerance grows with its largest
// bound, so a huge window top can let it accept a point that breaks
// them, and that is reported as ErrStalled.
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
		rsp.SetInt("rows", g.rv.NumRows())

		lsp := g.tr.Start("lp-solve")
		t0 := time.Now()
		sol, err := g.rv.Solve()
		solveTime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core: LP solve failed: %w", err)
		}
		lsp.SetInt("pivots", g.rv.Iterations())
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
		d := t.Delays(e)
		ssp := g.tr.Start("separation")
		t1 := time.Now()
		viol := g.ps.violatedPairs(d, g.tol, g.batch, g.workers)
		sepTime += time.Since(t1)
		ssp.SetInt("violated", len(viol))
		ssp.End()
		violByRound = append(violByRound, len(viol))
		rsp.End()
		if len(viol) == 0 {
			if err := checkBounds(g.in, *g.b, e, d, g.tol); err != nil {
				return nil, fmt.Errorf("%w: the LP's optimum breaks a row it holds: %v", ErrStalled, err)
			}
			st := g.rv.Stats()
			st.Rounds = round + 1
			st.SteinerRows = len(g.have)
			st.ViolatedByRound = violByRound
			st.SolveTime = solveTime
			st.SeparationTime = sepTime
			st.PresolvePrunedRows = g.ps.prunedRows()
			st.PeakRows = g.rv.TableauRows()
			return &Result{E: e, Delays: d, Cost: weightedCost(g.w, e), Stats: st}, nil
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
// The row-generation loop runs on the sparse revised dual simplex
// (lp.Revised), which warm-starts from the previous basis after each
// batch of violated Steiner rows — the fast realization of the §4.6
// constraint reduction.
func Solve(in *Instance, b Bounds, opt *Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(in); err != nil {
		return nil, err
	}
	w, err := opt.weights(in.Tree.N())
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

	rv, _ := stageEngine(in, b, w, tr)
	// The windows stay fixed for the whole solve, so the oracle's window
	// arm prunes the rows they imply.
	return newGenState(in, rv, w, &b, true, opt).run()
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
//
// It visits each sink pair once, grouped by LCA v: every pair of child
// subtrees of v, read as spans of the DFS sink order, and, when v is a
// sink, v against every sink below it. Path lengths are d_i + d_j − 2·d_v
// as in topology.Tree.PathLength, so each comparison is the pairwise
// one, and the error names the lexicographically first violated pair.
// The test is written so that a NaN path length, from finite delays
// whose sum overflows, fails it.
func Verify(in *Instance, b Bounds, e []float64, tol float64) error {
	t := in.Tree
	d := t.Delays(e)
	if err := checkBounds(in, b, e, d, tol); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	order, lo, hi := t.SinkOrder()
	xs := make([]float64, len(order))
	ys := make([]float64, len(order))
	ds := make([]float64, len(order))
	for p, s := range order {
		xs[p], ys[p], ds[p] = in.SinkLoc[s].X, in.SinkLoc[s].Y, d[s]
	}
	// bad is the lexicographically first violated pair found so far
	// (bad[0] == 0: none), with its path length and distance.
	var bad [2]int
	var badPL, badNeed float64
	// scan checks position p against positions q ∈ [qlo, qhi) under LCA
	// delay dv.
	scan := func(p, qlo, qhi int, dv float64) {
		xp, yp, dp := xs[p], ys[p], ds[p]
		qx, qy, qd := xs[qlo:qhi], ys[qlo:qhi], ds[qlo:qhi]
		qy, qd = qy[:len(qx)], qd[:len(qx)]
		for q, x := range qx {
			pl := dp + qd[q] - 2*dv
			need := math.Abs(xp-x) + math.Abs(yp-qy[q])
			if !(pl >= need-tol) {
				i, j := min(order[p], order[qlo+q]), max(order[p], order[qlo+q])
				if bad[0] == 0 || i < bad[0] || (i == bad[0] && j < bad[1]) {
					bad, badPL, badNeed = [2]int{i, j}, pl, need
				}
			}
		}
	}
	for v := 0; v < t.N(); v++ {
		if t.IsSink(v) {
			// A DFS lists v before its subtree: v sits at lo[v].
			scan(lo[v], lo[v]+1, hi[v], d[v])
		}
		ch := t.Children(v)
		for a := 0; a < len(ch); a++ {
			for c := a + 1; c < len(ch); c++ {
				ca, cb := ch[a], ch[c]
				for p := lo[ca]; p < hi[ca]; p++ {
					scan(p, lo[cb], hi[cb], d[v])
				}
			}
		}
	}
	if bad[0] != 0 {
		return fmt.Errorf("core: Steiner constraint (%d,%d) violated: path %g < dist %g", bad[0], bad[1], badPL, badNeed)
	}
	return nil
}

// checkBounds runs Verify's O(n) checks, every bound on an edge or a
// delay, on edge lengths e with delays d: finite, non-negative edges,
// forced-zero edges, finite sink delays, the delay windows and, with a
// fixed source, the source rows d_i ≥ dist(0, i). tol is absolute.
// Finiteness comes first: every other check is a comparison, which NaN
// passes.
func checkBounds(in *Instance, b Bounds, e, d []float64, tol float64) error {
	t := in.Tree
	for k := 1; k < t.N(); k++ {
		if math.IsNaN(e[k]) || math.IsInf(e[k], 0) {
			return fmt.Errorf("edge %d length %g is not finite", k, e[k])
		}
		if e[k] < -tol {
			return fmt.Errorf("edge %d negative (%g)", k, e[k])
		}
		if t.ForcedZero[k] && math.Abs(e[k]) > tol {
			return fmt.Errorf("forced-zero edge %d has length %g", k, e[k])
		}
	}
	m := t.NumSinks
	for i := 1; i <= m; i++ {
		if math.IsInf(d[i], 0) {
			return fmt.Errorf("sink %d delay %g is not finite", i, d[i])
		}
		if d[i] < b.L[i]-tol || d[i] > b.U[i]+tol {
			return fmt.Errorf("sink %d delay %g outside its window [%g, %g]", i, d[i], b.L[i], b.U[i])
		}
	}
	if in.Source != nil {
		for i := 1; i <= m; i++ {
			if need := in.Dist(0, i); d[i] < need-tol {
				return fmt.Errorf("source-sink constraint %d violated: %g < %g", i, d[i], need)
			}
		}
	}
	return nil
}
