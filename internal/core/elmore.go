package core

import (
	"fmt"
	"math"
	"time"

	"lubt/internal/delay"
	"lubt/internal/lp"
	"lubt/internal/obs"
)

// ElmoreOptions tune SolveElmore.
type ElmoreOptions struct {
	// Model supplies r_w, c_w and sink loads. Required: r_w and c_w must
	// not both be zero, and the model must pass delay.Elmore.Validate.
	Model delay.Elmore
	// Weights as in Options.
	Weights []float64
	// Tracer records the SLP solve as spans (one "slp-iter" per
	// linearization, plus the warm start's "ebf" sub-tree). Nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer
}

// The SLP's fixed limits: at most slpMaxIter linearizations, and a
// delay-window violation tolerance of slpTol relative to the bound
// magnitudes.
const (
	slpMaxIter = 300
	slpTol     = 1e-6
)

// ElmoreResult is the outcome of the sequential-LP heuristic.
type ElmoreResult struct {
	E          []float64 // edge lengths
	Cost       float64   // weighted wirelength
	Delays     []float64 // Elmore delays per node
	Iterations int
	// MaxViolation is the residual Elmore delay-window violation in time
	// units (≤ the solver tolerance × bound scale on success).
	MaxViolation float64
	// IterStats holds one lp.Stats record per SLP iteration, in iteration
	// order: the delta of the persistent engine's counters across that
	// iteration (pivots taken, restages and row replacements absorbed,
	// refactorizations) with the gauges sampled after its solve. Stats is
	// their fold (plus the warm start's record) via lp.Stats.Merge, so
	// e.g. Stats.Restages equals the engine's cumulative restage count.
	IterStats []lp.Stats
	Stats     lp.Stats
}

// statsDelta returns cur − prev on the cumulative engine counters while
// keeping cur's gauges: the per-iteration record of a persistent engine.
func statsDelta(cur, prev lp.Stats) lp.Stats {
	d := cur
	d.LPIterations -= prev.LPIterations
	d.Refactorizations -= prev.Refactorizations
	d.Resets -= prev.Resets
	d.BoundFlips -= prev.BoundFlips
	d.Restages -= prev.Restages
	d.RowReplacements -= prev.RowReplacements
	d.DevexResets -= prev.DevexResets
	d.ResetReasons = append([]string(nil), cur.ResetReasons[len(prev.ResetReasons):]...)
	d.ViolatedByRound = nil
	d.SeparationTime = 0
	d.SolveTime = 0
	d.Rounds = 0
	return d
}

// SolveElmore solves the EBF under the Elmore delay model (§7). The
// delay constraints are quadratic in the edge lengths, so — as the paper
// notes — the problem is no longer an LP; following the paper's
// suggestion of a general nonlinear method, we use sequential linear
// programming: linearize the Elmore delays around the current point with
// the exact gradient, solve the resulting LP inside an ∞-norm trust
// region, and accept or shrink classically. The Steiner constraints stay
// exact (they are linear), maintained by the same separation oracle as the
// linear solver. The result is feasible but only locally optimal; with
// l=0 the feasible set is convex and SLP converges to the global optimum
// in practice.
//
// The whole SLP runs on one persistent revised engine: the trust region
// is restaged as variable boxes, the linearized delay windows are
// replaced in place, and each iteration warm-starts from the previous
// basis. The result is deterministic: the same input gives the same
// edge lengths and pivot counts on every run.
func SolveElmore(in *Instance, b Bounds, opt *ElmoreOptions) (*ElmoreResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opt == nil || (opt.Model.Rw == 0 && opt.Model.Cw == 0) {
		return nil, fmt.Errorf("core: SolveElmore requires an Elmore model")
	}
	t := in.Tree
	m := t.NumSinks
	if err := opt.Model.Validate(m); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(b.L) != m+1 || len(b.U) != m+1 {
		return nil, fmt.Errorf("core: bounds sized %d/%d for %d sinks", len(b.L), len(b.U), m)
	}
	for i := 1; i <= m; i++ {
		if err := checkWindow(i, b.L[i], b.U[i]); err != nil {
			return nil, err
		}
	}
	n := t.N()
	w, err := (&Options{Weights: opt.Weights}).weights(n)
	if err != nil {
		return nil, err
	}
	mdl := opt.Model
	tr := opt.Tracer
	slpSpan := tr.Start("slp")
	defer slpSpan.End()

	// Starting point: the minimum-wirelength tree (Steiner constraints
	// only), which satisfies the geometric constraints exactly.
	start, err := Solve(in, UniformBounds(m, 0, math.Inf(1)), &Options{Weights: opt.Weights, Tracer: tr})
	if err != nil {
		return nil, fmt.Errorf("core: Elmore warm start failed: %w", err)
	}
	e := start.E
	// The merged record starts from the warm start's engine counters; each
	// SLP iteration folds its own per-subproblem record in below.
	mergedStats := start.Stats
	var iterStats []lp.Stats

	// Delay padding: sinks below their lower bound get their leaf edge
	// elongated by the positive root of the quadratic delay increment
	//
	//	Δdelay = (r_w c_w / 2) δ² + r_w (c_w e_i + C_i + c_w·pathlen) δ,
	//
	// which only ever increases delays, so a few passes meet every lower
	// bound; SLP then repairs any upper bounds broken in the process.
	if mdl.Rw > 0 && mdl.Cw > 0 {
		for pass := 0; pass < 30; pass++ {
			d := mdl.Delays(t, e)
			caps := mdl.SubtreeCaps(t, e)
			lin := t.Delays(e)
			padded := false
			for i := 1; i <= m; i++ {
				need := b.L[i] - d[i]
				if need <= 0 {
					continue
				}
				qa := mdl.Rw * mdl.Cw / 2
				qb := mdl.Rw * (mdl.Cw*e[i] + caps[i] + mdl.Cw*lin[t.Parent[i]])
				e[i] += (-qb + math.Sqrt(qb*qb+4*qa*need)) / (2 * qa)
				padded = true
			}
			if !padded {
				break
			}
		}
	}

	// Scales for the dimensionless violation measure: delay-bound
	// violations are in time units, Steiner violations in length units.
	timeScale := 0.0
	for i := 1; i <= m; i++ {
		if !math.IsInf(b.U[i], 1) {
			timeScale = math.Max(timeScale, math.Abs(b.U[i]))
		}
		timeScale = math.Max(timeScale, math.Abs(b.L[i]))
	}
	if timeScale == 0 {
		timeScale = 1 // no finite bounds: only Steiner feasibility matters
	}
	geoScale := 1 + in.Radius()

	// boundViol is the worst delay-window violation in time units.
	boundViol := func(e []float64) float64 {
		d := mdl.Delays(t, e)
		worst := 0.0
		for i := 1; i <= m; i++ {
			worst = math.Max(worst, b.L[i]-d[i])
			if !math.IsInf(b.U[i], 1) {
				worst = math.Max(worst, d[i]-b.U[i])
			}
		}
		return worst
	}
	// violation is the dimensionless residual driving acceptance.
	violation := func(e []float64) float64 {
		return math.Max(boundViol(e)/timeScale, steinerViolation(in, e)/geoScale)
	}
	cost := func(e []float64) float64 { return weightedCost(w, e) }

	// Filter acceptance: a step is accepted when it reduces the true
	// violation, or keeps feasibility (violation ≤ tol) while reducing
	// cost. This is robust where a fixed-penalty merit function stalls on
	// slowly-improving violations.
	better := func(candV, candC, curV, curC float64) bool {
		if curV > slpTol {
			return candV < curV-1e-15 || (candV <= curV+1e-15 && candC < curC-1e-12)
		}
		return candV <= slpTol && candC < curC-1e-12
	}

	// Growing Steiner row pool (pairs), seeded like the linear solver. It
	// is kept in insertion order — the seed pairs, then each round's
	// violatedPairs in the oracle's deterministic order — so the engine
	// states its rows, and takes its pivots, the same way on every run.
	var pool [][2]int
	inPool := map[pairKey]bool{}
	addPair := func(pr [2]int) {
		key := pairKey{min(pr[0], pr[1]), max(pr[0], pr[1])}
		if !inPool[key] {
			inPool[key] = true
			pool = append(pool, [2]int{key.i, key.j})
		}
	}
	for _, pr := range seedPairs(in) {
		addPair(pr)
	}

	tau := math.Max(in.Radius()/4, 1e-3)
	best := append([]float64(nil), e...)
	bestV, bestC := violation(best), cost(best)
	// Elastic penalty per unit of delay-window slack (time units →
	// wirelength units); escalated when violation stops improving.
	penalty := 100 * (1 + cost(e)) / timeScale

	// Elastic slack columns: one per finite delay-bound side, fixed across
	// iterations (the bounds do not change, only the linearization does).
	nSlack := 0
	for i := 1; i <= m; i++ {
		if b.L[i] > 0 {
			nSlack++
		}
		if !math.IsInf(b.U[i], 1) {
			nSlack++
		}
	}
	// ONE persistent revised engine for the whole SLP. The trust region
	// lives in the variable boxes (restaged between solves, zero rows),
	// the linearized delay windows are rows replaced in place each
	// iteration (a true coefficient rewrite: one refactorization, but the
	// basis membership survives), the Steiner pool is append-only, and
	// penalty escalation restages the slack costs. Each iteration
	// warm-starts from the previous trust-region subproblem's basis.
	costs := make([]float64, n+nSlack)
	for k := 1; k < n; k++ {
		costs[k] = w[k]
	}
	for s := 0; s < nSlack; s++ {
		costs[n+s] = penalty
	}
	rv := lp.NewRevised(n+nSlack, costs)
	rv.SetTracer(tr)
	for k := 1; k < n; k++ {
		if t.ForcedZero[k] {
			rv.SetVarBounds(k, 0, 0)
		}
	}
	// Sink → engine tableau row of that window side, or −1.
	rowLow, rowUpp := make([]int, m+1), make([]int, m+1)
	for i := range rowLow {
		rowLow[i], rowUpp[i] = -1, -1
	}
	poolAdded := 0 // pool[:poolAdded] are engine rows
	lastPenalty := penalty
	prevStats := rv.Stats()
	iters := 0
	for ; iters < slpMaxIter; iters++ {
		// Refresh Steiner pool at the current point.
		for _, pr := range violatedPairs(in, e, 1e-9*(1+in.Radius()), 4*m) {
			addPair(pr)
		}
		// Linearize at a floored point: the Elmore delay is a convex
		// (posynomial) quadratic, so its tangent anywhere is a global
		// underestimator — lower-bound rows stay valid — and the floor
		// keeps the gradient from vanishing on zero-length subtrees.
		ep := make([]float64, n)
		// The floor shrinks with the trust region so its model bias
		// vanishes as the iteration converges.
		floor := math.Min(0.02*(1+in.Radius()), 0.1*tau)
		for k := 1; k < n; k++ {
			ep[k] = math.Max(e[k], floor)
			if t.ForcedZero[k] {
				ep[k] = e[k]
			}
		}
		d := mdl.Delays(t, ep)
		// The slp-iter span wraps the whole iteration step: restage (trust
		// boxes, penalty costs, window-row replacement) + warm solve.
		isp := tr.Start("slp-iter")
		isp.SetInt("iter", iters)
		// Trust region as restaged variable boxes (zero rows).
		for k := 1; k < n; k++ {
			if t.ForcedZero[k] {
				continue
			}
			rv.SetVarBounds(k, math.Max(e[k]-tau, 0), e[k]+tau)
		}
		if penalty != lastPenalty {
			for s := 0; s < nSlack; s++ {
				rv.SetCost(n+s, penalty)
			}
			lastPenalty = penalty
		}
		// Append newly separated Steiner rows (the pool only grows).
		for _, pr := range pool[poolAdded:] {
			rv.AddRow(unitTermsOf(t.Path(pr[0], pr[1])), lp.GE, in.Dist(pr[0], pr[1]))
		}
		poolAdded = len(pool)
		// Linearized Elmore delay windows with elastic slack:
		// d_j(e0) + g_j·(e−e0) + s ≥ l,  d_j(e0) + g_j·(e−e0) − s' ≤ u,
		// replaced in place each iteration (the gradient moved).
		slot := n
		for i := 1; i <= m; i++ {
			g := mdl.Gradient(t, ep, i)
			var terms []lp.Term
			off := d[i]
			for k := 1; k < n; k++ {
				if g[k] != 0 {
					terms = append(terms, lp.Term{Var: k, Coef: g[k]})
					off -= g[k] * ep[k]
				}
			}
			if b.L[i] > 0 {
				rows := append(append([]lp.Term(nil), terms...), lp.Term{Var: slot, Coef: 1})
				if rowLow[i] < 0 {
					rowLow[i] = rv.TableauRows()
					rv.AddRangedRow(rows, b.L[i]-off, math.Inf(1))
				} else {
					rv.ReplaceRangedRow(rowLow[i], rows, b.L[i]-off, math.Inf(1))
				}
				slot++
			}
			if !math.IsInf(b.U[i], 1) {
				rows := append(append([]lp.Term(nil), terms...), lp.Term{Var: slot, Coef: -1})
				if rowUpp[i] < 0 {
					rowUpp[i] = rv.TableauRows()
					rv.AddRangedRow(rows, math.Inf(-1), b.U[i]-off)
				} else {
					rv.ReplaceRangedRow(rowUpp[i], rows, math.Inf(-1), b.U[i]-off)
				}
				slot++
			}
		}
		isp.SetInt("rows", rv.NumRows())
		t0 := time.Now()
		sol, err := rv.Solve()
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core: SLP subproblem failed: %w", err)
		}
		// Per-iteration record: the engine's counter deltas across this
		// restage+solve, with the gauges sampled after it.
		cur := rv.Stats()
		ist := statsDelta(cur, prevStats)
		prevStats = cur
		ist.SolveTime = dt
		ist.Rounds = 1
		ist.SteinerRows = len(pool)
		iterStats = append(iterStats, ist)
		mergedStats.Merge(ist)
		isp.SetInt("pivots", ist.LPIterations)
		isp.SetInt("restages", ist.Restages)
		isp.SetInt("row_replacements", ist.RowReplacements)
		isp.SetString("status", sol.Status.String())
		isp.SetFloat("tau", tau)
		isp.End()
		if sol.Status != lp.Optimal {
			// Elastic rows make genuine infeasibility impossible; treat
			// solver trouble as a failed step.
			tau *= 0.5
			if tau < 1e-10*(1+in.Radius()) {
				break
			}
			continue
		}
		cand := make([]float64, n)
		copy(cand[1:], sol.X[1:n])
		step := 0.0
		for k := 1; k < n; k++ {
			step = math.Max(step, math.Abs(cand[k]-e[k]))
		}
		candV, candC := violation(cand), cost(cand)
		curV, curC := violation(e), cost(e)
		if better(candV, candC, curV, curC) {
			e = cand
			tau = math.Min(tau*1.5, 8*(1+in.Radius()))
			if better(candV, candC, bestV, bestC) {
				copy(best, cand)
				bestV, bestC = candV, candC
			}
		} else {
			tau *= 0.5
			if curV > slpTol {
				// Violation is stuck: escalate the elastic penalty so the
				// next subproblem prioritizes feasibility over cost.
				penalty = math.Min(penalty*4, 1e12*(1+cost(e))/timeScale)
			}
		}
		if curV <= slpTol && step < 1e-7*(1+in.Radius()) {
			break
		}
		if tau < 1e-10*(1+in.Radius()) {
			break
		}
	}
	e = best
	if v := violation(e); v > slpTol {
		return nil, fmt.Errorf("%w (Elmore SLP stalled with residual %g)", ErrInfeasible, v)
	}
	return &ElmoreResult{
		E:            e,
		Cost:         cost(e),
		Delays:       mdl.Delays(t, e),
		Iterations:   iters,
		MaxViolation: boundViol(e),
		IterStats:    iterStats,
		Stats:        mergedStats,
	}, nil
}
