package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lubt/internal/lp"
)

// This file holds the cold oracle, the independent check of the warm
// engine's verdicts. It states the EBF LP itself as an lp.Problem, finds
// violated and binding Steiner rows by enumerating every sink pair, and
// solves with the cold reference solvers, lp.Simplex and lp.IPM. It calls
// nothing in presolve.go, genState or lp.Revised, so a fault there cannot
// hide from it.
//
// An optimum E is certified in two halves. Verify(E), which checks every
// pair, bounds OPT from above by cost(E). A cold simplex solve whose only
// Steiner rows are the pairs binding at E is a relaxation, so its optimum
// bounds OPT from below; when it reaches cost(E) − tol the two meet. When
// it does not, the pairs its optimum violates join the LP, most violated
// first, and it is solved again until its optimum reaches cost(E) − tol
// or violates no pair, in which case it is OPT. Either way the costs
// must then agree within tol. The IPM runs the same loop, but its cost is
// no bound, so for it only that two-sided agreement is the verdict. An
// infeasibility verdict is certified by the simplex alone: from no
// Steiner rows, violated pairs are added until the cold LP is infeasible.

// coldOracle is one EBF instance as the oracle states it.
type coldOracle struct {
	in  *Instance
	b   Bounds
	w   []float64 // per-edge weights, indexed by edge; nil means unit weights
	tol float64   // absolute: the test's bar on costs and rows alike
}

// weight returns edge k's objective weight.
func (o *coldOracle) weight(k int) float64 {
	if o.w == nil {
		return 1
	}
	return o.w[k]
}

// cost returns Σ w_k e_k.
func (o *coldOracle) cost(e []float64) float64 {
	c := 0.0
	for k := 1; k < len(e); k++ {
		c += o.weight(k) * e[k]
	}
	return c
}

// problem states the EBF LP with pairs as its only sink-pair Steiner
// rows: cost w, e_0 pinned to zero, an EQ row per forced-zero edge, a GE
// row per positive lower window and an LE row per finite upper window
// (one EQ row when l = u), and d_i ≥ dist(0, i) with a fixed source.
func (o *coldOracle) problem(pairs [][2]int) *lp.Problem {
	t := o.in.Tree
	p := lp.NewProblem(t.N())
	for k := 1; k < t.N(); k++ {
		p.SetCost(k, o.weight(k))
	}
	p.AddSumEQ([]int{0}, 0, "e0")
	for k := 1; k < t.N(); k++ {
		if t.ForcedZero[k] {
			p.AddSumEQ([]int{k}, 0, "forced-zero")
		}
	}
	for i := 1; i <= t.NumSinks; i++ {
		path := t.PathToRoot(i)
		l, u := o.b.L[i], o.b.U[i]
		if l == u {
			p.AddSumEQ(path, l, "window")
			continue
		}
		if l > 0 {
			p.AddSumGE(path, l, "window-lo")
		}
		if !math.IsInf(u, 1) {
			p.AddSumLE(path, u, "window-hi")
		}
	}
	if o.in.Source != nil {
		for i := 1; i <= t.NumSinks; i++ {
			p.AddSumGE(t.PathToRoot(i), o.in.Dist(0, i), "source")
		}
	}
	for _, pr := range pairs {
		p.AddSumGE(t.Path(pr[0], pr[1]), o.in.Dist(pr[0], pr[1]), "steiner")
	}
	return p
}

// scan enumerates every sink pair at edge lengths e. It returns the pairs
// whose Steiner row e violates by more than tol, most violated first
// (ties by pair), and the pairs whose row holds with at most tol to
// spare. Pairs at distance 0 state nothing and are skipped.
func (o *coldOracle) scan(e []float64) (violated, binding [][2]int) {
	t := o.in.Tree
	d := t.Delays(e)
	type viol struct {
		pair   [2]int
		amount float64
	}
	var vs []viol
	for i := 1; i <= t.NumSinks; i++ {
		for j := i + 1; j <= t.NumSinks; j++ {
			need := o.in.Dist(i, j)
			if need == 0 {
				continue
			}
			switch slack := t.PathLength(i, j, d) - need; {
			case slack < -o.tol:
				vs = append(vs, viol{[2]int{i, j}, -slack})
			case slack <= o.tol:
				binding = append(binding, [2]int{i, j})
			}
		}
	}
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].amount != vs[b].amount {
			return vs[a].amount > vs[b].amount
		}
		if vs[a].pair[0] != vs[b].pair[0] {
			return vs[a].pair[0] < vs[b].pair[0]
		}
		return vs[a].pair[1] < vs[b].pair[1]
	})
	for _, v := range vs {
		violated = append(violated, v.pair)
	}
	return violated, binding
}

// solve cold-solves with pairs as the Steiner rows and, while the optimum
// violates some pair and done does not accept it, adds up to max(16, m)
// of the violated pairs, most violated first, and solves again. It
// returns the last solution: infeasible, accepted by done, or an optimum
// that violates no pair. A nil done accepts nothing early.
func (o *coldOracle) solve(s lp.Solver, pairs [][2]int, done func(*lp.Solution) bool) (*lp.Solution, error) {
	batch := max(16, o.in.Tree.NumSinks)
	have := make(map[[2]int]bool, len(pairs))
	for _, pr := range pairs {
		have[pr] = true
	}
	for {
		sol, err := s.Solve(o.problem(pairs))
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal || (done != nil && done(sol)) {
			return sol, nil
		}
		viol, _ := o.scan(sol.X)
		if len(viol) == 0 {
			return sol, nil
		}
		added := 0
		for _, pr := range viol {
			if added == batch {
				break
			}
			if !have[pr] {
				have[pr] = true
				pairs = append(pairs, pr)
				added++
			}
		}
		if added == 0 {
			return nil, fmt.Errorf("cold optimum violates %d pairs its LP already states", len(viol))
		}
	}
}

// checkOptimal certifies that e is an optimum within tol, with the cold
// solver s as the reference.
func (o *coldOracle) checkOptimal(s lp.Solver, e []float64) error {
	if err := Verify(o.in, o.b, e, o.tol); err != nil {
		return fmt.Errorf("warm optimum is not feasible: %w", err)
	}
	c := o.cost(e)
	_, binding := o.scan(e)
	sol, err := o.solve(s, binding, func(sol *lp.Solution) bool { return sol.Objective >= c-o.tol })
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("warm cost %.10g, but the cold LP reports %v", c, sol.Status)
	}
	if d := math.Abs(sol.Objective - c); d > o.tol {
		return fmt.Errorf("warm cost %.10g vs cold optimum %.10g: |Δ| = %g > %g", c, sol.Objective, d, o.tol)
	}
	return nil
}

// checkInfeasible certifies an infeasibility verdict with the cold
// simplex.
func (o *coldOracle) checkInfeasible() error {
	sol, err := o.solve(&lp.Simplex{}, nil, nil)
	if err != nil {
		return err
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil
	case lp.Optimal:
		return fmt.Errorf("warm verdict infeasible, but the cold optimum %.10g violates no Steiner pair", sol.Objective)
	}
	return fmt.Errorf("warm verdict infeasible, but the cold LP reports %v", sol.Status)
}

// certify checks a warm verdict — Solve's or a Session's (res, err) —
// against the cold oracle: an optimum with each solver given, an
// infeasibility verdict with the simplex. Any other error fails.
func (o *coldOracle) certify(res *Result, err error, solvers ...lp.Solver) error {
	switch {
	case errors.Is(err, ErrInfeasible):
		return o.checkInfeasible()
	case err != nil:
		return fmt.Errorf("warm solve: %w", err)
	}
	for _, s := range solvers {
		if err := o.checkOptimal(s, res.E); err != nil {
			return fmt.Errorf("%T: %w", s, err)
		}
	}
	return nil
}
