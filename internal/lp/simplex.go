package lp

import (
	"math"
)

// Simplex is a two-phase dense primal simplex solver. The zero value is
// ready to use; fields tune the solver.
type Simplex struct {
	// MaxIter bounds the total pivot count; 0 means an automatic limit of
	// 20000 + 100·(rows+cols).
	MaxIter int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-9.
	Tol float64
}

const blandThreshold = 60 // consecutive degenerate pivots before Bland's rule

// Solve runs the two-phase simplex method.
func (s *Simplex) Solve(p *Problem) (*Solution, error) {
	if p == nil || p.NumVars < 0 {
		return nil, ErrBadProblem
	}
	tol := s.Tol
	if tol == 0 {
		tol = 1e-9
	}
	sf := toStandard(p)
	m, n := sf.m, sf.n

	// Trivial case: no constraints. Minimum of cᵀx over x ≥ 0 is 0 when
	// c ≥ 0 (all x = 0) and unbounded otherwise.
	if m == 0 {
		for _, cj := range sf.c {
			if cj < -tol {
				return &Solution{Status: Unbounded, X: make([]float64, p.NumVars)}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.NumVars)}, nil
	}

	// Assemble the tableau with one artificial column per row lacking a
	// usable (+1) slack. Columns: [orig | slack | artificial | rhs].
	nArt := 0
	artOf := make([]int, m) // artificial column of row i, or −1
	for i := range artOf {
		artOf[i] = -1
	}
	for i := 0; i < m; i++ {
		sc := sf.slackOf[i]
		if sc >= 0 && sf.a[i][sc] > 0 {
			continue // LE-type row: slack starts basic
		}
		artOf[i] = n + nArt
		nArt++
	}
	nTot := n + nArt
	rhs := nTot // index of the RHS column
	t := make([][]float64, m)
	flat := make([]float64, m*(nTot+1))
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		row := flat[i*(nTot+1) : (i+1)*(nTot+1)]
		t[i] = row
		copy(row, sf.a[i])
		row[rhs] = sf.b[i]
		if artOf[i] >= 0 {
			row[artOf[i]] = 1
			basis[i] = artOf[i]
		} else {
			basis[i] = sf.slackOf[i]
		}
	}

	// Reduced-cost rows for both phases, pivoted along with the tableau.
	// obj[j] holds the reduced cost of column j; obj[rhs] holds −(current
	// objective value).
	obj1 := make([]float64, nTot+1) // phase 1: minimize Σ artificials
	obj2 := make([]float64, nTot+1) // phase 2: minimize cᵀx
	copy(obj2, sf.c)
	for i := 0; i < m; i++ {
		if artOf[i] >= 0 {
			// Subtract the row to zero the basic artificial's reduced cost.
			for j := 0; j <= nTot; j++ {
				obj1[j] -= t[i][j]
			}
		} else {
			// Slack columns have zero cost in both phases: nothing to do.
			_ = i
		}
	}
	// obj1 must be zero on artificial columns (cost 1 − 1 after the
	// subtraction above).
	for i := 0; i < m; i++ {
		if a := artOf[i]; a >= 0 {
			obj1[a] = 0
		}
	}

	maxIter := s.MaxIter
	if maxIter == 0 {
		maxIter = 20000 + 100*(m+nTot)
	}
	iters := 0

	pivot := func(r, cIn int) {
		prow := t[r]
		pv := prow[cIn]
		inv := 1 / pv
		for j := 0; j <= nTot; j++ {
			prow[j] *= inv
		}
		prow[cIn] = 1 // kill roundoff
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := t[i][cIn]
			if f == 0 {
				continue
			}
			row := t[i]
			for j := 0; j <= nTot; j++ {
				row[j] -= f * prow[j]
			}
			row[cIn] = 0
		}
		for _, o := range [][]float64{obj1, obj2} {
			f := o[cIn]
			if f != 0 {
				for j := 0; j <= nTot; j++ {
					o[j] -= f * prow[j]
				}
				o[cIn] = 0
			}
		}
		basis[r] = cIn
	}

	// run performs pivots against the given objective row over columns
	// [0, lim). It returns Optimal or Unbounded (never Infeasible).
	run := func(obj []float64, lim int) Status {
		degen := 0
		for {
			if iters >= maxIter {
				return IterLimit
			}
			// Entering column.
			enter := -1
			if degen >= blandThreshold {
				for j := 0; j < lim; j++ {
					if obj[j] < -tol {
						enter = j
						break
					}
				}
			} else {
				best := -tol
				for j := 0; j < lim; j++ {
					if obj[j] < best {
						best, enter = obj[j], j
					}
				}
			}
			if enter < 0 {
				return Optimal
			}
			// Ratio test (Bland ties on the smallest basis variable).
			leave := -1
			var bestRatio float64
			for i := 0; i < m; i++ {
				aij := t[i][enter]
				if aij <= tol {
					continue
				}
				ratio := t[i][rhs] / aij
				if leave < 0 || ratio < bestRatio-tol ||
					(ratio < bestRatio+tol && basis[i] < basis[leave]) {
					leave, bestRatio = i, ratio
				}
			}
			if leave < 0 {
				return Unbounded
			}
			if bestRatio <= tol {
				degen++
			} else {
				degen = 0
			}
			pivot(leave, enter)
			iters++
		}
	}

	// Phase 1.
	if nArt > 0 {
		st := run(obj1, nTot)
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters}, nil
		}
		if st == Unbounded {
			// The phase-1 objective is bounded below by zero; unbounded
			// means numerical trouble.
			return &Solution{Status: Numerical, Iterations: iters}, nil
		}
		if phase1 := -obj1[rhs]; phase1 > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: iters}, nil
		}
		// Drive any remaining basic artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < n {
				continue
			}
			moved := false
			for j := 0; j < n; j++ {
				if math.Abs(t[i][j]) > 1e-7 {
					pivot(i, j)
					iters++
					moved = true
					break
				}
			}
			if !moved {
				// Redundant row: harmless; leave the zero-valued artificial
				// basic but forbid it from re-entering (artificials are
				// excluded from phase-2 pricing below).
				t[i][rhs] = 0
			}
		}
	}

	// Phase 2: price only genuine columns.
	st := run(obj2, n)
	if st == IterLimit {
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iterations: iters}, nil
	}

	x := make([]float64, p.NumVars)
	for i, bv := range basis {
		if bv < p.NumVars {
			v := t[i][rhs]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[bv] = v
		}
	}
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  p.Eval(x),
		Iterations: iters,
	}, nil
}
