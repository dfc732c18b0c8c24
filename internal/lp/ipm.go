package lp

import (
	"math"

	"lubt/internal/linalg"
)

// IPM is a Mehrotra predictor-corrector primal-dual interior-point solver.
// The paper solved EBF with LOQO, an interior-point code; this solver
// plays that role here. It is best suited to the moderately sized LPs of
// the row-generation loop; simplex remains the default because it detects
// infeasibility exactly and returns vertex solutions.
type IPM struct {
	// MaxIter bounds interior-point iterations; 0 means 200.
	MaxIter int
	// Tol is the relative convergence tolerance; 0 means 1e-9.
	Tol float64
}

// Solve runs the interior-point method. Infeasible or unbounded models
// surface as IterLimit/Numerical (the method has no exact certificate);
// callers that need certificates should use Simplex.
func (ip *IPM) Solve(p *Problem) (*Solution, error) {
	if p == nil || p.NumVars < 0 {
		return nil, ErrBadProblem
	}
	tol := ip.Tol
	if tol == 0 {
		tol = 1e-9
	}
	maxIter := ip.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}
	sf := toStandard(p)
	m, n := sf.m, sf.n
	if m == 0 {
		return (&Simplex{}).Solve(p)
	}

	a := sf.a
	b := sf.b
	c := sf.c

	// Scale for conditioning.
	bNorm := 1 + linalg.NormInf(b)
	cNorm := 1 + linalg.NormInf(c)

	mulA := func(x []float64) []float64 {
		y := make([]float64, m)
		for i := 0; i < m; i++ {
			y[i] = linalg.Dot(a[i], x)
		}
		return y
	}
	mulAT := func(y []float64) []float64 {
		x := make([]float64, n)
		for i := 0; i < m; i++ {
			yi := y[i]
			if yi == 0 {
				continue
			}
			linalg.AddScaled(x, yi, a[i])
		}
		return x
	}
	// colRows[j] lists the rows with a nonzero in column j, ascending.
	colRows := make([][]int, n)
	for i := 0; i < m; i++ {
		for j, v := range a[i] {
			if v != 0 {
				colRows[j] = append(colRows[j], i)
			}
		}
	}
	// normalEq builds M = A·diag(d)·Aᵀ column by column, adding
	// (a_i1j·d_j)·a_i2j over each column's nonzero row pairs in ascending
	// column order: each entry sums only its nonzero products, in the
	// order of the dense row-by-row dot product.
	normalEq := func(d []float64) *linalg.Matrix {
		mm := linalg.NewMatrix(m, m)
		for j, rows := range colRows {
			for p, i1 := range rows {
				s1 := a[i1][j] * d[j]
				r := mm.Row(i1)
				for _, i2 := range rows[p:] {
					r[i2] += s1 * a[i2][j]
				}
			}
		}
		for i1 := 0; i1 < m; i1++ {
			for i2 := i1 + 1; i2 < m; i2++ {
				mm.Set(i2, i1, mm.At(i1, i2))
			}
		}
		return mm
	}

	// factorLadder retries the normal-equations factorization with
	// escalating regularization; EBF instances can be heavily degenerate.
	factorLadder := func(m *linalg.Matrix, base float64) (*linalg.Cholesky, error) {
		var chol *linalg.Cholesky
		var err error
		for _, reg := range []float64{base, base * 1e2, base * 1e4, base * 1e6, base * 1e8} {
			chol, err = linalg.FactorCholesky(m, reg)
			if err == nil {
				return chol, nil
			}
		}
		return nil, err
	}

	// Mehrotra starting point.
	ones := make([]float64, n)
	for j := range ones {
		ones[j] = 1
	}
	mEye, err := factorLadder(normalEq(ones), 1e-8)
	if err != nil {
		return &Solution{Status: Numerical}, nil
	}
	// x̂ = Aᵀ(AAᵀ)⁻¹ b (least-norm solution of Ax=b).
	x := mulAT(mEye.Solve(b))
	// ŷ = (AAᵀ)⁻¹ A c, ŝ = c − Aᵀŷ.
	y := mEye.Solve(mulA(c))
	sv := make([]float64, n)
	aty := mulAT(y)
	for j := 0; j < n; j++ {
		sv[j] = c[j] - aty[j]
	}
	// shift moves a tentative iterate strictly inside the positive orthant
	// (Mehrotra's starting-point heuristic).
	shift := func(v []float64) {
		lo := math.Inf(1)
		for _, t := range v {
			lo = math.Min(lo, t)
		}
		d := math.Max(0, -1.5*lo) + 0.5
		for j := range v {
			v[j] += d
			if v[j] < 1 {
				v[j] = 1
			}
		}
	}
	shift(x)
	shift(sv)

	dx := make([]float64, n)
	ds := make([]float64, n)
	dy := make([]float64, m)
	iters := 0
	for ; iters < maxIter; iters++ {
		// Residuals.
		ax := mulA(x)
		rp := make([]float64, m)
		for i := range rp {
			rp[i] = b[i] - ax[i]
		}
		aty = mulAT(y)
		rd := make([]float64, n)
		for j := range rd {
			rd[j] = c[j] - aty[j] - sv[j]
		}
		var mu float64
		for j := 0; j < n; j++ {
			mu += x[j] * sv[j]
		}
		mu /= float64(n)
		// The scaled KKT residual of the current iterate.
		residual := math.Max(linalg.NormInf(rp)/bNorm,
			math.Max(linalg.NormInf(rd)/cNorm, mu/(1+math.Abs(linalg.Dot(c, x)))))
		if residual < tol {
			break
		}

		d := make([]float64, n)
		for j := range d {
			d[j] = x[j] / sv[j]
		}
		chol, err := factorLadder(normalEq(d), 1e-10*(1+mu))
		if err != nil {
			return &Solution{Status: Numerical, Iterations: iters}, nil
		}

		// solveKKT computes (dx, dy, ds) for complementarity target v:
		// S dx + X ds = v.
		solveKKT := func(v []float64) {
			rhs := make([]float64, m)
			// rhs = rp + A(D·rd − S⁻¹v)
			tmp := make([]float64, n)
			for j := 0; j < n; j++ {
				tmp[j] = d[j]*rd[j] - v[j]/sv[j]
			}
			at := mulA(tmp)
			for i := 0; i < m; i++ {
				rhs[i] = rp[i] + at[i]
			}
			copy(dy, chol.Solve(rhs))
			atdy := mulAT(dy)
			for j := 0; j < n; j++ {
				ds[j] = rd[j] - atdy[j]
				dx[j] = (v[j] - x[j]*ds[j]) / sv[j]
			}
		}

		// Predictor (affine) step: v = −XSe.
		v := make([]float64, n)
		for j := 0; j < n; j++ {
			v[j] = -x[j] * sv[j]
		}
		solveKKT(v)
		alphaP, alphaD := maxStep(x, dx), maxStep(sv, ds)
		var muAff float64
		for j := 0; j < n; j++ {
			muAff += (x[j] + alphaP*dx[j]) * (sv[j] + alphaD*ds[j])
		}
		muAff /= float64(n)
		sigma := math.Pow(muAff/mu, 3)
		if sigma > 1 {
			sigma = 1
		}

		// Corrector step: v = σμe − ΔXaff·ΔSaff·e − XSe.
		for j := 0; j < n; j++ {
			v[j] = sigma*mu - dx[j]*ds[j] - x[j]*sv[j]
		}
		solveKKT(v)
		alphaP = 0.995 * maxStep(x, dx)
		alphaD = 0.995 * maxStep(sv, ds)
		if alphaP > 1 {
			alphaP = 1
		}
		if alphaD > 1 {
			alphaD = 1
		}
		for j := 0; j < n; j++ {
			x[j] += alphaP * dx[j]
			sv[j] += alphaD * ds[j]
		}
		for i := 0; i < m; i++ {
			y[i] += alphaD * dy[i]
		}
	}
	if iters >= maxIter {
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}
	out := make([]float64, p.NumVars)
	for j := range out {
		v := x[j]
		if v < 0 {
			v = 0
		}
		out[j] = v
	}
	return &Solution{
		Status:     Optimal,
		X:          out,
		Objective:  p.Eval(out),
		Iterations: iters,
	}, nil
}

// maxStep returns the largest α ≤ 1 keeping v + α·dv ≥ 0 componentwise
// (strictly, the distance to the boundary, capped at a large value).
func maxStep(v, dv []float64) float64 {
	alpha := 1.0
	for j := range v {
		if dv[j] < 0 {
			if a := -v[j] / dv[j]; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}
