package linalg

import "math"

// denseLU is the reference SparseLU is tested against: the dense LU the
// revised simplex factored its basis core with before SparseLU. It runs
// row-major right-looking Gaussian elimination with partial pivoting,
// P·A = L·U, packing both triangles into one matrix (L's unit diagonal
// implicit).
type denseLU struct {
	lu   *Matrix
	perm []int // perm[i] = row of A at position i
}

// factorDense factors the square matrix a (not modified).
func factorDense(a *Matrix) (*denseLU, error) {
	n := a.Rows
	f := &denseLU{lu: a.Clone(), perm: make([]int, n)}
	lu, perm := f.lu, f.perm
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// SolveInto computes x with A x = b, substituting column by column and
// skipping zero multipliers.
func (f *denseLU) SolveInto(b, x []float64) {
	n := f.lu.Rows
	for i, p := range f.perm {
		x[i] = b[p]
	}
	for i := 0; i < n-1; i++ {
		if v := x[i]; v != 0 {
			for j := i + 1; j < n; j++ {
				x[j] -= f.lu.At(j, i) * v
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := x[i] / f.lu.At(i, i)
		x[i] = v
		if v != 0 {
			for j := 0; j < i; j++ {
				x[j] -= f.lu.At(j, i) * v
			}
		}
	}
}

// SolveTransposeInto computes x with Aᵀ x = b: a forward solve with Uᵀ
// and a backward solve with Lᵀ, each scattering along rows of the packed
// factor, then the inverse row permutation.
func (f *denseLU) SolveTransposeInto(b, x []float64) {
	n := f.lu.Rows
	y := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		ri := f.lu.Row(i)
		v := y[i] / ri[i]
		y[i] = v
		if v != 0 {
			for j := i + 1; j < n; j++ {
				y[j] -= ri[j] * v
			}
		}
	}
	for i := n - 1; i > 0; i-- {
		if v := y[i]; v != 0 {
			for j, lij := range f.lu.Row(i)[:i] {
				y[j] -= lij * v
			}
		}
	}
	for i, p := range f.perm {
		x[p] = y[i]
	}
}

// minPivot returns the smallest pivot magnitude.
func (f *denseLU) minPivot() float64 {
	m := math.Inf(1)
	for i := 0; i < f.lu.Rows; i++ {
		m = min(m, math.Abs(f.lu.At(i, i)))
	}
	return m
}

// NNZ counts the nonzeros of the packed factor.
func (f *denseLU) NNZ() int {
	nnz := 0
	for _, v := range f.lu.Data {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}
