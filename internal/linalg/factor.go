package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNotSPD is returned by Cholesky when the matrix is not (numerically)
// symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix not positive definite")

// Cholesky holds the lower-triangular Cholesky factor L of an SPD matrix:
// A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a (only the lower triangle of a is read). A
// small diagonal regularization reg (≥ 0) is added, which interior-point
// methods use to keep nearly-degenerate normal equations factorable.
func FactorCholesky(a *Matrix, reg float64) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("linalg: FactorCholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + reg
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve computes x such that A x = b for the factored SPD matrix A.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n {
		panic("linalg: Cholesky.Solve length mismatch")
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		ri := c.l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
	// Back: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}
