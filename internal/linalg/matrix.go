package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (which must all have equal
// length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec computes y = M x. The receiver must have Cols == len(x).
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT computes y = Mᵀ x without materializing the transpose.
func (m *Matrix) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: MulVecT shape mismatch")
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// Mul returns the matrix product M·N.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic("linalg: Mul shape mismatch")
	}
	p := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		pi := p.Row(i)
		for k, mv := range mi {
			if mv == 0 {
				continue
			}
			nk := n.Row(k)
			for j, nv := range nk {
				pi[j] += mv * nv
			}
		}
	}
	return p
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the max-absolute-value norm of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AddScaled computes dst += s·src in place.
func AddScaled(dst []float64, s float64, src []float64) {
	if len(dst) != len(src) {
		panic("linalg: AddScaled length mismatch")
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// Scale multiplies v by s in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
