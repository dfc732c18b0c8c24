package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// cscOf converts a dense matrix to CSC, dropping zeros.
func cscOf(a *Matrix) *CSC {
	c := &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: []int{0}}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if v := a.At(i, j); v != 0 {
				c.RowInd = append(c.RowInd, int32(i))
				c.Val = append(c.Val, v)
			}
		}
		c.ColPtr = append(c.ColPtr, len(c.RowInd))
	}
	return c
}

// firstDiff returns the first index where a and b differ in value (+0 and
// −0 count as equal), or −1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// draw returns a number in [0, k); the generators below take one so the
// same shapes serve the seeded tests and the fuzz target.
type draw func(k int) int

// entryAlphabet is heavy in zeros and ±1, the values that make pivot
// ties, with one magnitude under the singularity threshold.
var entryAlphabet = []float64{0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 0.5, 3, -0.25, 1e-14, 7}

// shuffled returns a random permutation of 0…n−1.
func shuffled(n int, d draw) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := d(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// randomEntries fills an n×n matrix from entryAlphabet.
func randomEntries(n int, d draw) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = entryAlphabet[d(len(entryAlphabet))]
	}
	return a
}

// pathIncidence returns an n×n ±1 matrix shaped like an EBF basis core:
// column v−1 is the edge above node v of a random tree on nodes 0…n
// (node 0 the root), and each row holds one sign on the edges of a tree
// path from a distinct node: to the root (a delay row) or, for about
// half the rows, to a random node (a Steiner row). With rootPaths every
// row is a root path, which makes the matrix nonsingular.
func pathIncidence(n int, d draw, rootPaths bool) *Matrix {
	parent := make([]int, n+1)
	for v := 1; v <= n; v++ {
		parent[v] = d(v)
	}
	order := shuffled(n, d) // row i starts at node order[i]+1
	a := NewMatrix(n, n)
	on := make([]bool, n+1)
	for i := 0; i < n; i++ {
		u, w := order[i]+1, 0
		if !rootPaths && d(2) == 1 {
			w = d(n + 1)
		}
		for v := u; v != 0; v = parent[v] {
			on[v] = !on[v]
		}
		for v := w; v != 0; v = parent[v] {
			on[v] = !on[v]
		}
		sign := float64(1 - 2*d(2))
		for v := 1; v <= n; v++ {
			if on[v] {
				a.Set(i, v-1, sign)
				on[v] = false
			}
		}
	}
	return a
}

// dependentColumn makes the last column the sum of the first two, so the
// matrix is singular in exact arithmetic.
func dependentColumn(a *Matrix) *Matrix {
	if n := a.Cols; n >= 3 {
		for i := 0; i < a.Rows; i++ {
			a.Set(i, n-1, a.At(i, 0)+a.At(i, 1))
		}
	}
	return a
}

// zeroLine zeroes a random row or column, so the matrix is singular.
func zeroLine(a *Matrix, d draw) *Matrix {
	n, k := a.Rows, d(a.Rows)
	if d(2) == 0 {
		clear(a.Row(k))
		return a
	}
	for i := 0; i < n; i++ {
		a.Set(i, k, 0)
	}
	return a
}

// rhsSet returns right-hand sides of length n: unit vectors (the BTRAN
// case), a two-entry sparse vector and two dense ones.
func rhsSet(n int) [][]float64 {
	var set [][]float64
	for _, k := range []int{0, n / 2, n - 1} {
		e := make([]float64, n)
		e[k] = 1
		set = append(set, e)
	}
	sparse, ones, mixed := make([]float64, n), make([]float64, n), make([]float64, n)
	sparse[0], sparse[n-1] = -2, 0.75
	for i := range ones {
		ones[i] = 1
		mixed[i] = float64(i%7) - 3 + 0.1*float64(i)
	}
	return append(set, sparse, ones, mixed)
}

// minPivot returns the smallest pivot magnitude of a factorization.
func (f *SparseLU) minPivot() float64 {
	m := math.Inf(1)
	for _, d := range f.uDiag[:f.n] {
		m = min(m, math.Abs(d))
	}
	return m
}

// backwardError returns the normwise backward error of x as a solution
// of A x = b, or of Aᵀ x = b with trans: ‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞).
func backwardError(a *Matrix, x, b []float64, trans bool) float64 {
	n := a.Rows
	at := func(i, j int) float64 {
		if trans {
			return a.At(j, i)
		}
		return a.At(i, j)
	}
	res, normA, normX, normB := 0.0, 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		r, row := -b[i], 0.0
		for j := 0; j < n; j++ {
			r += at(i, j) * x[j]
			row += math.Abs(at(i, j))
		}
		res = max(res, math.Abs(r))
		normA = max(normA, row)
		normX = max(normX, math.Abs(x[i]))
		normB = max(normB, math.Abs(b[i]))
	}
	if den := normA*normX + normB; den > 0 {
		return res / den
	}
	return res
}

// checkAgainstDense factors a with SparseLU and with the dense reference.
// The singular verdicts must agree unless the matrix is near-singular (a
// pivot below 1e-9 in either factorization), and a matrix the caller
// knows to be exactly singular must report ErrSingular. A factored
// matrix's solves, with A and with Aᵀ, must keep the normwise backward
// error within 1e-12 on every right-hand side of rhsSet. Pivot order,
// fill and the solves' roundoff are SparseLU's own: it orders for
// sparsity, where the reference pivots for magnitude.
func checkAgainstDense(t *testing.T, a *Matrix, singular bool) {
	t.Helper()
	ref, refErr := factorDense(a)
	var f SparseLU
	err := f.Factor(cscOf(a))
	if err != nil && !errors.Is(err, ErrSingular) {
		t.Fatalf("sparse factor: %v", err)
	}
	if singular && err == nil {
		t.Fatalf("exactly singular matrix factored, smallest pivot %g", f.minPivot())
	}
	if (err == nil) != (refErr == nil) {
		near := refErr != nil || ref.minPivot() < 1e-9 || (err == nil && f.minPivot() < 1e-9)
		if !near {
			t.Fatalf("verdicts differ: sparse %v, dense %v (smallest dense pivot %g)", err, refErr, ref.minPivot())
		}
	}
	if err != nil {
		return
	}
	n := a.Rows
	x := make([]float64, n)
	for r, b := range rhsSet(n) {
		f.SolveInto(b, x)
		if be := backwardError(a, x, b, false); !(be <= 1e-12) {
			t.Fatalf("rhs %d: SolveInto backward error %g", r, be)
		}
		f.SolveTransposeInto(b, x)
		if be := backwardError(a, x, b, true); !(be <= 1e-12) {
			t.Fatalf("rhs %d: SolveTransposeInto backward error %g", r, be)
		}
	}
}

// TestSparseLUMatchesDense factors a table of shapes, each over several
// sizes and seeds, with SparseLU and the dense reference.
func TestSparseLUMatchesDense(t *testing.T) {
	// singular reports the sizes at which a shape is singular in exact
	// arithmetic; nil means it may or may not be.
	cases := []struct {
		name     string
		build    func(n int, d draw) *Matrix
		singular func(n int) bool
	}{
		{"general", randomEntries, nil},
		{"dense-gaussian", func(n int, d draw) *Matrix {
			a := NewMatrix(n, n)
			for i := range a.Data {
				a.Data[i] = float64(d(2001)-1000) / 97
			}
			return a
		}, nil},
		{"path-incidence", func(n int, d draw) *Matrix { return pathIncidence(n, d, false) }, nil},
		{"delay-rows", func(n int, d draw) *Matrix { return pathIncidence(n, d, true) }, nil},
		{"dependent-column", func(n int, d draw) *Matrix { return dependentColumn(randomEntries(n, d)) },
			func(n int) bool { return n >= 3 }},
		{"singular-zero", func(n int, d draw) *Matrix { return zeroLine(randomEntries(n, d), d) },
			func(int) bool { return true }},
		{"tiny-pivots", func(n int, d draw) *Matrix {
			a := pathIncidence(n, d, true)
			for i := range a.Data {
				a.Data[i] *= 3e-14
			}
			return a
		}, nil},
		{"all-ones", func(n int, d draw) *Matrix {
			a := NewMatrix(n, n)
			for i := range a.Data {
				a.Data[i] = 1
			}
			return a
		}, func(n int) bool { return n >= 2 }},
		{"permutation", func(n int, d draw) *Matrix {
			a := NewMatrix(n, n)
			for i, j := range shuffled(n, d) {
				a.Set(i, j, float64(1+d(3)))
			}
			return a
		}, nil},
		{"arrow", func(n int, d draw) *Matrix {
			a := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				a.Set(i, i, 1)
				a.Set(i, 0, 1)
				a.Set(0, i, -1)
			}
			return a
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(40)
				checkAgainstDense(t, tc.build(n, rng.Intn), tc.singular != nil && tc.singular(n))
			}
		})
	}
}

// fuzzMatrix decodes a square matrix from fuzz input: the first byte picks
// the dimension (1–32), the second the shape, the rest drive the shape's
// random choices (zeros once the input runs out). It also reports whether
// the matrix is singular in exact arithmetic: a dependent column at
// n ≥ 3, or a zero row or column.
func fuzzMatrix(data []byte) (*Matrix, bool) {
	a, dependent := decodeShape(data)
	return a, dependent || hasZeroLine(a)
}

// hasZeroLine reports whether a has an all-zero row or column.
func hasZeroLine(a *Matrix) bool {
	for i := 0; i < a.Rows; i++ {
		rowZero, colZero := true, true
		for j := 0; j < a.Cols; j++ {
			rowZero = rowZero && a.At(i, j) == 0
			colZero = colZero && a.At(j, i) == 0
		}
		if rowZero || colZero {
			return true
		}
	}
	return false
}

// decodeShape decodes fuzzMatrix's matrix and reports whether it has a
// dependent column.
func decodeShape(data []byte) (*Matrix, bool) {
	d := func(k int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % k
	}
	n := 1 + d(32)
	switch d(4) {
	case 0:
		return randomEntries(n, d), false
	case 1:
		return pathIncidence(n, d, false), false
	case 2:
		return pathIncidence(n, d, true), false
	}
	return dependentColumn(randomEntries(n, d)), n >= 3
}

// FuzzSparseLU differentially tests SparseLU against the dense reference
// on decoded matrices, tie-heavy ±1 path incidences and singular ones
// among them, under checkAgainstDense's contract.
func FuzzSparseLU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, singular := fuzzMatrix(data)
		checkAgainstDense(t, a, singular)
	})
}

// TestSparseLUReuseAllocs refactors one SparseLU alternately at two
// dimensions: once its storage has grown, a factorization allocates
// nothing.
func TestSparseLUReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := cscOf(pathIncidence(90, rng.Intn, true))
	small := cscOf(pathIncidence(55, rng.Intn, true))
	var f SparseLU
	allocs := testing.AllocsPerRun(20, func() {
		if f.Factor(big) != nil || f.Factor(small) != nil {
			t.Fatal("root-path matrix reported singular")
		}
	})
	if allocs != 0 {
		t.Errorf("refactorizing into reused storage: %v allocs per run, want 0", allocs)
	}
}
