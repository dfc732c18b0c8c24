package linalg

import (
	"math"
	"slices"
)

// CSC is a sparse matrix in compressed-sparse-column form: column j holds
// the entries RowInd[q], Val[q] for q in [ColPtr[j], ColPtr[j+1]). Row
// indices within a column must be distinct; their order is free.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1, ColPtr[0] = 0
	RowInd     []int32
	Val        []float64
}

// SparseLU is an LU factorization with partial pivoting, P·A = L·U, of a
// square sparse matrix: L unit lower triangular and U upper triangular,
// both kept by column. Its zero value is ready for Factor, and Factor
// reuses its storage whatever the dimension.
type SparseLU struct {
	n int
	// Column k of L holds the entries below the unit diagonal, with row
	// indices given as final pivot positions in ascending order. Column k
	// of U holds the entries above the diagonal in ascending pivot-step
	// order; the diagonal is uDiag[k].
	lPtr, uPtr []int
	lEnt, uEnt []luEntry
	uDiag      []float64
	perm       []int32 // perm[i] = row of A pivoted at step i

	// Factor scratch, indexed by row of A unless noted.
	pinv  []int32   // step at which the row was pivoted, or −1
	pos   []int32   // the row's position under the swap bookkeeping
	mark  []int32   // last column whose pattern reached the row
	x     []float64 // the column being eliminated
	reach []int32   // pivot steps the column reaches
	rows  []int32   // unpivoted rows the column reaches
	y     []float64 // SolveTransposeInto intermediate, by position
}

type luEntry struct {
	i int32
	v float64
}

// resize returns s with length n, reusing its backing array when the
// capacity allows; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Factor computes the factorization of the square matrix a into f's
// storage, column by column (left-looking). Each column's pattern is the
// set of rows reachable from a's column through the columns of L already
// computed, so the work follows the nonzeros of a, L and U rather than
// the dimension squared. The eliminated values are those of a dense
// row-major Gaussian elimination with partial pivoting, bit for bit:
// each entry receives its updates in increasing pivot-step order, the
// pivot is the largest magnitude among unpivoted rows with ties going to
// the smallest current row position, and the chosen row swaps position
// with the row at the current step. A pivot magnitude below 1e-13
// returns ErrSingular, and f holds no usable factorization until the
// next successful Factor. Panics if a is not square.
func (f *SparseLU) Factor(a *CSC) error {
	if a.Rows != a.Cols {
		panic("linalg: SparseLU.Factor of non-square matrix")
	}
	n := a.Cols
	f.n = n
	f.lPtr = append(f.lPtr[:0], 0)
	f.uPtr = append(f.uPtr[:0], 0)
	f.lEnt = f.lEnt[:0]
	f.uEnt = f.uEnt[:0]
	f.uDiag = resize(f.uDiag, n)
	f.perm = resize(f.perm, n)
	f.pinv = resize(f.pinv, n)
	f.pos = resize(f.pos, n)
	f.mark = resize(f.mark, n)
	f.x = resize(f.x, n)
	f.y = resize(f.y, n)
	perm, pinv, pos, mark, x := f.perm, f.pinv, f.pos, f.mark, f.x
	for r := range x {
		perm[r], pinv[r], pos[r], mark[r], x[r] = int32(r), -1, int32(r), -1, 0
	}
	reach, rows := f.reach[:0], f.rows[:0]
	for j := 0; j < n; j++ {
		jj := int32(j)
		// Symbolic step: scatter column j, then collect every row it reaches
		// through the columns of L of the pivoted rows reached so far.
		reach, rows = reach[:0], rows[:0]
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			r := a.RowInd[q]
			x[r] = a.Val[q]
			mark[r] = jj
			if k := pinv[r]; k >= 0 {
				reach = append(reach, k)
			} else {
				rows = append(rows, r)
			}
		}
		for q := 0; q < len(reach); q++ {
			k := reach[q]
			for _, e := range f.lEnt[f.lPtr[k]:f.lPtr[k+1]] {
				if mark[e.i] == jj {
					continue
				}
				mark[e.i] = jj
				if kk := pinv[e.i]; kk >= 0 {
					reach = append(reach, kk)
				} else {
					rows = append(rows, e.i)
				}
			}
		}
		// Numeric step: apply the reached columns of L in step order, which
		// is the order the dense elimination updates every entry in.
		slices.Sort(reach)
		for _, k := range reach {
			r := perm[k]
			u := x[r]
			x[r] = 0
			if u == 0 {
				continue
			}
			f.uEnt = append(f.uEnt, luEntry{k, u})
			for _, e := range f.lEnt[f.lPtr[k]:f.lPtr[k+1]] {
				x[e.i] -= e.v * u
			}
		}
		f.uPtr = append(f.uPtr, len(f.uEnt))
		// Pivot: the largest magnitude, ties to the smallest position.
		best, prow := -1.0, int32(-1)
		for _, r := range rows {
			if v := math.Abs(x[r]); v > best || (v == best && pos[r] < pos[prow]) {
				best, prow = v, r
			}
		}
		if best < 1e-13 {
			f.reach, f.rows = reach, rows
			return ErrSingular
		}
		p, rj := pos[prow], perm[j]
		perm[j], perm[p] = prow, rj
		pos[prow], pos[rj] = jj, p
		pinv[prow] = jj
		pivot := x[prow]
		x[prow] = 0
		f.uDiag[j] = pivot
		for _, r := range rows {
			if r == prow {
				continue
			}
			if m := x[r] / pivot; m != 0 {
				f.lEnt = append(f.lEnt, luEntry{r, m})
			}
			x[r] = 0
		}
		f.lPtr = append(f.lPtr, len(f.lEnt))
	}
	f.reach, f.rows = reach, rows
	// Renumber L's rows by final position and sort each column, the order
	// SolveTransposeInto consumes them in.
	for q := range f.lEnt {
		f.lEnt[q].i = pinv[f.lEnt[q].i]
	}
	for k := 0; k < n; k++ {
		slices.SortFunc(f.lEnt[f.lPtr[k]:f.lPtr[k+1]], func(a, b luEntry) int { return int(a.i - b.i) })
	}
	return nil
}

// SolveInto computes x with A x = b for the factored A (len n each; x may
// not alias b): the FTRAN of the revised simplex. Both substitutions run
// column by column and skip a column whose multiplier is zero, so the
// cost follows the nonzeros the right-hand side touches.
func (f *SparseLU) SolveInto(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: SparseLU.SolveInto length mismatch")
	}
	for i, p := range f.perm[:n] {
		x[i] = b[p]
	}
	for k := 0; k < n; k++ {
		if v := x[k]; v != 0 {
			for _, e := range f.lEnt[f.lPtr[k]:f.lPtr[k+1]] {
				x[e.i] -= e.v * v
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		v := x[k] / f.uDiag[k]
		x[k] = v
		if v != 0 {
			for _, e := range f.uEnt[f.uPtr[k]:f.uPtr[k+1]] {
				x[e.i] -= e.v * v
			}
		}
	}
}

// SolveTransposeInto computes x with Aᵀ x = b for the factored A (len n
// each; x may not alias b): the BTRAN of the revised simplex. With
// P·A = L·U this is a forward solve with Uᵀ, a backward solve with Lᵀ and
// the inverse row permutation; each runs as one inner product per column
// of U or L, so a solve costs O(n + nnz(L+U)).
func (f *SparseLU) SolveTransposeInto(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: SparseLU.SolveTransposeInto length mismatch")
	}
	y := f.y[:n]
	copy(y, b)
	for k := 0; k < n; k++ {
		s := y[k]
		for _, e := range f.uEnt[f.uPtr[k]:f.uPtr[k+1]] {
			s -= e.v * y[e.i]
		}
		y[k] = s / f.uDiag[k]
	}
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		col := f.lEnt[f.lPtr[k]:f.lPtr[k+1]]
		for q := len(col) - 1; q >= 0; q-- {
			s -= col[q].v * y[col[q].i]
		}
		y[k] = s
	}
	for i, p := range f.perm[:n] {
		x[p] = y[i]
	}
}

// NNZ returns the number of nonzeros in L and U, counting U's diagonal
// and not L's implicit unit one. Comparing it with the nonzero count of
// the factored matrix measures fill-in.
func (f *SparseLU) NNZ() int { return len(f.lEnt) + len(f.uEnt) + f.n }
