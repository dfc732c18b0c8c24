package linalg

import "math"

// CSC is a sparse matrix in compressed-sparse-column form: column j holds
// the entries RowInd[q], Val[q] for q in [ColPtr[j], ColPtr[j+1]). Row
// indices within a column must be distinct; their order is free.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1, ColPtr[0] = 0
	RowInd     []int32
	Val        []float64
}

// SparseLU is an LU factorization P·A·Q = L·U of a square sparse
// matrix, ordered for sparsity: Q takes the columns by ascending nonzero
// count, and P picks each pivot row by threshold partial pivoting. L is
// unit lower triangular and U upper triangular, each kept both by column
// (for SolveInto) and by row (for SolveTransposeInto). Its zero value is
// ready for Factor, and Factor reuses its storage whatever the
// dimension.
type SparseLU struct {
	n int
	// Column k of L holds the entries below the unit diagonal, with row
	// indices given as pivot steps. Column k of U holds the entries above
	// the diagonal, by pivot step; the diagonal is uDiag[k].
	lPtr, uPtr []int
	lEnt, uEnt []luEntry
	uDiag      []float64
	perm       []int32 // perm[k] = row of A pivoted at step k
	cols       []int32 // cols[k] = column of A eliminated at step k
	// Row i of L (of U) holds the same entries left of (right of) the
	// diagonal, with i holding the column index.
	lRowPtr, uRowPtr []int
	lRowEnt, uRowEnt []luEntry

	// Factor scratch, indexed by row of A unless noted.
	pinv    []int32   // step at which the row was pivoted, or −1
	rowNNZ  []int32   // the row's nonzero count in A
	mark    []int32   // last step whose column reached the row
	x       []float64 // the column being eliminated
	reach   []int32   // pivot steps the column reaches, in postorder
	rows    []int32   // unpivoted rows the column reaches
	stack   []int32   // depth-first search: steps on the path
	next    []int     // depth-first search: next L entry per stack level
	byCount []int     // column count histogram, by count
	y       []float64 // solve intermediate, by step
}

type luEntry struct {
	i int32
	v float64
}

// Pivoting parameters. A candidate pivot must reach pivotThreshold times
// the largest magnitude among the column's unpivoted rows; the column is
// singular when that largest magnitude is below singularTol times the
// largest magnitude the column reached during elimination.
const (
	pivotThreshold = 0.1
	singularTol    = 1e-13
)

// resize returns s with length n, reusing its backing array when the
// capacity allows; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Factor computes the factorization of the square matrix a into f's
// storage, column by column (left-looking; Gilbert and Peierls). The
// columns are taken by ascending nonzero count, ties by index. Each
// column's pattern is the set of rows reachable from a's column through
// the columns of L already computed; a depth-first search finds it and
// yields the reached columns of L in topological order, the order the
// numeric step applies them in, so the work follows the nonzeros of a, L
// and U rather than the dimension squared. The pivot is a threshold
// choice among the unpivoted rows: of those within pivotThreshold of the
// largest magnitude, the row with the fewest nonzeros in a, then the
// larger magnitude, then the smaller row index. When the largest
// magnitude falls below singularTol times the largest one the column
// reached (its entries in a, in U and the candidates), Factor returns
// ErrSingular, and f holds no usable factorization until the next
// successful Factor. Panics if a is not square.
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
	f.cols = resize(f.cols, n)
	f.pinv = resize(f.pinv, n)
	f.rowNNZ = resize(f.rowNNZ, n)
	f.mark = resize(f.mark, n)
	f.x = resize(f.x, n)
	f.y = resize(f.y, n)
	f.stack = resize(f.stack, n)
	f.next = resize(f.next, n)
	f.byCount = resize(f.byCount, n+2)
	pinv, rowNNZ, mark, x := f.pinv, f.rowNNZ, f.mark, f.x
	for r := range x {
		pinv[r], rowNNZ[r], mark[r], x[r] = -1, 0, -1, 0
	}
	// Column order: a counting sort by nonzero count, stable in the index.
	byCount := f.byCount
	clear(byCount)
	for j := 0; j < n; j++ {
		byCount[a.ColPtr[j+1]-a.ColPtr[j]+1]++
	}
	for c := 1; c <= n; c++ {
		byCount[c] += byCount[c-1]
	}
	for j := 0; j < n; j++ {
		c := a.ColPtr[j+1] - a.ColPtr[j]
		f.cols[byCount[c]] = int32(j)
		byCount[c]++
	}
	for _, r := range a.RowInd[:a.ColPtr[n]] {
		rowNNZ[r]++
	}
	reach, rows := f.reach[:0], f.rows[:0]
	for k := 0; k < n; k++ {
		kk := int32(k)
		j := int(f.cols[k])
		// Symbolic step: scatter column j, then search depth-first from
		// every pivoted row it holds through the columns of L, collecting
		// the reached steps in postorder and the unpivoted rows.
		reach, rows = reach[:0], rows[:0]
		colMax := 0.0
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			r := a.RowInd[q]
			x[r] = a.Val[q]
			colMax = max(colMax, math.Abs(a.Val[q]))
		}
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			r := a.RowInd[q]
			if mark[r] == kk {
				continue
			}
			mark[r] = kk
			if pinv[r] < 0 {
				rows = append(rows, r)
				continue
			}
			reach, rows = f.dfs(pinv[r], kk, reach, rows)
		}
		// Numeric step: apply the reached columns of L in topological
		// order (reverse postorder).
		for q := len(reach) - 1; q >= 0; q-- {
			s := reach[q]
			r := f.perm[s]
			u := x[r]
			x[r] = 0
			if u == 0 {
				continue
			}
			colMax = max(colMax, math.Abs(u))
			f.uEnt = append(f.uEnt, luEntry{s, u})
			for _, e := range f.lEnt[f.lPtr[s]:f.lPtr[s+1]] {
				x[e.i] -= e.v * u
			}
		}
		f.uPtr = append(f.uPtr, len(f.uEnt))
		// Pivot: threshold partial pivoting, ties to the sparser row.
		big := 0.0
		for _, r := range rows {
			big = max(big, math.Abs(x[r]))
		}
		colMax = max(colMax, big)
		if !(big > singularTol*colMax) {
			for _, r := range rows {
				x[r] = 0
			}
			f.reach, f.rows = reach, rows
			return ErrSingular
		}
		prow, pabs := int32(-1), 0.0
		for _, r := range rows {
			v := math.Abs(x[r])
			if v < pivotThreshold*big {
				continue
			}
			if prow < 0 || rowNNZ[r] < rowNNZ[prow] ||
				(rowNNZ[r] == rowNNZ[prow] && (v > pabs || (v == pabs && r < prow))) {
				prow, pabs = r, v
			}
		}
		f.perm[k] = prow
		pinv[prow] = kk
		pivot := x[prow]
		x[prow] = 0
		f.uDiag[k] = pivot
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
	// Renumber L's rows by pivot step, the index the solves use.
	for q := range f.lEnt {
		f.lEnt[q].i = pinv[f.lEnt[q].i]
	}
	f.lRowPtr, f.lRowEnt = transpose(n, f.lPtr, f.lEnt, f.lRowPtr, f.lRowEnt)
	f.uRowPtr, f.uRowEnt = transpose(n, f.uPtr, f.uEnt, f.uRowPtr, f.uRowEnt)
	return nil
}

// dfs runs the depth-first search of Factor's symbolic step from step s
// for the column of step kk: it appends every pivoted step reachable
// from s through the columns of L to reach in postorder, and every
// unpivoted row it meets to rows, marking each row it visits.
func (f *SparseLU) dfs(s, kk int32, reach, rows []int32) ([]int32, []int32) {
	stack, next := f.stack, f.next
	top := 0
	stack[0], next[0] = s, f.lPtr[s]
	for top >= 0 {
		s := stack[top]
		end := f.lPtr[s+1]
		q := next[top]
		for ; q < end; q++ {
			r := f.lEnt[q].i
			if f.mark[r] == kk {
				continue
			}
			f.mark[r] = kk
			if f.pinv[r] >= 0 {
				break
			}
			rows = append(rows, r)
		}
		if q == end {
			reach = append(reach, s)
			top--
			continue
		}
		// Descend into the pivoted row's step; resume after it later.
		t := f.pinv[f.lEnt[q].i]
		next[top] = q + 1
		top++
		stack[top], next[top] = t, f.lPtr[t]
	}
	return reach, rows
}

// transpose returns the row-wise copy of the n columns ptr/ent in the
// storage rowPtr/rowEnt: row i lists its entries with their column
// index, in ascending column order. rowEnt grows to ent's capacity, so
// it reallocates only when the column storage's append did, not each
// time a refactorization's fill grows.
func transpose(n int, ptr []int, ent []luEntry, rowPtr []int, rowEnt []luEntry) ([]int, []luEntry) {
	rowPtr = resize(rowPtr, n+1)
	clear(rowPtr)
	for _, e := range ent {
		rowPtr[e.i+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	if cap(rowEnt) < len(ent) {
		rowEnt = make([]luEntry, len(ent), cap(ent))
	}
	rowEnt = rowEnt[:len(ent)]
	for k := 0; k < n; k++ {
		for _, e := range ent[ptr[k]:ptr[k+1]] {
			rowEnt[rowPtr[e.i]] = luEntry{int32(k), e.v}
			rowPtr[e.i]++
		}
	}
	// Each rowPtr[i] now holds the start of row i+1; shift back.
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	return rowPtr, rowEnt
}

// SolveInto computes x with A x = b for the factored A (len n each; x may
// not alias b): the FTRAN of the revised simplex. With P·A·Q = L·U this
// is the row permutation, a forward solve with L, a backward solve with
// U and the column permutation. Both substitutions run column by column
// and skip a column whose multiplier is zero, so the cost follows the
// nonzeros the right-hand side touches. It returns the number of L and U
// entries applied.
func (f *SparseLU) SolveInto(b, x []float64) int {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: SparseLU.SolveInto length mismatch")
	}
	y := f.y[:n]
	for k, r := range f.perm[:n] {
		y[k] = b[r]
	}
	applied := 0
	for k := 0; k < n; k++ {
		if v := y[k]; v != 0 {
			col := f.lEnt[f.lPtr[k]:f.lPtr[k+1]]
			applied += len(col)
			for _, e := range col {
				y[e.i] -= e.v * v
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		if y[k] == 0 {
			continue
		}
		v := y[k] / f.uDiag[k]
		y[k] = v
		col := f.uEnt[f.uPtr[k]:f.uPtr[k+1]]
		applied += len(col)
		for _, e := range col {
			y[e.i] -= e.v * v
		}
	}
	for k, j := range f.cols[:n] {
		x[j] = y[k]
	}
	return applied
}

// SolveTransposeInto computes x with Aᵀ x = b for the factored A (len n
// each; x may not alias b): the BTRAN of the revised simplex. With
// P·A·Q = L·U this is the column permutation, a forward solve with Uᵀ, a
// backward solve with Lᵀ and the inverse row permutation. Both
// substitutions scatter along the rows of U and L and skip a row whose
// multiplier is zero, as SolveInto does along columns, so the cost
// follows the nonzeros the right-hand side touches. It returns the
// number of L and U entries applied.
func (f *SparseLU) SolveTransposeInto(b, x []float64) int {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: SparseLU.SolveTransposeInto length mismatch")
	}
	y := f.y[:n]
	for k, j := range f.cols[:n] {
		y[k] = b[j]
	}
	applied := 0
	for i := 0; i < n; i++ {
		if y[i] == 0 {
			continue
		}
		v := y[i] / f.uDiag[i]
		y[i] = v
		row := f.uRowEnt[f.uRowPtr[i]:f.uRowPtr[i+1]]
		applied += len(row)
		for _, e := range row {
			y[e.i] -= e.v * v
		}
	}
	for i := n - 1; i > 0; i-- {
		if v := y[i]; v != 0 {
			row := f.lRowEnt[f.lRowPtr[i]:f.lRowPtr[i+1]]
			applied += len(row)
			for _, e := range row {
				y[e.i] -= e.v * v
			}
		}
	}
	for i, p := range f.perm[:n] {
		x[p] = y[i]
	}
	return applied
}

// NNZ returns the number of nonzeros in L and U, counting U's diagonal
// and not L's implicit unit one. Comparing it with the nonzero count of
// the factored matrix measures fill-in.
func (f *SparseLU) NNZ() int { return len(f.lEnt) + len(f.uEnt) + f.n }
