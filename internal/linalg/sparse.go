package linalg

import (
	"math"
	"math/bits"
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

// SparseLU is an LU factorization P·A·Q = L·U of a square sparse
// matrix, ordered for sparsity: Q takes the columns by ascending nonzero
// count, and P picks each pivot row by threshold partial pivoting. L is
// unit lower triangular and U upper triangular, each kept both by column
// (for SolveInto) and by row (for SolveTransposeInto). Its zero value is
// ready for Factor, and Factor reuses its storage whatever the
// dimension.
//
// The solves are list-driven (Gilbert and Peierls' reach-limited
// triangular solve): a bitset of the pivot steps the right-hand side
// reaches is swept in the order of a full pass, and each applied column
// or row marks the steps it reaches, which always lie ahead of the
// sweep. Each reached step is visited once, in the full pass's order and
// with its zero skips, so a solve costs O(n/64 + steps reached + entries
// applied) and its values equal a full pass's bit for bit.
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

	// Factor scratch, indexed by row of A unless noted. After a
	// successful Factor, pinv is the inverse row order and qinv the
	// inverse column order; the solves map their right-hand sides with
	// them.
	pinv    []int32   // step at which the row was pivoted, or −1
	qinv    []int32   // step at which the column was eliminated
	rowNNZ  []int32   // the row's nonzero count in A
	mark    []int32   // last step whose column reached the row
	x       []float64 // the column being eliminated
	reach   []int32   // pivot steps the column reaches, in postorder
	rows    []int32   // unpivoted rows the column reaches
	stack   []int32   // depth-first search: steps on the path
	next    []int     // depth-first search: next L entry per stack level
	byCount []int     // column count histogram, by count

	// Solve scratch, zero between solves.
	y    []float64 // intermediate, by step
	seen []uint64  // bitset of the steps the solve reached
	out  []uint64  // bitset of the solution's nonzeros, by index of x
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
	f.qinv = resize(f.qinv, n)
	f.y = resize(f.y, n)
	f.seen = resize(f.seen, (n+63)>>6)
	f.out = resize(f.out, (n+63)>>6)
	clear(f.y)
	clear(f.seen)
	clear(f.out)
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
		f.qinv[j] = int32(byCount[c])
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

// SolveInto computes x with A x = b for the factored A: the FTRAN of the
// revised simplex. b (len n) holds the right-hand side and bIdx lists
// the indices where it may be nonzero, in any order, repeats allowed; a
// dense right-hand side lists every index. SolveInto writes the
// solution's nonzeros into x (len n, not aliasing b), leaves the rest of
// x as it was, and returns xIdx with their indices appended in ascending
// order, together with the number of L and U entries applied. With
// P·A·Q = L·U the solve is the row permutation, a forward solve with L
// (swept upward), a backward solve with U (swept downward) and the
// column permutation.
func (f *SparseLU) SolveInto(b []float64, bIdx []int32, x []float64, xIdx []int32) ([]int32, int) {
	if len(b) != f.n || len(x) != f.n {
		panic("linalg: SparseLU.SolveInto length mismatch")
	}
	f.scatter(b, bIdx, f.pinv)
	applied := f.upward(f.lPtr, f.lEnt, nil)
	applied += f.downward(f.uPtr, f.uEnt, f.uDiag)
	return f.gather(f.cols, x, xIdx), applied
}

// SolveTransposeInto computes x with Aᵀ x = b for the factored A: the
// BTRAN of the revised simplex, under SolveInto's contract for b, bIdx,
// x and xIdx. With P·A·Q = L·U the solve is the column permutation, a
// forward solve with Uᵀ (swept upward along the rows of U), a backward
// solve with Lᵀ (swept downward along the rows of L) and the inverse row
// permutation.
func (f *SparseLU) SolveTransposeInto(b []float64, bIdx []int32, x []float64, xIdx []int32) ([]int32, int) {
	if len(b) != f.n || len(x) != f.n {
		panic("linalg: SparseLU.SolveTransposeInto length mismatch")
	}
	f.scatter(b, bIdx, f.qinv)
	applied := f.upward(f.uRowPtr, f.uRowEnt, f.uDiag)
	applied += f.downward(f.lRowPtr, f.lRowEnt, nil)
	return f.gather(f.perm, x, xIdx), applied
}

// scatter copies the listed entries of b into y at the steps step maps
// them to, and marks those steps.
func (f *SparseLU) scatter(b []float64, bIdx []int32, step []int32) {
	y, seen := f.y, f.seen
	for _, i := range bIdx {
		k := step[i]
		y[k] = b[i]
		seen[k>>6] |= 1 << (k & 63)
	}
}

// upward runs a lower triangular substitution over the marked steps in
// ascending order: see apply. A step marks only steps above itself, so
// re-reading a word past the step just taken finds the steps it marked.
func (f *SparseLU) upward(ptr []int, ent []luEntry, diag []float64) int {
	seen := f.seen
	applied := 0
	for wi := range seen {
		for mask := ^uint64(0); ; {
			w := seen[wi] & mask
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			mask = ^uint64(0) << (b + 1)
			applied += f.apply(wi<<6|b, ptr, ent, diag)
		}
	}
	return applied
}

// downward is upward's mirror for an upper triangular substitution: it
// takes the marked steps in descending order, and each step marks only
// steps below itself.
func (f *SparseLU) downward(ptr []int, ent []luEntry, diag []float64) int {
	seen := f.seen
	applied := 0
	for wi := len(seen) - 1; wi >= 0; wi-- {
		for mask := ^uint64(0); ; {
			w := seen[wi] & mask
			if w == 0 {
				break
			}
			b := 63 - bits.LeadingZeros64(w)
			mask = 1<<b - 1
			applied += f.apply(wi<<6|b, ptr, ent, diag)
		}
	}
	return applied
}

// apply is one step k of a substitution: unless y[k] is zero, it divides
// y[k] by diag[k] (a nil diag is the unit one) and subtracts its
// multiples of the entries ent[ptr[k]:ptr[k+1]] from y, marking the
// steps they reach. It returns the number of entries applied.
func (f *SparseLU) apply(k int, ptr []int, ent []luEntry, diag []float64) int {
	y, seen := f.y, f.seen
	v := y[k]
	if v == 0 {
		return 0
	}
	if diag != nil {
		v /= diag[k]
		y[k] = v
	}
	col := ent[ptr[k]:ptr[k+1]]
	for _, e := range col {
		y[e.i] -= e.v * v
		seen[e.i>>6] |= 1 << (e.i & 63)
	}
	return len(col)
}

// gather moves the solution out of y: each marked step k with a nonzero
// value goes to x[to[k]], and y and the marks are cleared. The indices
// written are then appended to xIdx in ascending order by a sweep of
// their bitset, which is cleared too.
func (f *SparseLU) gather(to []int32, x []float64, xIdx []int32) []int32 {
	y, seen, out := f.y, f.seen, f.out
	for wi, w := range seen {
		if w == 0 {
			continue
		}
		seen[wi] = 0
		for ; w != 0; w &= w - 1 {
			k := wi<<6 | bits.TrailingZeros64(w)
			if v := y[k]; v != 0 {
				o := to[k]
				x[o] = v
				out[o>>6] |= 1 << (o & 63)
			}
			y[k] = 0
		}
	}
	for wi, w := range out {
		if w == 0 {
			continue
		}
		out[wi] = 0
		for ; w != 0; w &= w - 1 {
			xIdx = append(xIdx, int32(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return xIdx
}

// NNZ returns the number of nonzeros in L and U, counting U's diagonal
// and not L's implicit unit one. Comparing it with the nonzero count of
// the factored matrix measures fill-in.
func (f *SparseLU) NNZ() int { return len(f.lEnt) + len(f.uEnt) + f.n }
