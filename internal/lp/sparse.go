package lp

import (
	"fmt"
	"slices"
	"sort"
)

// rowStore is the sparse constraint representation of the revised
// engine: a CSR-style row store over ≤-form rows
// (Σ aᵢⱼ xⱼ ≤ bᵢ), plus a transposed column index used by the revised
// dual simplex for basis-column gathers and pricing. Rows are appended by
// the cutting-plane loop and may later be rewritten in place (replaceRow)
// by the restaging paths; both views are kept consistent either way. EBF
// rows touch only the O(depth) edges of one tree path, so both views stay
// tiny compared with a dense rows×columns tableau.
type rowStore struct {
	nVars int
	ptr   []int     // row k occupies ind/val[ptr[k]:ptr[k+1]]; len numRows+1
	ind   []int32   // column indices within a row (strictly increasing)
	val   []float64 // matching coefficients
	rhs   []float64 // per-row right-hand side

	// cols[j] lists the (row, coef) pairs of structural column j in row
	// order — the CSC twin of the CSR arrays above, maintained on append.
	cols [][]colEntry

	scratch []float64 // nVars-sized accumulator reused by appendLE
	touched []int32
}

type colEntry struct {
	row  int32
	coef float64
}

func newRowStore(nVars int) *rowStore {
	return &rowStore{
		nVars:   nVars,
		ptr:     []int{0},
		cols:    make([][]colEntry, nVars),
		scratch: make([]float64, nVars),
	}
}

// numRows returns the ≤-row count.
func (rs *rowStore) numRows() int { return len(rs.rhs) }

// nnz returns the stored nonzero count.
func (rs *rowStore) nnz() int { return len(rs.val) }

// appendLE adds the row sign·(Σ terms) ≤ sign·rhs. Duplicate variables in
// terms are coalesced; zero coefficients are dropped.
func (rs *rowStore) appendLE(terms []Term, rhs float64, sign float64) {
	rs.touched = rs.touched[:0]
	for _, t := range terms {
		if t.Var < 0 || t.Var >= rs.nVars {
			panic(fmt.Sprintf("lp: row references variable %d of %d", t.Var, rs.nVars))
		}
		if rs.scratch[t.Var] == 0 && t.Coef != 0 {
			rs.touched = append(rs.touched, int32(t.Var))
		}
		rs.scratch[t.Var] += sign * t.Coef
	}
	sort.Slice(rs.touched, func(a, b int) bool { return rs.touched[a] < rs.touched[b] })
	row := int32(len(rs.rhs))
	for _, j := range rs.touched {
		c := rs.scratch[j]
		rs.scratch[j] = 0
		if c == 0 {
			continue
		}
		rs.ind = append(rs.ind, j)
		rs.val = append(rs.val, c)
		rs.cols[j] = append(rs.cols[j], colEntry{row: row, coef: c})
	}
	rs.ptr = append(rs.ptr, len(rs.ind))
	rs.rhs = append(rs.rhs, sign*rhs)
}

// replaceRow rewrites row k in place as sign·(Σ terms) ≤ sign·rhs,
// splicing the CSR segment and patching the CSC columns the old and new
// rows touch. It reports whether the stored coefficient pattern actually
// changed — a pure right-hand-side rewrite (same terms, same sign) leaves
// the constraint matrix, and therefore any basis factorization of it,
// intact.
func (rs *rowStore) replaceRow(k int, terms []Term, rhs float64, sign float64) (changed bool) {
	rs.touched = rs.touched[:0]
	for _, t := range terms {
		if t.Var < 0 || t.Var >= rs.nVars {
			panic(fmt.Sprintf("lp: row references variable %d of %d", t.Var, rs.nVars))
		}
		if rs.scratch[t.Var] == 0 && t.Coef != 0 {
			rs.touched = append(rs.touched, int32(t.Var))
		}
		rs.scratch[t.Var] += sign * t.Coef
	}
	sort.Slice(rs.touched, func(a, b int) bool { return rs.touched[a] < rs.touched[b] })
	lo, hi := rs.ptr[k], rs.ptr[k+1]
	// Same coefficient pattern? Then only the right-hand side moves.
	same := true
	q := lo
	for _, j := range rs.touched {
		c := rs.scratch[j]
		if c == 0 {
			continue
		}
		if q >= hi || rs.ind[q] != j || rs.val[q] != c {
			same = false
			break
		}
		q++
	}
	if same && q == hi {
		for _, j := range rs.touched {
			rs.scratch[j] = 0
		}
		rs.rhs[k] = sign * rhs
		return false
	}
	// Drop stale CSC entries: old columns whose new coefficient is zero.
	for _, j := range rs.ind[lo:hi] {
		if rs.scratch[j] == 0 {
			rs.colPatch(int(j), int32(k), 0)
		}
	}
	// Build the new CSR segment and upsert the surviving CSC entries.
	var nInd []int32
	var nVal []float64
	for _, j := range rs.touched {
		c := rs.scratch[j]
		rs.scratch[j] = 0
		if c == 0 {
			continue
		}
		nInd = append(nInd, j)
		nVal = append(nVal, c)
		rs.colPatch(int(j), int32(k), c)
	}
	rs.ind = slices.Replace(rs.ind, lo, hi, nInd...)
	rs.val = slices.Replace(rs.val, lo, hi, nVal...)
	if delta := len(nInd) - (hi - lo); delta != 0 {
		for i := k + 1; i < len(rs.ptr); i++ {
			rs.ptr[i] += delta
		}
	}
	rs.rhs[k] = sign * rhs
	return true
}

// colPatch sets column j's entry for row k to coef: updating it in place,
// deleting it when coef is zero, or inserting it in row order.
func (rs *rowStore) colPatch(j int, k int32, coef float64) {
	col := rs.cols[j]
	i := sort.Search(len(col), func(i int) bool { return col[i].row >= k })
	switch {
	case i < len(col) && col[i].row == k:
		if coef == 0 {
			rs.cols[j] = append(col[:i], col[i+1:]...)
		} else {
			col[i].coef = coef
		}
	case coef != 0:
		col = append(col, colEntry{})
		copy(col[i+1:], col[i:])
		col[i] = colEntry{row: k, coef: coef}
		rs.cols[j] = col
	}
}

// row returns the index/value slices of row k (shared storage).
func (rs *rowStore) row(k int) ([]int32, []float64) {
	lo, hi := rs.ptr[k], rs.ptr[k+1]
	return rs.ind[lo:hi], rs.val[lo:hi]
}

// col returns the (row, coef) list of structural column j (shared
// storage).
func (rs *rowStore) col(j int) []colEntry { return rs.cols[j] }

// activity returns Σ aₖⱼ xⱼ for row k under the structural vector x.
func (rs *rowStore) activity(k int, x []float64) float64 {
	ind, val := rs.row(k)
	var s float64
	for p, j := range ind {
		s += val[p] * x[j]
	}
	return s
}
