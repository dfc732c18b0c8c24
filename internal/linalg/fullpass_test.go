package linalg

// solveFull and solveTransposeFull are the full-pass solves SparseLU ran
// before its list-driven ones: the permutations and both substitutions
// visit every step, skipping zero multipliers. They are the reference
// the list-driven solves are held to bit for bit; they use their own
// intermediate, so the factorization's solve scratch stays zero.

// solveFull computes x with A x = b for the factored A and returns the
// number of L and U entries applied.
func (f *SparseLU) solveFull(b, x []float64) int {
	n := f.n
	y := make([]float64, n)
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

// solveTransposeFull computes x with Aᵀ x = b for the factored A and
// returns the number of L and U entries applied.
func (f *SparseLU) solveTransposeFull(b, x []float64) int {
	n := f.n
	y := make([]float64, n)
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
