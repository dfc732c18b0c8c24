package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Error("At wrong")
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Error("Set wrong")
	}
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 || tr.At(1, 2) != 6 {
		t.Error("T wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Error("Clone shares storage")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := m.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("MulVec = %v", y)
	}
	yt := m.MulVecT([]float64{1, 1})
	if yt[0] != 5 || yt[1] != 7 || yt[2] != 9 {
		t.Errorf("MulVecT = %v", yt)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	c := a.Mul(b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul = %v", c.Data)
			}
		}
	}
}

func TestDotNormScale(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
	if NormInf([]float64{-7, 3}) != 7 {
		t.Error("NormInf wrong")
	}
	v := []float64{1, 2}
	AddScaled(v, 2, []float64{1, 1})
	if v[0] != 3 || v[1] != 4 {
		t.Error("AddScaled wrong")
	}
	Scale(v, 0.5)
	if v[0] != 1.5 || v[1] != 2 {
		t.Error("Scale wrong")
	}
}

// solveLU factors a with SparseLU and solves A x = b.
func solveLU(a *Matrix, b []float64) ([]float64, error) {
	var f SparseLU
	if err := f.Factor(cscOf(a)); err != nil {
		return nil, err
	}
	return solveDense(&f, b, false), nil
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := solveLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := solveLU(a, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLURandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the matrix well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := solveLU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("n=%d x=%v want=%v", n, x, xTrue)
			}
		}
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero pivot in the (0,0) position forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := solveLU(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 0},
		{2, 5, 3},
		{0, 3, 6},
	})
	ch, err := FactorCholesky(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 7, 9}
	x := ch.Solve(b)
	got := a.MulVec(x)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-9) {
			t.Fatalf("A·x = %v, want %v", got, b)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if _, err := FactorCholesky(a, 0); err != ErrNotSPD {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		g := NewMatrix(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		a := g.T().Mul(g) // Gram matrix: SPD up to rank deficiency
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+0.5) // ensure strict positive definiteness
		}
		ch, err := FactorCholesky(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x := ch.Solve(b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-7) {
				t.Fatalf("n=%d x=%v want=%v", n, x, xTrue)
			}
		}
	}
}

func TestCholeskyRegularization(t *testing.T) {
	// Singular Gram matrix becomes factorable with regularization.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := FactorCholesky(a, 0); err == nil {
		t.Fatal("expected failure without regularization")
	}
	if _, err := FactorCholesky(a, 1e-8); err != nil {
		t.Fatalf("regularized factorization failed: %v", err)
	}
}

func TestShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, f := range []func(){
		func() { m.MulVec([]float64{1}) },
		func() { m.MulVecT([]float64{1}) },
		func() { m.Mul(NewMatrix(2, 2)) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { new(SparseLU).Factor(&CSC{Rows: 2, Cols: 3, ColPtr: make([]int, 4)}) },
		func() { FactorCholesky(m, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLUSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var f SparseLU
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+4) // keep well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := f.Factor(cscOf(a)); err != nil {
			t.Fatal(err)
		}
		x := solveDense(&f, b, true)
		// Check Aᵀ x = b, i.e. xᵀ A = bᵀ.
		got := a.T().MulVec(x)
		for i := range b {
			if !almostEq(got[i], b[i], 1e-9*(1+math.Abs(b[i]))) {
				t.Fatalf("trial %d: (Aᵀx)[%d] = %g, want %g", trial, i, got[i], b[i])
			}
		}
	}
}

// TestFactorLUIntoReuse refactors one SparseLU over matrices of different
// sizes: every result must equal a fresh factorization's bit for bit.
func TestFactorLUIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	mk := func(n int) *Matrix {
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+4)
		}
		return a
	}
	var reused SparseLU
	for _, n := range []int{8, 8, 13, 1, 5} {
		a := mk(n)
		if err := reused.Factor(cscOf(a)); err != nil {
			t.Fatal(err)
		}
		var fresh SparseLU
		if err := fresh.Factor(cscOf(a)); err != nil {
			t.Fatal(err)
		}
		if reused.NNZ() != fresh.NNZ() {
			t.Fatalf("n=%d: nnz %d reused vs %d fresh", n, reused.NNZ(), fresh.NNZ())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, x2 := solveDense(&reused, b, false), solveDense(&fresh, b, false)
		if i := firstDiff(x1, x2); i >= 0 {
			t.Fatalf("n=%d: reused factor diverges at %d: %g vs %g", n, i, x1[i], x2[i])
		}
	}
}

// TestFactorLUIntoSingular checks that a singular matrix factored into
// reused storage reports ErrSingular and leaves the storage fit for the
// next factorization.
func TestFactorLUIntoSingular(t *testing.T) {
	var f SparseLU
	if err := f.Factor(cscOf(FromRows([][]float64{{1, 2, 0}, {2, 4, 0}, {0, 0, 1}}))); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	if err := f.Factor(cscOf(a)); err != nil {
		t.Fatal(err)
	}
	x := solveDense(&f, []float64{3, 7}, false)
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("x = %v after a singular factorization", x)
	}
}

func TestLUZeroDim(t *testing.T) {
	var f SparseLU
	if err := f.Factor(cscOf(NewMatrix(0, 0))); err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != 0 {
		t.Fatalf("0-dim factor has %d nonzeros", f.NNZ())
	}
	if idx, applied := f.SolveInto(nil, nil, nil, nil); len(idx) != 0 || applied != 0 {
		t.Fatalf("0-dim SolveInto listed %v, applied %d", idx, applied)
	}
	if idx, applied := f.SolveTransposeInto(nil, nil, nil, nil); len(idx) != 0 || applied != 0 {
		t.Fatalf("0-dim SolveTransposeInto listed %v, applied %d", idx, applied)
	}
}
