package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestRevisedBasic(t *testing.T) {
	// min x+y s.t. x+y ≥ 3, x ≥ 1.
	rv := NewRevised(2, []float64{1, 1})
	rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 3)
	rv.AddRow([]Term{{0, 1}}, GE, 1)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("status %v obj %g", sol.Status, sol.Objective)
	}
}

func TestRevisedRowByRow(t *testing.T) {
	rv := NewRevised(2, []float64{1, 2})
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	steps := []struct {
		terms []Term
		op    Op
		rhs   float64
	}{
		{[]Term{{0, 1}, {1, 1}}, GE, 4},
		{[]Term{{0, 1}}, LE, 3},
		{[]Term{{1, 1}}, GE, 0.5},
		{[]Term{{0, 1}, {1, -1}}, LE, 2},
	}
	for i, s := range steps {
		rv.AddRow(s.terms, s.op, s.rhs)
		p.AddConstraint(s.terms, s.op, s.rhs, "")
		warm, err := rv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := (&Simplex{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("step %d: warm %v vs cold %v", i, warm.Status, cold.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-7 {
			t.Fatalf("step %d: warm %g vs cold %g", i, warm.Objective, cold.Objective)
		}
	}
}

func TestRevisedEquality(t *testing.T) {
	// min 2x+3y s.t. x+y = 4 → x=4, obj 8.
	rv := NewRevised(2, []float64{2, 3})
	rv.AddRow([]Term{{0, 1}, {1, 1}}, EQ, 4)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-8) > 1e-8 {
		t.Fatalf("status %v obj %g x %v", sol.Status, sol.Objective, sol.X)
	}
}

func TestRevisedInfeasibleSticky(t *testing.T) {
	rv := NewRevised(1, []float64{1})
	rv.AddRow([]Term{{0, 1}}, GE, 5)
	rv.AddRow([]Term{{0, 1}}, LE, 3)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// Rows are only ever added, so infeasibility is monotone and sticky.
	rv.AddRow([]Term{{0, 1}}, GE, 0)
	if sol, _ := rv.Solve(); sol.Status != Infeasible {
		t.Fatal("infeasibility not sticky")
	}
}

func TestRevisedEmpty(t *testing.T) {
	rv := NewRevised(3, []float64{1, 1, 1})
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("empty solve: %v %g", sol.Status, sol.Objective)
	}
}

func TestRevisedPanicsOnNegativeCost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewRevised(1, []float64{-1})
}

func TestRevisedPanicsOnBadVar(t *testing.T) {
	rv := NewRevised(1, []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rv.AddRow([]Term{{3, 1}}, GE, 1)
}

// TestRowCountsRegression pins the NumRows/TableauRows contract: NumRows
// counts logical rows (EQ once), while TableauRows is engine-internal —
// the boxed revised engine stores an EQ row once (fixed slack).
// Stats().LoweredTableauRows reports the count a ≤/≥ split would need,
// so the pair (TableauRows, LoweredTableauRows) exposes the saving.
func TestRowCountsRegression(t *testing.T) {
	rv := NewRevised(2, []float64{1, 1})
	rv.AddRow([]Term{{0, 1}}, GE, 1)
	rv.AddRow([]Term{{1, 1}}, LE, 5)
	rv.AddRow([]Term{{0, 1}, {1, 1}}, EQ, 3)
	if got := rv.NumRows(); got != 3 {
		t.Errorf("NumRows = %d, want 3 logical", got)
	}
	if got := rv.TableauRows(); got != 3 {
		t.Errorf("TableauRows = %d, want 3", got)
	}
	st := rv.Stats()
	if st.LogicalRows != 3 || st.TableauRows != 3 {
		t.Errorf("Stats rows %d/%d, want 3/3", st.LogicalRows, st.TableauRows)
	}
	if st.LoweredTableauRows != 4 {
		t.Errorf("LoweredTableauRows = %d, want 4 (EQ lowers to two rows)", st.LoweredTableauRows)
	}
	if st.RangedRows != 1 {
		t.Errorf("RangedRows = %d, want 1 (the EQ row)", st.RangedRows)
	}
}

// Randomized cross-check of the revised dual simplex against the cold
// simplex on EBF-shaped problems.
func TestRevisedMatchesColdSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = rng.Float64() * 5
		}
		rv := NewRevised(n, costs)
		p := NewProblem(n)
		for j, c := range costs {
			p.SetCost(j, c)
		}
		rounds := 1 + rng.Intn(4)
		for round := 0; round < rounds; round++ {
			rows := 1 + rng.Intn(4)
			for r := 0; r < rows; r++ {
				var terms []Term
				for j := 0; j < n; j++ {
					if rng.Intn(2) == 0 {
						terms = append(terms, Term{j, 1})
					}
				}
				if len(terms) == 0 {
					terms = []Term{{rng.Intn(n), 1}}
				}
				rhs := rng.Float64() * 10
				var op Op
				switch rng.Intn(4) {
				case 0:
					op = LE
					rhs += 5
				case 1, 2:
					op = GE
				default:
					op = EQ
				}
				rv.AddRow(terms, op, rhs)
				p.AddConstraint(terms, op, rhs, "")
			}
			warm, err := rv.Solve()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := (&Simplex{}).Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d round %d: revised %v cold %v", trial, round, warm.Status, cold.Status)
			}
			if warm.Status == Infeasible {
				break
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d round %d: revised %.9g cold %.9g", trial, round, warm.Objective, cold.Objective)
			}
			if v, i := p.MaxViolation(warm.X); v > 1e-6 {
				t.Fatalf("trial %d round %d: violation %g at row %d", trial, round, v, i)
			}
		}
	}
}

// General (non-unit) coefficients, including negatives in the rows.
func TestRevisedGeneralCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = rng.Float64() * 3
		}
		rv := NewRevised(n, costs)
		p := NewProblem(n)
		for j, c := range costs {
			p.SetCost(j, c)
		}
		rows := 2 + rng.Intn(6)
		for r := 0; r < rows; r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, rng.NormFloat64()})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{rng.Intn(n), 1}}
			}
			rhs := rng.NormFloat64() * 4
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rv.AddRow(terms, op, rhs)
			p.AddConstraint(terms, op, rhs, "")
		}
		warm, err := rv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := (&Simplex{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: revised %v cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: revised %.9g cold %.9g", trial, warm.Objective, cold.Objective)
		}
		if v, i := p.MaxViolation(warm.X); v > 1e-6 {
			t.Fatalf("trial %d: violation %g at row %d", trial, v, i)
		}
	}
}

// Duplicate variables inside one row must coalesce.
func TestRevisedCoalescesDuplicateTerms(t *testing.T) {
	rv := NewRevised(2, []float64{1, 1})
	// x + x + y ≥ 4 ⇒ 2x + y ≥ 4; optimum x=2 (cost 2) beats y=4 (cost 4).
	rv.AddRow([]Term{{0, 1}, {0, 1}, {1, 1}}, GE, 4)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-8 {
		t.Fatalf("status %v obj %g x %v", sol.Status, sol.Objective, sol.X)
	}
}

func TestRevisedSolveIdempotent(t *testing.T) {
	rv := NewRevised(2, []float64{1, 3})
	rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 5)
	a, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Status != b.Status {
		t.Fatal("re-solving without new rows changed the answer")
	}
}

// l = u exact-equality delay windows are the degenerate case the EBF loop
// produces for zero-skew instances: many EQ rows over overlapping paths.
func TestRevisedExactEqualityWindows(t *testing.T) {
	// Path-shaped: e1, e1+e2, e1+e2+e3 pinned exactly.
	rv := NewRevised(3, []float64{1, 1, 1})
	rv.AddRow([]Term{{0, 1}}, EQ, 2)
	rv.AddRow([]Term{{0, 1}, {1, 1}}, EQ, 5)
	rv.AddRow([]Term{{0, 1}, {1, 1}, {2, 1}}, EQ, 7)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-7) > 1e-8 {
		t.Fatalf("status %v obj %g x %v", sol.Status, sol.Objective, sol.X)
	}
	want := []float64{2, 3, 2}
	for j, w := range want {
		if math.Abs(sol.X[j]-w) > 1e-8 {
			t.Fatalf("x = %v, want %v", sol.X, want)
		}
	}
	// Tightening one window into contradiction flips to infeasible.
	rv.AddRow([]Term{{2, 1}}, EQ, 1)
	if sol, _ := rv.Solve(); sol.Status != Infeasible {
		t.Fatalf("contradictory window: %v, want infeasible", sol.Status)
	}
}

// Many warm rounds on one engine stress the eta file and the
// refactorization each optimum ends with. Each round's solve takes a few
// pivots, far fewer than refEach, so the periodic refactorization inside
// a Solve is crossed by TestSparsePivotStateEBF instead.
func TestRevisedLongWarmSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	costs := make([]float64, n)
	for j := range costs {
		costs[j] = 0.5 + rng.Float64()
	}
	rv := NewRevised(n, costs)
	p := NewProblem(n)
	for j, c := range costs {
		p.SetCost(j, c)
	}
	for round := 0; round < 60; round++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{j, 1})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{rng.Intn(n), 1}}
		}
		rhs := rng.Float64() * 3
		rv.AddRow(terms, GE, rhs)
		p.AddConstraint(terms, GE, rhs, "")
		warm, err := rv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal {
			t.Fatalf("round %d: %v", round, warm.Status)
		}
		cold, err := (&Simplex{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("round %d: warm %.9g cold %.9g", round, warm.Objective, cold.Objective)
		}
	}
	st := rv.Stats()
	if st.LPIterations == 0 || st.LogicalRows != 60 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestRevisedStatsPopulated(t *testing.T) {
	rv := NewRevised(3, []float64{1, 2, 3})
	rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 4)
	rv.AddRow([]Term{{1, 1}, {2, 1}}, GE, 2)
	rv.AddRow([]Term{{0, 1}, {2, 1}}, EQ, 3)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	st := rv.Stats()
	if st.LPIterations == 0 {
		t.Error("LPIterations = 0 after a non-trivial solve")
	}
	if st.LogicalRows != 3 || st.TableauRows != 3 {
		t.Errorf("rows %d/%d, want 3/3 (EQ is one boxed row)", st.LogicalRows, st.TableauRows)
	}
	if st.LoweredTableauRows != 4 {
		t.Errorf("LoweredTableauRows = %d, want 4", st.LoweredTableauRows)
	}
	if st.RowNonzeros != 6 {
		t.Errorf("RowNonzeros = %d, want 6", st.RowNonzeros)
	}
	if st.Refactorizations == 0 {
		t.Error("Refactorizations = 0; first solve always factors")
	}
}

func TestStatsMergeAndString(t *testing.T) {
	a := Stats{LPIterations: 3, Rounds: 1, ViolatedByRound: []int{5}}
	b := Stats{LPIterations: 4, Refactorizations: 2, BasisSize: 7, FillIn: 3,
		LogicalRows: 10, TableauRows: 12, RowNonzeros: 40, Rounds: 2,
		ViolatedByRound: []int{2, 0}}
	a.Merge(b)
	if a.LPIterations != 7 || a.Rounds != 3 || a.BasisSize != 7 || a.TableauRows != 12 {
		t.Fatalf("merge wrong: %+v", a)
	}
	if len(a.ViolatedByRound) != 3 {
		t.Fatalf("ViolatedByRound = %v", a.ViolatedByRound)
	}
	if s := a.String(); s == "" {
		t.Fatal("empty String()")
	}
}
