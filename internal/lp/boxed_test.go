package lp

import (
	"math"
	"math/rand"
	"testing"
)

// The boxed revised engine is the one engine with native variable bounds.
var _ VarBounder = (*Revised)(nil)

// lowerRanged states lo ≤ Σ terms ≤ hi on a cold Problem using the
// two-row lowering (what engines without native ranged rows do).
func lowerRanged(p *Problem, terms []Term, lo, hi float64) {
	if !math.IsInf(hi, 1) {
		p.AddConstraint(terms, LE, hi, "")
	}
	if !math.IsInf(lo, -1) {
		p.AddConstraint(terms, GE, lo, "")
	}
}

// TestRangedCrossSolverAgreement checks that ranged rows solved natively
// by the boxed revised engine agree with the cold two-phase simplex and
// the interior-point method on the two-row lowering of EBF-shaped
// problems — including exact (l = u) and tight windows. The
// agreement tolerance mirrors the EBF acceptance bar: 1e-6 relative to
// the problem scale.
func TestRangedCrossSolverAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(7)
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = 0.5 + rng.Float64()*4
		}
		rv := NewRevised(n, costs)
		p := NewProblem(n)
		for j, c := range costs {
			p.SetCost(j, c)
		}
		rows := 2 + rng.Intn(5)
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
			var lo, hi float64
			switch rng.Intn(4) {
			case 0: // exact window l = u
				lo = 1 + rng.Float64()*5
				hi = lo
			case 1: // tight window
				lo = 1 + rng.Float64()*5
				hi = lo + 1e-3 + rng.Float64()*0.05
			case 2: // one-sided ≥
				lo = rng.Float64() * 4
				hi = math.Inf(1)
			default: // generous two-sided window
				lo = rng.Float64() * 3
				hi = lo + 1 + rng.Float64()*4
			}
			rv.AddRangedRow(terms, lo, hi)
			lowerRanged(p, terms, lo, hi)
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
			t.Fatalf("trial %d: revised %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
			t.Fatalf("trial %d: revised %.9g vs cold %.9g", trial, warm.Objective, cold.Objective)
		}
		if v, i := p.MaxViolation(warm.X); v > 1e-6*scale {
			t.Fatalf("trial %d: revised violates lowered row %d by %g", trial, i, v)
		}
		// The interior-point method has no infeasibility certificate, so it
		// is only consulted on optimal instances; its bar is looser because
		// it converges to the optimal face, not a vertex.
		ipm, err := (&IPM{}).Solve(p)
		if err == nil && ipm.Status == Optimal {
			if math.Abs(ipm.Objective-cold.Objective) > 1e-5*scale {
				t.Fatalf("trial %d: IPM %.9g vs cold %.9g", trial, ipm.Objective, cold.Objective)
			}
		}
	}
}

// TestBoundFlipPivots constructs a problem where the dual ratio test must
// flip a boxed variable bound-to-bound before pivoting: x0 is boxed to
// [0, 0.5] with the best dual ratio but not enough capacity to absorb the
// row's infeasibility, so it flips to its upper bound and x1 enters.
func TestBoundFlipPivots(t *testing.T) {
	rv := NewRevised(2, []float64{1, 2})
	rv.SetVarBounds(0, 0, 0.5)
	rv.AddRangedRow([]Term{{0, 1}, {1, 1}}, 5, 6)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimum: x0 at its upper bound 0.5, x1 = 4.5 → objective 9.5.
	if math.Abs(sol.Objective-9.5) > 1e-8 {
		t.Fatalf("objective %.9g, want 9.5 (x %v)", sol.Objective, sol.X)
	}
	if math.Abs(sol.X[0]-0.5) > 1e-8 || math.Abs(sol.X[1]-4.5) > 1e-8 {
		t.Fatalf("x = %v, want [0.5 4.5]", sol.X)
	}
	st := rv.Stats()
	if st.BoundFlips == 0 {
		t.Fatal("Stats().BoundFlips = 0, want at least one bound-to-bound flip")
	}
	// Cross-check against the cold simplex with the box stated as a row.
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	p.AddConstraint([]Term{{0, 1}}, LE, 0.5, "box")
	lowerRanged(p, []Term{{0, 1}, {1, 1}}, 5, 6)
	cold, err := (&Simplex{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || math.Abs(cold.Objective-sol.Objective) > 1e-7 {
		t.Fatalf("cold %v %.9g vs boxed %.9g", cold.Status, cold.Objective, sol.Objective)
	}
}

// TestVarBounderFixedVariable checks that fixing a variable with
// SetVarBounds(j, v, v) is equivalent to stating x_j = v as an EQ row —
// the substitution the EBF row generation uses for forced-zero edges.
func TestVarBounderFixedVariable(t *testing.T) {
	rv := NewRevised(3, []float64{1, 1, 1})
	rv.SetVarBounds(1, 0, 0) // forced-zero edge
	rv.AddRangedRow([]Term{{0, 1}, {1, 1}, {2, 1}}, 4, 4)
	rv.AddRow([]Term{{0, 1}}, LE, 1)
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetCost(j, 1)
	}
	p.AddConstraint([]Term{{1, 1}}, EQ, 0, "")
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, EQ, 4, "")
	p.AddConstraint([]Term{{0, 1}}, LE, 1, "")
	cold, err := (&Simplex{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("status revised %v cold %v", sol.Status, cold.Status)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-7 {
		t.Fatalf("revised %.9g vs cold %.9g", sol.Objective, cold.Objective)
	}
	if math.Abs(sol.X[1]) > 1e-9 {
		t.Fatalf("fixed variable x1 = %g, want 0", sol.X[1])
	}
	// A non-zero fixed value works the same way.
	rv2 := NewRevised(2, []float64{1, 3})
	rv2.SetVarBounds(0, 2, 2)
	rv2.AddRangedRow([]Term{{0, 1}, {1, 1}}, 5, 7)
	s2, err := rv2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Status != Optimal || math.Abs(s2.X[0]-2) > 1e-8 || math.Abs(s2.Objective-11) > 1e-7 {
		t.Fatalf("fixed-at-2: %v x %v obj %.9g, want x0=2 obj 11", s2.Status, s2.X, s2.Objective)
	}
}

// TestRestageVarBoundsContract pins the restaging contract that replaced
// the old frozen-after-Solve panic: an empty box still panics at any
// time, tightening a box until the LP is infeasible returns Infeasible
// from the next Solve (no panic), loosening it again clears the sticky
// certificate, and a repeated restage+Solve sequence is deterministic.
func TestRestageVarBoundsContract(t *testing.T) {
	build := func() *Revised {
		rv := NewRevised(2, []float64{1, 2})
		rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 4)
		rv.AddRow([]Term{{0, 1}}, LE, 3)
		return rv
	}
	rv := build()
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("seed solve: %v %v", sol, err)
	}
	// Objective min x0+2x1 st x0+x1 ≥ 4, x0 ≤ 3 → x0=3, x1=1 → 5.
	if math.Abs(sol.Objective-5) > 1e-8 {
		t.Fatalf("seed objective %.9g, want 5", sol.Objective)
	}

	// An empty box panics exactly as before — restaging did not loosen that.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetVarBounds with empty box after Solve: no panic")
			}
		}()
		rv.SetVarBounds(0, 2, 1)
	}()

	// Restage: box x0 into [0, 1]. New optimum x0=1, x1=3 → 7.
	rv.SetVarBounds(0, 0, 1)
	sol, err = rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("restaged solve: %v %v", sol, err)
	}
	if math.Abs(sol.Objective-7) > 1e-8 {
		t.Fatalf("restaged objective %.9g, want 7 (x %v)", sol.Objective, sol.X)
	}
	if st := rv.Stats(); st.Restages == 0 {
		t.Fatal("Stats().Restages = 0 after a between-Solve SetVarBounds")
	}

	// Tighten to infeasible: x1 fixed at 0 makes x0+x1 ≥ 4 unreachable
	// under x0 ≤ 1. Must certify Infeasible, not panic.
	rv.SetVarBounds(1, 0, 0)
	sol, err = rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("tighten-to-infeasible: status %v, want Infeasible", sol.Status)
	}
	// Solve is sticky while nothing changes...
	sol, _ = rv.Solve()
	if sol.Status != Infeasible {
		t.Fatalf("repeat solve: status %v, want sticky Infeasible", sol.Status)
	}
	// ...but a restage clears the certificate and feasibility returns.
	rv.SetVarBounds(1, 0, 10)
	sol, err = rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("post-relax solve: %v %v", sol, err)
	}
	if math.Abs(sol.Objective-7) > 1e-8 {
		t.Fatalf("post-relax objective %.9g, want 7", sol.Objective)
	}

	// Determinism: the same restage+Solve script on two fresh engines lands
	// on identical objectives, pivot counts and restage counters.
	script := func(rv *Revised) (objs []float64) {
		rv.Solve()
		for _, b := range [][2]float64{{0, 1}, {0, 2.5}, {1, 1}, {0, 3}} {
			rv.SetVarBounds(0, b[0], b[1])
			s, err := rv.Solve()
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, s.Objective)
		}
		return objs
	}
	a, b := build(), build()
	oa, ob := script(a), script(b)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("step %d: objective %.12g vs %.12g (nondeterministic restage)", i, oa[i], ob[i])
		}
	}
	if a.Iterations() != b.Iterations() || a.Stats().Restages != b.Stats().Restages {
		t.Fatalf("pivots %d/%d restages %d/%d differ across identical scripts",
			a.Iterations(), b.Iterations(), a.Stats().Restages, b.Stats().Restages)
	}
}

// TestReplaceRangedRowRhsFastPath pins the ECO retighten fast path: a
// ReplaceRangedRow with identical terms and a shifted window must not
// count as a row replacement (the coefficient pattern — and therefore the
// factorization — is untouched), must count as a restage, and the warm
// re-solve must reach the cold optimum in at most a couple of pivots.
func TestReplaceRangedRowRhsFastPath(t *testing.T) {
	terms := [][]Term{
		{{0, 1}, {1, 1}},
		{{1, 1}, {2, 1}},
		{{0, 1}, {2, 1}},
	}
	costs := []float64{1, 2, 1.5}
	rv := NewRevised(3, costs)
	for _, tm := range terms {
		rv.AddRangedRow(tm, 2, 5)
	}
	if sol, err := rv.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("seed solve: %v %v", sol, err)
	}
	before := rv.Stats()
	// Retighten row 1's window with the same coefficient pattern.
	rv.ReplaceRangedRow(1, terms[1], 3, 4.5)
	after := rv.Stats()
	if after.RowReplacements != before.RowReplacements {
		t.Fatalf("rhs-only replace counted as RowReplacement (%d → %d)",
			before.RowReplacements, after.RowReplacements)
	}
	if after.Restages != before.Restages+1 {
		t.Fatalf("Restages %d → %d, want +1", before.Restages, after.Restages)
	}
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("warm re-solve: %v %v", sol, err)
	}
	if warmPivots := rv.Iterations() - before.LPIterations; warmPivots > 3 {
		t.Fatalf("warm re-solve took %d pivots, want ≤ 3 (fast path missed)", warmPivots)
	}
	// Cold oracle on the edited problem.
	p := NewProblem(3)
	for j, c := range costs {
		p.SetCost(j, c)
	}
	lowerRanged(p, terms[0], 2, 5)
	lowerRanged(p, terms[1], 3, 4.5)
	lowerRanged(p, terms[2], 2, 5)
	cold, err := (&Simplex{}).Solve(p)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold solve: %v %v", cold, err)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-7*(1+math.Abs(cold.Objective)) {
		t.Fatalf("warm %.9g vs cold %.9g", sol.Objective, cold.Objective)
	}
}

// TestDeleteRowAndRevive checks DeleteRow semantics: deleting a binding
// row relaxes the optimum, row indices of the surviving rows stay stable,
// double delete panics, and ReplaceRangedRow revives a deleted row.
func TestDeleteRowAndRevive(t *testing.T) {
	rv := NewRevised(2, []float64{1, 1})
	rv.AddRow([]Term{{0, 1}}, GE, 1)         // row 0
	rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 5) // row 1 (binding)
	sol, err := rv.Solve()
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-8 {
		t.Fatalf("seed solve: %v %v", sol, err)
	}
	rv.DeleteRow(1)
	if got := rv.NumRows(); got != 1 {
		t.Fatalf("NumRows after delete = %d, want 1", got)
	}
	sol, err = rv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("post-delete solve: %v %v", sol, err)
	}
	if math.Abs(sol.Objective-1) > 1e-8 {
		t.Fatalf("post-delete objective %.9g, want 1 (only x0 ≥ 1 left)", sol.Objective)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double DeleteRow: no panic")
			}
		}()
		rv.DeleteRow(1)
	}()
	// Revive row 1 with a new window.
	rv.ReplaceRangedRow(1, []Term{{0, 1}, {1, 1}}, 3, 6)
	if got := rv.NumRows(); got != 2 {
		t.Fatalf("NumRows after revive = %d, want 2", got)
	}
	sol, err = rv.Solve()
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("post-revive solve: %v %v (want objective 3)", sol, err)
	}
	if st := rv.Stats(); st.RowReplacements < 2 {
		t.Fatalf("RowReplacements = %d, want ≥ 2 (delete + revive)", st.RowReplacements)
	}
}

// TestRestageRandomizedVsCold drives one warm engine through a random
// script of bound edits, window replacements, cost changes and row
// deletions, checking every warm re-solve against a cold simplex on the
// rebuilt lowered problem. This is the lp-layer half of the
// restaging-vs-oracles bar (internal/core extends it to the EBF LPs).
func TestRestageRandomizedVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	type shadowRow struct {
		terms  []Term
		lo, hi float64
		dead   bool
	}
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = 0.5 + rng.Float64()*3
		}
		boxes := make([][2]float64, n)
		for j := range boxes {
			boxes[j] = [2]float64{0, math.Inf(1)}
		}
		rv := NewRevised(n, append([]float64(nil), costs...))
		var rowsSh []shadowRow
		nRows := 2 + rng.Intn(4)
		for r := 0; r < nRows; r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, 1 + rng.Float64()})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{rng.Intn(n), 1}}
			}
			lo := 1 + rng.Float64()*3
			hi := lo + rng.Float64()*3
			rv.AddRangedRow(terms, lo, hi)
			rowsSh = append(rowsSh, shadowRow{terms, lo, hi, false})
		}
		cold := func() *Solution {
			p := NewProblem(n)
			for j, c := range costs {
				p.SetCost(j, c)
			}
			for _, r := range rowsSh {
				if !r.dead {
					lowerRanged(p, r.terms, r.lo, r.hi)
				}
			}
			for j, b := range boxes {
				if b[0] > 0 {
					p.AddConstraint([]Term{{j, 1}}, GE, b[0], "")
				}
				if !math.IsInf(b[1], 1) {
					p.AddConstraint([]Term{{j, 1}}, LE, b[1], "")
				}
			}
			s, err := (&Simplex{}).Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		check := func(step int) {
			warm, err := rv.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want := cold()
			if warm.Status != want.Status {
				t.Fatalf("trial %d step %d: warm %v cold %v", trial, step, warm.Status, want.Status)
			}
			if warm.Status != Optimal {
				return
			}
			if d := math.Abs(warm.Objective - want.Objective); d > 1e-6*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d step %d: warm %.9g cold %.9g", trial, step, warm.Objective, want.Objective)
			}
		}
		check(-1)
		edits := 6 + rng.Intn(6)
		for e := 0; e < edits; e++ {
			switch rng.Intn(5) {
			case 0: // restage a variable box
				j := rng.Intn(n)
				lo := rng.Float64() * 2
				hi := lo + rng.Float64()*3
				if rng.Intn(4) == 0 {
					hi = lo // fix it
				}
				boxes[j] = [2]float64{lo, hi}
				rv.SetVarBounds(j, lo, hi)
			case 1: // replace a row with fresh terms and window
				k := rng.Intn(len(rowsSh))
				var terms []Term
				for j := 0; j < n; j++ {
					if rng.Intn(2) == 0 {
						terms = append(terms, Term{j, 1 + rng.Float64()})
					}
				}
				if len(terms) == 0 {
					terms = []Term{{rng.Intn(n), 1}}
				}
				lo := 1 + rng.Float64()*3
				hi := lo + rng.Float64()*3
				rowsSh[k] = shadowRow{terms, lo, hi, false}
				rv.ReplaceRangedRow(k, terms, lo, hi)
			case 2: // rhs-only retighten (same terms, shifted window)
				k := rng.Intn(len(rowsSh))
				if rowsSh[k].dead {
					continue
				}
				lo := rowsSh[k].lo + (rng.Float64() - 0.5)
				hi := lo + math.Max(rowsSh[k].hi-rowsSh[k].lo+(rng.Float64()-0.5), 0)
				if lo < 0 {
					lo = 0
				}
				rowsSh[k].lo, rowsSh[k].hi = lo, hi
				rv.ReplaceRangedRow(k, rowsSh[k].terms, lo, hi)
			case 3: // reweight the objective
				j := rng.Intn(n)
				costs[j] = 0.1 + rng.Float64()*4
				rv.SetCost(j, costs[j])
			case 4: // delete a live row (keep at least one)
				live := 0
				for _, r := range rowsSh {
					if !r.dead {
						live++
					}
				}
				if live <= 1 {
					continue
				}
				k := rng.Intn(len(rowsSh))
				if rowsSh[k].dead {
					continue
				}
				rowsSh[k].dead = true
				rv.DeleteRow(k)
			}
			check(e)
		}
	}
}

// TestRangedRowHalvingRegression pins the row-count saving that motivates
// the boxed engine: N two-sided delay windows occupy N tableau rows in the
// revised engine and 2N in the two-row lowering, which is what the
// engine reports as its lowered count.
func TestRangedRowHalvingRegression(t *testing.T) {
	const nRows = 8
	rv := NewRevised(4, []float64{1, 1, 1, 1})
	p := NewProblem(4)
	for j := 0; j < 4; j++ {
		p.SetCost(j, 1)
	}
	for r := 0; r < nRows; r++ {
		terms := []Term{{r % 4, 1}, {(r + 1) % 4, 1}}
		lo := 1 + float64(r)
		hi := lo + 0.5
		rv.AddRangedRow(terms, lo, hi)
		lowerRanged(p, terms, lo, hi)
	}
	if rv.NumRows() != nRows {
		t.Fatalf("NumRows = %d, want %d", rv.NumRows(), nRows)
	}
	if got := rv.TableauRows(); got != nRows {
		t.Fatalf("revised TableauRows = %d, want %d (one boxed row per window)", got, nRows)
	}
	if got := len(p.Cons); got != 2*nRows {
		t.Fatalf("lowered problem has %d rows, want %d (two rows per window)", got, 2*nRows)
	}
	st := rv.Stats()
	if st.LoweredTableauRows != 2*nRows {
		t.Fatalf("LoweredTableauRows = %d, want %d", st.LoweredTableauRows, 2*nRows)
	}
	if st.RangedRows != nRows {
		t.Fatalf("RangedRows = %d, want %d", st.RangedRows, nRows)
	}
	// And the lowering solves to the same optimum.
	a, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Simplex{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status {
		t.Fatalf("status revised %v cold %v", a.Status, b.Status)
	}
	if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-7 {
		t.Fatalf("revised %.9g vs cold %.9g", a.Objective, b.Objective)
	}
}

// TestRangedWarmSequence interleaves ranged rows, one-sided rows and
// re-solves, checking the warm path against a cold solve of the lowered
// problem at every step.
func TestRangedWarmSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = 0.5 + rng.Float64()*2
		}
		rv := NewRevised(n, costs)
		p := NewProblem(n)
		for j, c := range costs {
			p.SetCost(j, c)
		}
		steps := 4 + rng.Intn(5)
		for s := 0; s < steps; s++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, 1})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{rng.Intn(n), 1}}
			}
			if rng.Intn(2) == 0 {
				lo := rng.Float64() * 4
				hi := lo + rng.Float64()*3
				rv.AddRangedRow(terms, lo, hi)
				lowerRanged(p, terms, lo, hi)
			} else {
				rhs := rng.Float64() * 4
				rv.AddRow(terms, GE, rhs)
				p.AddConstraint(terms, GE, rhs, "")
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
				t.Fatalf("trial %d step %d: warm %v cold %v", trial, s, warm.Status, cold.Status)
			}
			if warm.Status == Infeasible {
				break
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d step %d: warm %.9g cold %.9g", trial, s, warm.Objective, cold.Objective)
			}
		}
	}
}
