package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestParsePricing(t *testing.T) {
	cases := map[string]Pricing{
		"":               PricingDevex,
		"devex":          PricingDevex,
		"mostviolated":   PricingMostViolated,
		"most-violated":  PricingMostViolated,
		"mv":             PricingMostViolated,
		"steepest":       PricingSteepestExact,
		"steepest-exact": PricingSteepestExact,
		"steepestexact":  PricingSteepestExact,
		"se":             PricingSteepestExact,
	}
	for s, want := range cases {
		got, err := ParsePricing(s)
		if err != nil || got != want {
			t.Errorf("ParsePricing(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePricing("dantzig"); err == nil {
		t.Error("ParsePricing accepted an unknown scheme")
	}
	if PricingDevex.String() != "devex" || PricingMostViolated.String() != "most-violated" ||
		PricingSteepestExact.String() != "steepest-exact" {
		t.Error("Pricing.String drifted from the stable tokens")
	}
	if Pricing(99).String() != "unknown" {
		t.Error("out-of-range Pricing must stringify as unknown")
	}
}

func TestSetPricingAfterSolvePanics(t *testing.T) {
	rv := NewRevised(1, []float64{1})
	rv.AddRow([]Term{{0, 1}}, GE, 1)
	if _, err := rv.Solve(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPricing after Solve did not panic")
		}
	}()
	rv.SetPricing(PricingMostViolated)
}

// TestPivotBudget pins the Solve pivot cap to 20000 + 200·(m + nVars):
// the regression for the budget that used to double-count the row count
// (20000 + 200·(m + nVars + m)).
func TestPivotBudget(t *testing.T) {
	rv := NewRevised(7, nil)
	for i := 0; i < 5; i++ {
		rv.AddRow([]Term{{i % 7, 1}}, GE, 1)
	}
	m := rv.rows.numRows()
	if m != 5 {
		t.Fatalf("m = %d, want 5", m)
	}
	if got, want := rv.pivotBudget(m), 20000+200*(5+7); got != want {
		t.Errorf("pivotBudget(%d) = %d, want %d (m must not be double-counted)", m, got, want)
	}
	rv.maxIterOverride = 3
	if got := rv.pivotBudget(m); got != 3 {
		t.Errorf("maxIterOverride ignored: pivotBudget = %d, want 3", got)
	}
}

// TestRevisedIterLimit exercises the pivot cap: with the budget pinned
// to one pivot, a problem needing several must return IterLimit rather
// than loop or mis-report Optimal.
func TestRevisedIterLimit(t *testing.T) {
	rv := NewRevised(3, []float64{1, 1, 1})
	rv.AddRow([]Term{{0, 1}, {1, 1}}, GE, 2)
	rv.AddRow([]Term{{1, 1}, {2, 1}}, GE, 2)
	rv.AddRow([]Term{{0, 1}, {2, 1}}, GE, 2)
	rv.maxIterOverride = 1
	sol, err := rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status %v, want IterLimit under a one-pivot budget", sol.Status)
	}
	// Lifting the cap must let the same engine finish the solve.
	rv.maxIterOverride = 0
	sol, err = rv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("after lifting the cap: status %v obj %g, want Optimal 3", sol.Status, sol.Objective)
	}
}

// buildTieHeavy states a tie-heavy boxed instance on an engine and the
// matching cold Problem: blocks of structurally identical ranged
// delay-window rows whose violations are exactly equal at the all-slack
// start — the degenerate-tie pattern ROADMAP flags for r4/r5. Every
// pricing scheme must break the ties without cycling.
func buildTieHeavy(add func(terms []Term, lo, hi float64), n, blocks int) {
	for b := 0; b < blocks; b++ {
		// Identical windows over rotating variable pairs: equal RHS, equal
		// coefficients, so the initial violations tie exactly.
		for i := 0; i < n; i++ {
			j := (i + 1 + b) % n
			if j == i {
				j = (i + 1) % n
			}
			add([]Term{{i, 1}, {j, 1}}, 2, 5)
		}
	}
	// One asymmetric anchor so the optimum is unique enough to compare.
	add([]Term{{0, 1}}, 1, 4)
}

// TestPricingSchemesDegenerateTies solves the tie-heavy instance under
// all three pricing schemes and cross-checks each against the cold
// simplex and IPM oracles; every scheme must terminate Optimal (no
// IterLimit) and agree to 1e-6 of the data scale. Pivot counts are
// logged so the scheme comparison is visible in -v runs.
func TestPricingSchemesDegenerateTies(t *testing.T) {
	const n, blocks = 10, 6
	costs := make([]float64, n)
	for j := range costs {
		costs[j] = 1 // equal costs keep the duals tied too
	}

	p := NewProblem(n)
	for j, c := range costs {
		p.SetCost(j, c)
	}
	buildTieHeavy(func(terms []Term, lo, hi float64) {
		lowerRanged(p, terms, lo, hi)
	}, n, blocks)
	cold, err := (&Simplex{}).Solve(p)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold oracle: %v %v", err, cold.Status)
	}
	ipm, err := (&IPM{}).Solve(p)
	if err != nil || ipm.Status != Optimal {
		t.Fatalf("ipm oracle: %v %v", err, ipm.Status)
	}
	if math.Abs(cold.Objective-ipm.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("oracles disagree: cold %.9g ipm %.9g", cold.Objective, ipm.Objective)
	}

	pivots := map[Pricing]int{}
	for _, scheme := range []Pricing{PricingDevex, PricingMostViolated, PricingSteepestExact} {
		rv := NewRevised(n, costs)
		rv.SetPricing(scheme)
		buildTieHeavy(rv.AddRangedRow, n, blocks)
		sol, err := rv.Solve()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%v: status %v (IterLimit on a tie-heavy instance means the tie-break cycled)", scheme, sol.Status)
		}
		if math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Errorf("%v: objective %.9g, oracle %.9g", scheme, sol.Objective, cold.Objective)
		}
		st := rv.Stats()
		if st.PricingScheme != scheme.String() {
			t.Errorf("%v: Stats.PricingScheme = %q", scheme, st.PricingScheme)
		}
		if scheme != PricingMostViolated && st.WeightMax < st.WeightMin {
			t.Errorf("%v: weight extremes inverted: [%g, %g]", scheme, st.WeightMin, st.WeightMax)
		}
		pivots[scheme] = st.LPIterations
		t.Logf("%v: %d pivots, weights [%g, %g], devex-resets %d",
			scheme, st.LPIterations, st.WeightMin, st.WeightMax, st.DevexResets)
	}
}

// TestPricingSchemesWarmAgreement replays the long warm row-generation
// sequence under all three pricing schemes against the cold simplex:
// the pricing rule must not change any optimum, only the pivot path.
func TestPricingSchemesWarmAgreement(t *testing.T) {
	for _, scheme := range []Pricing{PricingDevex, PricingMostViolated, PricingSteepestExact} {
		rng := rand.New(rand.NewSource(11))
		n := 10
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = 0.5 + rng.Float64()
		}
		rv := NewRevised(n, costs)
		rv.SetPricing(scheme)
		p := NewProblem(n)
		for j, c := range costs {
			p.SetCost(j, c)
		}
		for round := 0; round < 40; round++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					terms = append(terms, Term{j, 1})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{rng.Intn(n), 1}}
			}
			if round%4 == 3 {
				hi := 1 + rng.Float64()*3
				lo := hi - 0.5 - rng.Float64()
				rv.AddRangedRow(terms, lo, hi)
				lowerRanged(p, terms, lo, hi)
			} else {
				rhs := rng.Float64() * 3
				rv.AddRow(terms, GE, rhs)
				p.AddConstraint(terms, GE, rhs, "")
			}
			warm, err := rv.Solve()
			if err != nil {
				t.Fatalf("%v round %d: %v", scheme, round, err)
			}
			cold, err := (&Simplex{}).Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("%v round %d: warm %v vs cold %v", scheme, round, warm.Status, cold.Status)
			}
			if warm.Status == Infeasible {
				// Rows are append-only, so infeasibility is sticky: the
				// remaining rounds add nothing to the comparison.
				break
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("%v round %d: warm %.9g cold %.9g", scheme, round, warm.Objective, cold.Objective)
			}
		}
	}
}

// warmReSolveBench is the steady-state warm-re-solve workload shared by
// BenchmarkRevisedWarmReSolve and the allocation regression test: one
// engine, rows arriving one at a time with a Solve after each — the
// §4.6 cutting-plane access pattern in miniature.
func warmReSolveBench(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	costs := make([]float64, n)
	for j := range costs {
		costs[j] = 0.5 + rng.Float64()
	}
	type row struct {
		terms []Term
		rhs   float64
	}
	rows := make([]row, 512)
	for i := range rows {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				terms = append(terms, Term{j, 1})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{rng.Intn(n), 1}}
		}
		rows[i] = row{terms, rng.Float64() * 3}
	}
	// fresh builds a warmed engine: 64 rows in, one Solve taken, so the
	// measured ops see steady-state buffers, not first-use growth.
	fresh := func() *Revised {
		rv := NewRevised(n, costs)
		for i := 0; i < 64; i++ {
			rv.AddRow(rows[i].terms, GE, rows[i].rhs)
		}
		if _, err := rv.Solve(); err != nil {
			b.Fatal(err)
		}
		return rv
	}
	const span = 256 // rows added per engine before rebuilding
	b.StopTimer()
	rv := fresh()
	b.ReportAllocs()
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if j := i % span; j == 0 && i > 0 {
			// Rebuild outside the timer so each measured op works on an
			// engine of bounded size (constant op cost for any b.N).
			b.StopTimer()
			rv = fresh()
			b.StartTimer()
		}
		r := rows[64+i%span]
		rv.AddRow(r.terms, GE, r.rhs)
		sol, err := rv.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("iteration %d: %v", i, sol.Status)
		}
	}
}

func BenchmarkRevisedWarmReSolve(b *testing.B) { warmReSolveBench(b) }

// TestRevisedWarmReSolveAllocs is the AllocsPerOp regression for the
// pivot-loop buffers: the ratio-test candidate list, the rho/w/flip
// scratch vectors and the eta entries are all reused across pivots, so
// one warm AddRow+Solve step must stay within a small constant
// allocation budget (extract's solution vector, the Solution value, the
// row append — NOT per-candidate or per-pivot garbage). The bound has
// headroom over the measured steady state (~10) but fails loudly if the
// ratio test regresses to per-pivot allocation (reflection-based sorts
// or re-grown candidate slices push it past 100).
func TestRevisedWarmReSolveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	res := testing.Benchmark(warmReSolveBench)
	if a := res.AllocsPerOp(); a > 40 {
		t.Errorf("warm AddRow+Solve allocates %d allocs/op, want ≤ 40 (pivot-loop buffers must be reused)", a)
	}
}
