package core

import (
	"math"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// pricingSchemes are the three leaving-row rules of the revised engine,
// in the order (default, ablation baseline, exact cross-check).
var pricingSchemes = []string{"devex", "mostviolated", "steepest"}

// TestPricingOptionErrors pins the option-validation contract: Pricing
// only means something on the revised engine, so combining it with the
// dense engine or an explicit cold solver must fail loudly instead of
// being silently ignored, and unknown scheme names are rejected.
func TestPricingOptionErrors(t *testing.T) {
	in, b := randomInstance(t, 210, 5)
	cases := map[string]*Options{
		"dense engine":  {Engine: "dense", Pricing: "devex"},
		"cold solver":   {Solver: &lp.Simplex{}, Pricing: "devex"},
		"unknown token": {Pricing: "dantzig"},
	}
	for name, opt := range cases {
		if _, err := Solve(in, b, opt); err == nil {
			t.Errorf("%s: Pricing misuse accepted", name)
		}
	}
	// The explicit spellings of the valid schemes must all be accepted.
	for _, scheme := range pricingSchemes {
		if _, err := Solve(in, b, &Options{Pricing: scheme}); err != nil {
			t.Errorf("pricing %q rejected: %v", scheme, err)
		}
	}
}

// TestPricingSchemesAgreeWithOracles runs a random instance through the
// revised engine under all three pricing schemes and checks each against
// the dense-tableau and IPM oracles at the 1e-6·radius acceptance bar:
// the pricing rule must change only the pivot path, never the optimum.
func TestPricingSchemesAgreeWithOracles(t *testing.T) {
	in, b := randomInstance(t, 211, 14)
	radius := in.Radius()
	dense, err := Solve(in, b, &Options{Engine: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := Solve(in, b, &Options{Solver: &lp.IPM{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dense.Cost-ipm.Cost) > 1e-6*radius {
		t.Fatalf("oracles disagree: dense %.9f ipm %.9f", dense.Cost, ipm.Cost)
	}
	for _, scheme := range pricingSchemes {
		res, err := Solve(in, b, &Options{Pricing: scheme})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if math.Abs(res.Cost-dense.Cost) > 1e-6*radius {
			t.Errorf("%s: cost %.9f vs dense oracle %.9f (radius %g)", scheme, res.Cost, dense.Cost, radius)
		}
		if math.Abs(res.Cost-ipm.Cost) > 1e-6*radius {
			t.Errorf("%s: cost %.9f vs ipm oracle %.9f (radius %g)", scheme, res.Cost, ipm.Cost, radius)
		}
	}
}

// tieHeavyStar builds the degenerate-tie stress instance: eight sinks at
// exactly the same Manhattan distance from the source on a star topology,
// with a ranged delay window strictly above that distance. Every delay
// row has identical structure and RHS, so the dual simplex faces banks of
// exactly-equal violations — the pattern the reference-weight pricing
// schemes exist to break without cycling.
func tieHeavyStar(t *testing.T) (*Instance, Bounds) {
	t.Helper()
	// Lattice points at Manhattan distance exactly 14 from the origin.
	pts := []geom.Point{
		geom.Pt(6, 8), geom.Pt(8, 6), geom.Pt(8, -6), geom.Pt(6, -8),
		geom.Pt(-6, -8), geom.Pt(-8, -6), geom.Pt(-8, 6), geom.Pt(-6, 8),
	}
	parents := make([]int, len(pts)+1)
	parents[0] = -1
	for i := 1; i <= len(pts); i++ {
		parents[i] = 0
	}
	tree := topology.MustNew(parents, len(pts))
	src := geom.Pt(0, 0)
	in := &Instance{Tree: tree, SinkLoc: append([]geom.Point{{}}, pts...), Source: &src}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Window [16, 20] with every source-sink distance 14: all eight ranged
	// delay rows are violated by exactly the same amount at the start and
	// every edge must snake identically. Radius 14 satisfies u ≥ radius.
	return in, UniformBounds(len(pts), 16, 20)
}

// TestPricingSchemesTieHeavyStar is the degenerate-tie acceptance check:
// the tie-heavy boxed instance (banks of equal violations on ranged
// delay-window rows) must solve under all three pricing schemes without
// hitting IterLimit, agreeing with the dense and IPM oracles to
// 1e-6·radius; pivot counts are logged per scheme for -v runs.
func TestPricingSchemesTieHeavyStar(t *testing.T) {
	in, b := tieHeavyStar(t)
	radius := in.Radius()
	dense, err := Solve(in, b, &Options{Engine: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := Solve(in, b, &Options{Solver: &lp.IPM{}})
	if err != nil {
		t.Fatal(err)
	}
	// Eight sinks each snaking to delay ≥ 16: the optimum is 8·16 = 128.
	if math.Abs(dense.Cost-128) > 1e-6*radius {
		t.Fatalf("dense oracle cost %.9f, want 128", dense.Cost)
	}
	for _, scheme := range pricingSchemes {
		res, err := Solve(in, b, &Options{Pricing: scheme})
		if err != nil {
			t.Fatalf("%s: %v (IterLimit here means the tie-break cycled)", scheme, err)
		}
		if math.Abs(res.Cost-dense.Cost) > 1e-6*radius {
			t.Errorf("%s: cost %.9f vs dense %.9f", scheme, res.Cost, dense.Cost)
		}
		if math.Abs(res.Cost-ipm.Cost) > 1e-6*radius {
			t.Errorf("%s: cost %.9f vs ipm %.9f", scheme, res.Cost, ipm.Cost)
		}
		for i := 1; i <= 8; i++ {
			if res.Delays[i] < 16-1e-6*radius || res.Delays[i] > 20+1e-6*radius {
				t.Errorf("%s: delay(s%d) = %g outside [16, 20]", scheme, i, res.Delays[i])
			}
		}
		t.Logf("%s: %d pivots, scheme %q", scheme, res.Stats.Pivots, res.Stats.PricingScheme)
	}
}

// TestDevexPivotOrderingR4S asserts the headline pivot-count win on the
// degenerate-tie-prone r4-s workload: Devex pricing must take strictly
// fewer dual pivots than the most-violated baseline (1665 vs 1749 at the
// time of writing), while both land on the same optimum. This is the
// in-tree twin of the ci.sh bench-smoke pivot gate.
func TestDevexPivotOrderingR4S(t *testing.T) {
	if testing.Short() {
		t.Skip("r4-s solve in -short mode")
	}
	in, cb := benchInstance(t, "r4-s")
	radius := in.Radius()
	devex, err := Solve(in, cb, &Options{Pricing: "devex"})
	if err != nil {
		t.Fatal(err)
	}
	mv, err := Solve(in, cb, &Options{Pricing: "mostviolated"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(devex.Cost-mv.Cost) > 1e-6*radius {
		t.Fatalf("costs disagree: devex %.9f mv %.9f", devex.Cost, mv.Cost)
	}
	dp, mp := devex.Stats.Pivots, mv.Stats.Pivots
	t.Logf("r4-s pivots: devex %d, most-violated %d", dp, mp)
	if dp >= mp {
		t.Errorf("devex took %d pivots, most-violated %d — want strictly fewer on r4-s", dp, mp)
	}
	if devex.Stats.PricingScheme != "devex" || mv.Stats.PricingScheme != "most-violated" {
		t.Errorf("pricing labels: %q / %q", devex.Stats.PricingScheme, mv.Stats.PricingScheme)
	}
}

// TestRevisedTrajectoryPin pins the revised engine's counters on the
// 0.1·radius window, as `lubtbench -stats` reports them. Pivot paths are
// deterministic, so any change to pricing, the ratio test or the basis
// factorization that moves a pivot shows here first.
func TestRevisedTrajectoryPin(t *testing.T) {
	type counters struct {
		rounds, steiner, pivots, flips, refactors, basis, fillIn int
	}
	pins := []struct {
		bench, pricing string
		want           counters
	}{
		{"prim2-s", "devex", counters{4, 615, 438, 14, 10, 272, 794}},
		{"r4-s", "devex", counters{6, 2490, 1665, 43, 29, 868, 3682}},
		{"r4-s", "mostviolated", counters{6, 2475, 1749, 53, 32, 858, 4217}},
	}
	for _, p := range pins {
		in, cb := benchInstance(t, p.bench)
		res, err := Solve(in, cb, &Options{Pricing: p.pricing})
		if err != nil {
			t.Fatalf("%s/%s: %v", p.bench, p.pricing, err)
		}
		st := res.Stats
		got := counters{res.Rounds, res.RowsUsed, st.Pivots, st.BoundFlips,
			st.Refactorizations, st.BasisSize, st.FillIn}
		if got != p.want {
			t.Errorf("%s/%s: got %+v, want %+v", p.bench, p.pricing, got, p.want)
		}
	}
}
