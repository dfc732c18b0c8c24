package core

import (
	"math"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// TestPricingSchemesAgreeWithOracles runs a random instance through the
// revised engine under Devex pricing and checks it against the
// cold-simplex and IPM oracles at the 1e-6·radius acceptance bar.
func TestPricingSchemesAgreeWithOracles(t *testing.T) {
	in, b := randomInstance(t, 211, 14)
	res, err := Solve(in, b, nil)
	o := &coldOracle{in: in, b: b, tol: 1e-6 * in.Radius()}
	if err := o.certify(res, err, &lp.Simplex{}, &lp.IPM{}); err != nil {
		t.Error(err)
	}
}

// tieHeavyStar builds the degenerate-tie stress instance: eight sinks at
// exactly the same Manhattan distance from the source on a star topology,
// with a ranged delay window strictly above that distance. Every delay
// row has identical structure and RHS, so the dual simplex faces banks of
// exactly-equal violations — the pattern Devex's reference weights exist
// to break without cycling.
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
// delay-window rows) must solve under Devex pricing without hitting
// IterLimit, agreeing with the cold-simplex and IPM oracles to
// 1e-6·radius; the pivot count is logged for -v runs.
func TestPricingSchemesTieHeavyStar(t *testing.T) {
	in, b := tieHeavyStar(t)
	radius := in.Radius()
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatalf("%v (IterLimit here means the tie-break cycled)", err)
	}
	// Eight sinks each snaking to delay ≥ 16: the optimum is 8·16 = 128.
	if math.Abs(res.Cost-128) > 1e-6*radius {
		t.Errorf("cost %.9f, want 128", res.Cost)
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6 * radius}
	if err := o.certify(res, nil, &lp.Simplex{}, &lp.IPM{}); err != nil {
		t.Error(err)
	}
	for i := 1; i <= 8; i++ {
		if res.Delays[i] < 16-1e-6*radius || res.Delays[i] > 20+1e-6*radius {
			t.Errorf("delay(s%d) = %g outside [16, 20]", i, res.Delays[i])
		}
	}
	t.Logf("%d pivots", res.Stats.LPIterations)
}

// TestRevisedTrajectoryPin pins the revised engine's counters on the
// 0.1·radius window, as `lubtbench -stats` reports them. Pivot paths are
// deterministic, so any change to pricing, the ratio test or the basis
// factorization that moves a pivot shows here first. r6-s is the
// skew-guided 2 500-sink solve whose topology has one root branch, so it
// runs monolithic: its cost must also stay within 1e-6·radius of the
// optimum and pass Verify. It takes seconds, so it is skipped under the
// race detector.
func TestRevisedTrajectoryPin(t *testing.T) {
	type counters struct {
		rounds, steiner, pivots, flips, refactors, basis, fillIn int
	}
	pins := []struct {
		bench string
		want  counters
		cost  float64 // 0: not pinned
	}{
		{"prim2-s", counters{4, 481, 435, 17, 6, 273, 300}, 0},
		{"r4-s", counters{6, 2022, 1613, 34, 17, 866, 1169}, 0},
		{"r6-s", counters{8, 16493, 14420, 537, 117, 4509, 7060}, 568309.06},
	}
	for _, p := range pins {
		if p.bench == "r6-s" && raceEnabled {
			t.Logf("%s: skipped under the race detector", p.bench)
			continue
		}
		in, cb := benchInstance(t, p.bench)
		res, err := Solve(in, cb, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.bench, err)
		}
		st := res.Stats
		got := counters{st.Rounds, st.SteinerRows, st.LPIterations, st.BoundFlips,
			st.Refactorizations, st.BasisSize, st.FillIn}
		if got != p.want {
			t.Errorf("%s: got %+v, want %+v", p.bench, got, p.want)
		}
		if p.cost == 0 {
			continue
		}
		tol := 1e-6 * math.Max(1, in.Radius())
		if d := math.Abs(res.Cost - p.cost); d > tol {
			t.Errorf("%s: cost %.6f, want %.2f within %g", p.bench, res.Cost, p.cost, tol)
		}
		if err := Verify(in, cb, res.E, tol); err != nil {
			t.Errorf("%s: %v", p.bench, err)
		}
	}
}
