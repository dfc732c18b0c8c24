package core

import (
	"errors"
	"math"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
	"lubt/internal/wkld"
)

// engineOptions enumerates every LP path through the row-generation loop:
// the warm engine and both cold cross-check solvers.
func engineOptions() map[string]*Options {
	return map[string]*Options{
		"revised":     nil,
		"coldsimplex": {Solver: &lp.Simplex{}},
		"ipm":         {Solver: &lp.IPM{}},
	}
}

// TestZeroRadiusCoincidentSinks puts every sink (and the source) on one
// point: radius 0, every pairwise distance 0, every Steiner row
// degenerate. The optimum is the zero tree, and every engine must agree
// rather than cycle on the massively degenerate basis.
func TestZeroRadiusCoincidentSinks(t *testing.T) {
	tree := topology.MustNew([]int{-1, 5, 5, 6, 6, 0, 0}, 4)
	p := geom.Pt(7, 3)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{}, p, p, p, p}, Source: &p}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, opt := range engineOptions() {
		res, err := Solve(in, UniformBounds(4, 0, 0), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cost > 1e-9 {
			t.Errorf("%s: zero-radius cost = %g, want 0", name, res.Cost)
		}
		for i := 1; i <= 4; i++ {
			if res.Delays[i] > 1e-9 {
				t.Errorf("%s: delay(s%d) = %g, want 0", name, i, res.Delays[i])
			}
		}
	}
}

// TestExactWindowCoincidentSinks keeps the coincident geometry but pins
// l = u = 5: all delay rows become equality rows and every sink must snake
// to exactly 5. Sharing the snaked length on the root edges is optimal.
func TestExactWindowCoincidentSinks(t *testing.T) {
	tree := topology.MustNew([]int{-1, 5, 5, 6, 6, 0, 0}, 4)
	p := geom.Pt(7, 3)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{}, p, p, p, p}, Source: &p}
	for name, opt := range engineOptions() {
		res, err := Solve(in, UniformBounds(4, 5, 5), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 1; i <= 4; i++ {
			if math.Abs(res.Delays[i]-5) > 1e-6 {
				t.Errorf("%s: delay(s%d) = %g, want exactly 5", name, i, res.Delays[i])
			}
		}
		// Two root edges of length 5 serve both subtrees: cost 10.
		if math.Abs(res.Cost-10) > 1e-6 {
			t.Errorf("%s: l=u cost = %g, want 10", name, res.Cost)
		}
	}
}

// TestExactWindowAllSolversAgree runs an exact-equality window l = u on a
// random instance through every engine; the warm engine's fixed-slack
// rows must match the cold solvers' equality rows.
func TestExactWindowAllSolversAgree(t *testing.T) {
	in, _ := randomInstance(t, 208, 8)
	r := in.Radius()
	b := UniformBounds(8, 1.2*r, 1.2*r)
	var want float64
	for _, name := range []string{"revised", "coldsimplex", "ipm"} {
		res, err := Solve(in, b, engineOptions()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 1; i <= 8; i++ {
			if math.Abs(res.Delays[i]-1.2*r) > 1e-5*(1+r) {
				t.Errorf("%s: delay(s%d) = %g, want %g", name, i, res.Delays[i], 1.2*r)
			}
		}
		if name == "revised" {
			want = res.Cost
			continue
		}
		if math.Abs(res.Cost-want) > 1e-6*(1+want) {
			t.Errorf("%s: cost %g vs revised %g", name, res.Cost, want)
		}
	}
}

// TestInfeasibleAfterWarmRounds builds the Fig. 1 situation: a
// pass-through sink s1 on the path to s2, with windows that satisfy the
// necessary conditions Eq. 2–4 and a seeded LP that is feasible. Only the
// generated Steiner cutting plane (s1,s2) — e₂ ≥ 30 against e₂ ≤ 10 —
// exposes infeasibility, so a warm engine sees it strictly after a
// successful solve and must report sticky infeasibility rather than
// return a bound-violating tree.
func TestInfeasibleAfterWarmRounds(t *testing.T) {
	tree := topology.MustNew([]int{-1, 0, 1}, 2)
	src := geom.Pt(0, 0)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{
		{},
		geom.Pt(0, 10), // s1, pass-through
		geom.Pt(20, 0), // s2, reached through s1
	}, Source: &src}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// u₁ = dist(0,s1) pins e₁ = 10; u₂ = dist(0,s2) then pins e₂ ≤ 10,
	// while dist(s1,s2) = 30 demands e₂ ≥ 30.
	b := Bounds{L: make([]float64, 3), U: []float64{0, 10, 20}}
	for _, name := range []string{"revised", "coldsimplex"} {
		_, err := Solve(in, b, engineOptions()[name])
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

// TestRadiusTopWindowFeasible solves a 150-sink net in the window
// [0.9R, R], where the longest delay of the optimum is exactly R. One
// pivot's bound-flip walk runs out of candidates 4e-12 short of the
// violation, roundoff against a feasTol of 2e-5, which must not certify
// infeasibility: the revised engine must return the cold simplex's
// optimum. That optimum is pinned as coldOptimum, because the cold solve
// takes seconds (and far longer under the race detector); outside the
// race detector the pin is checked against a fresh cold solve.
func TestRadiusTopWindowFeasible(t *testing.T) {
	const coldOptimum = 144043.51041042124
	net := wkld.Custom("serve", 150, 3053199128896940017)
	src := net.Source
	r := 0.0
	for _, s := range net.Sinks {
		r = math.Max(r, geom.Dist(src, s))
	}
	base, err := bst.Route(net.Sinks, 0.1*r, &src)
	if err != nil {
		t.Fatal(err)
	}
	m := len(net.Sinks)
	in := &Instance{Tree: base.Tree, SinkLoc: make([]geom.Point, m+1), Source: &src}
	copy(in.SinkLoc[1:], net.Sinks)
	b := UniformBounds(m, 0.9*r, r)
	got, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Cost-coldOptimum) > 1e-6*r {
		t.Errorf("cost %.10f, cold simplex optimum %.10f", got.Cost, coldOptimum)
	}
	if !raceEnabled {
		cold, err := Solve(in, b, &Options{Solver: &lp.Simplex{}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cold.Cost-coldOptimum) > 1e-6*r {
			t.Errorf("cold simplex cost %.10f, pinned %.10f", cold.Cost, coldOptimum)
		}
	}
}

// TestOracleDeterministicAcrossWorkers fixes the separation scan's output
// order regardless of the worker count.
func TestOracleDeterministicAcrossWorkers(t *testing.T) {
	in, b := randomInstance(t, 209, 24)
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := make([]float64, len(res.E))
	for i, v := range res.E {
		e[i] = 0.9 * v // shrink so the scan reports plenty of pairs
	}
	want := violatedPairsN(in, e, 1e-9, 32, 1)
	if len(want) == 0 {
		t.Fatal("oracle found nothing to compare")
	}
	for _, workers := range []int{2, 3, 4, 7} {
		got := violatedPairsN(in, e, 1e-9, 32, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs vs %d serial", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pair %d = %v vs serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSolversAgreeOnScaledBench is the acceptance cross-check: the three
// public solver paths agree within 1e-6·radius on a -s workload.
func TestSolversAgreeOnScaledBench(t *testing.T) {
	in, cb := benchInstance(t, "prim1-s")
	radius := in.Radius()
	ref, err := Solve(in, cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coldsimplex", "ipm"} {
		res, err := Solve(in, cb, engineOptions()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Cost-ref.Cost) > 1e-6*radius {
			t.Errorf("%s: cost %.9f vs revised %.9f (radius %g)", name, res.Cost, ref.Cost, radius)
		}
	}
}
