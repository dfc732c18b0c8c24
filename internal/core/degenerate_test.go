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

// TestZeroRadiusCoincidentSinks puts every sink (and the source) on one
// point: radius 0, every pairwise distance 0, every Steiner row
// degenerate. The optimum is the zero tree, which the warm engine must
// reach rather than cycle on the massively degenerate basis, and the cold
// oracle must certify with the simplex and the IPM.
func TestZeroRadiusCoincidentSinks(t *testing.T) {
	tree := topology.MustNew([]int{-1, 5, 5, 6, 6, 0, 0}, 4)
	p := geom.Pt(7, 3)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{}, p, p, p, p}, Source: &p}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	b := UniformBounds(4, 0, 0)
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Errorf("zero-radius cost = %g, want 0", res.Cost)
	}
	for i := 1; i <= 4; i++ {
		if res.Delays[i] > 1e-9 {
			t.Errorf("delay(s%d) = %g, want 0", i, res.Delays[i])
		}
	}
	o := &coldOracle{in: in, b: b, tol: 1e-9}
	if err := o.certify(res, nil, &lp.Simplex{}, &lp.IPM{}); err != nil {
		t.Error(err)
	}
}

// TestExactWindowCoincidentSinks keeps the coincident geometry but pins
// l = u = 5: all delay rows become equality rows and every sink must snake
// to exactly 5. Sharing the snaked length on the root edges is optimal.
func TestExactWindowCoincidentSinks(t *testing.T) {
	tree := topology.MustNew([]int{-1, 5, 5, 6, 6, 0, 0}, 4)
	p := geom.Pt(7, 3)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{}, p, p, p, p}, Source: &p}
	b := UniformBounds(4, 5, 5)
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if math.Abs(res.Delays[i]-5) > 1e-6 {
			t.Errorf("delay(s%d) = %g, want exactly 5", i, res.Delays[i])
		}
	}
	// Two root edges of length 5 serve both subtrees: cost 10.
	if math.Abs(res.Cost-10) > 1e-6 {
		t.Errorf("l=u cost = %g, want 10", res.Cost)
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6}
	if err := o.certify(res, nil, &lp.Simplex{}, &lp.IPM{}); err != nil {
		t.Error(err)
	}
}

// TestExactWindowAllSolversAgree runs an exact-equality window l = u on a
// random instance; the warm engine's fixed-slack rows must reach the
// optimum of the cold solvers' equality rows.
func TestExactWindowAllSolversAgree(t *testing.T) {
	in, _ := randomInstance(t, 208, 8)
	r := in.Radius()
	b := UniformBounds(8, 1.2*r, 1.2*r)
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if math.Abs(res.Delays[i]-1.2*r) > 1e-5*(1+r) {
			t.Errorf("delay(s%d) = %g, want %g", i, res.Delays[i], 1.2*r)
		}
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6 * (1 + res.Cost)}
	if err := o.certify(res, nil, &lp.Simplex{}, &lp.IPM{}); err != nil {
		t.Error(err)
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
	_, err := Solve(in, b, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6 * (1 + in.Radius())}
	if err := o.certify(nil, err, &lp.Simplex{}); err != nil {
		t.Error(err)
	}
}

// TestRadiusTopWindowFeasible solves a 150-sink net in the window
// [0.9R, R], where the longest delay of the optimum is exactly R. One
// pivot's bound-flip walk runs out of candidates 4e-12 short of the
// violation, roundoff against a feasTol of 2e-5, which must not certify
// infeasibility: the revised engine must return the cold simplex's
// optimum. That optimum is pinned as coldOptimum, because the cold solve
// takes seconds (and far longer under the race detector); outside the
// race detector the cold oracle certifies the warm optimum.
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
		o := &coldOracle{in: in, b: b, tol: 1e-6 * r}
		if err := o.certify(got, nil, &lp.Simplex{}); err != nil {
			t.Error(err)
		}
	}
}

// TestOracleDeterministicAcrossWorkers fixes the separation oracle's
// output order and prune count regardless of the worker count, with and
// without the window arm. The instance has enough sinks (≥ 64) for the
// oracle to stripe its blocks across workers.
func TestOracleDeterministicAcrossWorkers(t *testing.T) {
	in, b := randomInstance(t, 209, 80)
	res, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := make([]float64, len(res.E))
	for i, v := range res.E {
		e[i] = 0.9 * v // shrink so the scan reports plenty of pairs
	}
	d := in.Tree.Delays(e)
	for _, windows := range []*Bounds{nil, &b} {
		serial := newPresolve(in, windows)
		want := serial.violatedPairs(d, 1e-9, 32, 1)
		if len(want) == 0 {
			t.Fatal("oracle found nothing to compare")
		}
		for _, workers := range []int{2, 3, 4, 7} {
			ps := newPresolve(in, windows)
			got := ps.violatedPairs(d, 1e-9, 32, workers)
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d pairs vs %d serial", workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: pair %d = %v vs serial %v", workers, i, got[i], want[i])
				}
			}
			if ps.prunedRows() != serial.prunedRows() {
				t.Errorf("workers=%d: pruned %d vs %d serial", workers, ps.prunedRows(), serial.prunedRows())
			}
		}
	}
}

// TestSolversAgreeOnScaledBench is the acceptance cross-check: the warm
// optimum on a -s workload agrees with the cold simplex and the IPM
// within 1e-6·radius.
func TestSolversAgreeOnScaledBench(t *testing.T) {
	in, cb := benchInstance(t, "prim1-s")
	radius := in.Radius()
	ref, err := Solve(in, cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &coldOracle{in: in, b: cb, tol: 1e-6 * radius}
	for _, s := range []lp.Solver{&lp.Simplex{}, &lp.IPM{}} {
		if err := o.certify(ref, nil, s); err != nil {
			t.Error(err)
		}
	}
}
