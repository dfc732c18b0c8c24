package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// randomInstance builds a random feasible instance for option-path tests.
func randomInstance(t *testing.T, seed int64, m int) (*Instance, Bounds) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree, err := topology.RandomBinary(rng, m, false)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
	for i := 1; i <= m; i++ {
		in.SinkLoc[i] = geom.Pt(rng.Float64()*60, rng.Float64()*60)
	}
	r := in.Radius()
	return in, UniformBounds(m, 0.4*r, 1.4*r)
}

func TestSolveMaxRoundsExhausted(t *testing.T) {
	in, b := randomInstance(t, 201, 12)
	// One round with a tiny batch cannot converge on most instances; when
	// it cannot, the error must say so rather than return a wrong tree.
	_, err := Solve(in, b, &Options{MaxRounds: 1, Batch: 1})
	if err != nil && !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSolveSmallBatchStillOptimal(t *testing.T) {
	in, b := randomInstance(t, 202, 10)
	slow, err := Solve(in, b, &Options{Batch: 1, MaxRounds: 10000})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.Cost-fast.Cost) > 1e-6*(1+fast.Cost) {
		t.Fatalf("batch=1 cost %g vs default %g", slow.Cost, fast.Cost)
	}
	if slow.Stats.Rounds <= fast.Stats.Rounds {
		t.Logf("note: batch=1 used %d rounds vs %d", slow.Stats.Rounds, fast.Stats.Rounds)
	}
}

func TestSolveCustomTol(t *testing.T) {
	in, b := randomInstance(t, 203, 8)
	res, err := Solve(in, b, &Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, b, res.E, 1e-5); err != nil {
		t.Fatal(err)
	}
}

// TestSolveWeightsSizeMismatchErrors: a weight vector of the wrong
// length is a caller error, reported as one — not a panic.
func TestSolveWeightsSizeMismatchErrors(t *testing.T) {
	in, b := randomInstance(t, 204, 5)
	if _, err := Solve(in, b, &Options{Weights: []float64{1, 2}}); err == nil {
		t.Error("mis-sized weights accepted")
	}
}

func TestColdSolverPathsAgree(t *testing.T) {
	in, b := randomInstance(t, 205, 9)
	inc, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6 * (1 + inc.Cost)}
	if err := o.certify(inc, nil, &lp.Simplex{}); err != nil {
		t.Fatal(err)
	}
}

// TestFullMatrixWithSource: with a fixed source the full matrix has
// C(6,2) sink-pair rows plus 6 source rows; row generation states no more
// than those 21, and the cold oracle, which states the source rows and
// enumerates every pair, certifies its optimum.
func TestFullMatrixWithSource(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	tree, err := topology.RandomBinary(rng, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, 7)}
	for i := 1; i <= 6; i++ {
		in.SinkLoc[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
	}
	src := geom.Pt(20, -10)
	in.Source = &src
	r := in.Radius()
	b := UniformBounds(6, 0, 1.5*r)
	rg, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Stats.SteinerRows > 21 {
		t.Fatalf("Stats.SteinerRows = %d, more than the full matrix's 21", rg.Stats.SteinerRows)
	}
	o := &coldOracle{in: in, b: b, tol: 1e-6 * (1 + rg.Cost)}
	if err := o.certify(rg, nil, &lp.Simplex{}); err != nil {
		t.Fatal(err)
	}
}

// TestSteinerViolationHelper checks the oracle's worst-violation read,
// the Elmore SLP's Steiner residual.
func TestSteinerViolationHelper(t *testing.T) {
	in, _ := randomInstance(t, 207, 6)
	ps := newPresolve(in, nil)
	zero := make([]float64, in.Tree.N())
	if v := ps.worstViolation(in.Tree.Delays(zero)); v <= 0 {
		t.Fatalf("zero tree should violate Steiner constraints, got %g", v)
	}
	res, err := Solve(in, UniformBounds(6, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := ps.worstViolation(res.Delays); v > 1e-5 {
		t.Fatalf("optimal tree violates by %g", v)
	}
}

// TestNegativeOptionsFallBack: a negative Batch, MaxRounds, Tol or
// OracleWorkers means its default, in Solve and NewSession alike.
func TestNegativeOptionsFallBack(t *testing.T) {
	in, b := randomInstance(t, 212, 10)
	ref, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(*Options) (*Result, error){
		"Solve": func(opt *Options) (*Result, error) { return Solve(in, b, opt) },
		"NewSession": func(opt *Options) (*Result, error) {
			sess, err := NewSession(in, b, opt)
			if err != nil {
				return nil, err
			}
			return sess.Result(), nil
		},
	}
	opts := map[string]Options{
		"Batch-1":         {Batch: -1},
		"MaxRounds-1":     {MaxRounds: -1},
		"Tol-1":           {Tol: -1},
		"OracleWorkers-3": {OracleWorkers: -3},
	}
	for entry, solve := range entries {
		for name, opt := range opts {
			t.Run(entry+"/"+name, func(t *testing.T) {
				res, err := solve(&opt)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Cost-ref.Cost) > 1e-6*(1+ref.Cost) {
					t.Errorf("cost %g, default options %g", res.Cost, ref.Cost)
				}
			})
		}
	}
}

// TestSolveStallsOnHugeWindows: window tops far beyond the instance's
// distances leave the LP's tolerance too coarse to resolve its rows.
// Where it cannot resolve Steiner rows, the loop must report ErrStalled
// at the first round that can add no row, not spin to its round limit.
// Where it cannot hold a lower window — [1575, 1e20] on three sinks and
// the source at one point, whose all-zero point the LP accepts — Solve
// and a Session's Resolve must report ErrStalled naming the sink, its
// delay and its window, not return a tree that breaks its own windows;
// a top of 1e12 still solves, at cost 1575.
func TestSolveStallsOnHugeWindows(t *testing.T) {
	in, _ := randomInstance(t, 201, 12)
	_, err := Solve(in, UniformBounds(12, 0, 1e20), nil)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !strings.Contains(err.Error(), "round 1 ") {
		t.Fatalf("err = %v, want a stall at round 1", err)
	}

	p := geom.Pt(5, 5)
	locs := []geom.Point{p, p, p}
	tree, err := topology.Balanced(locs, true)
	if err != nil {
		t.Fatal(err)
	}
	in = &Instance{Tree: tree, SinkLoc: append([]geom.Point{{}}, locs...), Source: &p}
	want := "sink 1 delay 0 outside its window [1575, 1e+20]"
	_, err = Solve(in, UniformBounds(3, 1575, 1e20), nil)
	if !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Solve: err = %v, want ErrStalled naming %q", err, want)
	}
	res, err := Solve(in, UniformBounds(3, 1575, 1e12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-1575) > 1e-6 {
		t.Fatalf("window top 1e12: cost %g, want 1575", res.Cost)
	}
	sess, err := NewSession(in, UniformBounds(3, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Retighten(1, 1575, 1e20); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resolve(); !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Resolve: err = %v, want ErrStalled naming %q", err, want)
	}
}
