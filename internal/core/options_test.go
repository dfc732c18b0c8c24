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
	cold, err := Solve(in, b, &Options{Solver: &lp.Simplex{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc.Cost-cold.Cost) > 1e-6*(1+cold.Cost) {
		t.Fatalf("incremental %g vs cold %g", inc.Cost, cold.Cost)
	}
}

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
	full, err := Solve(in, b, &Options{FullMatrix: true})
	if err != nil {
		t.Fatal(err)
	}
	// Full matrix with a source includes the m source rows: C(6,2)+6 = 21.
	if full.Stats.SteinerRows != 21 {
		t.Fatalf("Stats.SteinerRows = %d, want 21", full.Stats.SteinerRows)
	}
	rg, err := Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Cost-rg.Cost) > 1e-6*(1+rg.Cost) {
		t.Fatalf("full %g vs rowgen %g", full.Cost, rg.Cost)
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
// distances leave the LP's tolerance too coarse to resolve its Steiner
// rows; the loop must report ErrStalled at the first round that can add
// no row, not spin to its round limit.
func TestSolveStallsOnHugeWindows(t *testing.T) {
	in, _ := randomInstance(t, 201, 12)
	_, err := Solve(in, UniformBounds(12, 0, 1e20), nil)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !strings.Contains(err.Error(), "round 1 ") {
		t.Fatalf("err = %v, want a stall at round 1", err)
	}
}
