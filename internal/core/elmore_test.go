package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lubt/internal/delay"
	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

func elmoreInstance(t *testing.T, rng *rand.Rand, m int) *Instance {
	t.Helper()
	tree, err := topology.RandomBinary(rng, m, false)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
	for i := 1; i <= m; i++ {
		in.SinkLoc[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	return in
}

func TestSolveElmoreUpperBoundOnly(t *testing.T) {
	// Convex case (l = 0): cap the Elmore delay above the unconstrained
	// tree's worst delay — the Steiner-minimal tree must already satisfy
	// it, and the solve must return essentially that tree.
	rng := rand.New(rand.NewSource(71))
	in := elmoreInstance(t, rng, 5)
	mdl := delay.Elmore{Rw: 0.1, Cw: 0.2}
	unconstrained, err := Solve(in, UniformBounds(5, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 1; i <= 5; i++ {
		worst = math.Max(worst, mdl.Delays(in.Tree, unconstrained.E)[i])
	}
	b := Bounds{L: make([]float64, 6), U: make([]float64, 6)}
	for i := 1; i <= 5; i++ {
		b.U[i] = worst * 1.01
	}
	res, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > unconstrained.Cost*1.01+1e-6 {
		t.Fatalf("loose Elmore cap should not raise cost: %g vs %g",
			res.Cost, unconstrained.Cost)
	}
}

func TestSolveElmoreTightUpperBound(t *testing.T) {
	// A binding upper bound: delays must come in under it, Steiner
	// feasibility must hold (verified via the linear-geometry oracle).
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		m := 3 + rng.Intn(4)
		in := elmoreInstance(t, rng, m)
		mdl := delay.Elmore{Rw: 0.05, Cw: 0.1}
		unconstrained, err := Solve(in, UniformBounds(m, 0, math.Inf(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		dl := mdl.Delays(in.Tree, unconstrained.E)
		worst := 0.0
		for i := 1; i <= m; i++ {
			worst = math.Max(worst, dl[i])
		}
		// Cap at 0.95 of the unconstrained worst; trials where that is
		// genuinely unreachable for the topology report ErrInfeasible and
		// are skipped below.
		b := Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
		for i := 1; i <= m; i++ {
			b.U[i] = worst * 0.95
		}
		res, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl})
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue // genuinely too tight for this topology
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		d := mdl.Delays(in.Tree, res.E)
		for i := 1; i <= m; i++ {
			if d[i] > b.U[i]*1.000001+1e-9 {
				t.Fatalf("trial %d: delay %g above cap %g", trial, d[i], b.U[i])
			}
		}
		// Steiner feasibility with loose linear bounds.
		loose := UniformBounds(m, 0, math.Inf(1))
		if err := Verify(in, loose, res.E, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSolveElmoreLowerBound(t *testing.T) {
	// Non-zero lower bounds (the non-convex case): sinks must be slowed
	// down to at least l by wire elongation.
	rng := rand.New(rand.NewSource(73))
	in := elmoreInstance(t, rng, 4)
	mdl := delay.Elmore{Rw: 0.1, Cw: 0.1}
	unconstrained, err := Solve(in, UniformBounds(4, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	dl := mdl.Delays(in.Tree, unconstrained.E)
	worst := 0.0
	for i := 1; i <= 4; i++ {
		worst = math.Max(worst, dl[i])
	}
	b := Bounds{L: make([]float64, 5), U: make([]float64, 5)}
	for i := 1; i <= 4; i++ {
		b.L[i] = worst     // force every sink up to the worst delay
		b.U[i] = worst * 3 // generous cap
	}
	res, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl})
	if err != nil {
		t.Fatal(err)
	}
	d := mdl.Delays(in.Tree, res.E)
	if res.MaxViolation > 1e-5*(1+worst) {
		t.Fatalf("reported violation %g too large", res.MaxViolation)
	}
	for i := 1; i <= 4; i++ {
		if d[i] < worst-res.MaxViolation-1e-12 {
			t.Fatalf("delay(s%d) = %g below lower bound %g beyond reported violation %g",
				i, d[i], worst, res.MaxViolation)
		}
	}
	if res.MaxViolation > 1e-3 {
		t.Fatalf("residual violation %g", res.MaxViolation)
	}
}

func TestSolveElmoreRequiresModel(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	in := elmoreInstance(t, rng, 3)
	if _, err := SolveElmore(in, UniformBounds(3, 0, 1), nil); err == nil {
		t.Error("nil options accepted")
	}
	if _, err := SolveElmore(in, UniformBounds(3, 0, 1), &ElmoreOptions{}); err == nil {
		t.Error("zero model accepted")
	}
}

func TestSolveElmoreBadBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	in := elmoreInstance(t, rng, 3)
	bad := Bounds{L: make([]float64, 2), U: make([]float64, 2)}
	if _, err := SolveElmore(in, bad, &ElmoreOptions{Model: delay.Elmore{Rw: 1, Cw: 1}}); err == nil {
		t.Error("mis-sized bounds accepted")
	}
}

// elmoreWindowInstance builds a two-sided-window Elmore problem that
// needs several SLP iterations: non-zero lower bounds force elongation
// and a finite cap keeps both window sides stated.
func elmoreWindowInstance(t *testing.T, seed int64, m int) (*Instance, Bounds, delay.Elmore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := elmoreInstance(t, rng, m)
	mdl := delay.Elmore{Rw: 0.1, Cw: 0.1}
	unconstrained, err := Solve(in, UniformBounds(m, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	dl := mdl.Delays(in.Tree, unconstrained.E)
	worst := 0.0
	for i := 1; i <= m; i++ {
		worst = math.Max(worst, dl[i])
	}
	b := Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		b.L[i] = worst
		b.U[i] = worst * 3
	}
	return in, b, mdl
}

// TestElmoreIterStatsMerge is the regression test for the per-iteration
// stats record: on the default engine path every IterStats entry must be
// a real counter delta of the persistent engine (restages and row
// replacements included) whose sum telescopes to the merged record, and
// its gauges must reflect the boxed engine's single-row ranged windows —
// not the len(p.Cons) mislabel the dense path used to stamp on both
// fields.
func TestElmoreIterStatsMerge(t *testing.T) {
	in, b, mdl := elmoreWindowInstance(t, 76, 5)
	res, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl})
	if err != nil {
		t.Fatal(err)
	}
	// A convergence break exits the loop after recording the final
	// iteration but before the counter increments, so the record count is
	// Iterations or Iterations+1.
	if n := len(res.IterStats); n != res.Iterations && n != res.Iterations+1 {
		t.Fatalf("%d IterStats records for %d iterations", n, res.Iterations)
	}
	if res.Iterations < 2 {
		t.Fatalf("window instance converged in %d iterations; the restage path never ran", res.Iterations)
	}
	var sumPivots, sumRestages, sumReplacements int
	for it, ist := range res.IterStats {
		sumPivots += ist.LPIterations
		sumRestages += ist.Restages
		sumReplacements += ist.RowReplacements
		// Real engine gauges, not a hand-stamped per-Problem record: the
		// stored-nonzero count is live and the lowered count can only meet
		// or exceed the tableau count (the SLP's window sides are one-sided
		// rows, so here they coincide — but never undershoot).
		if ist.RowNonzeros <= 0 || ist.TableauRows <= 0 {
			t.Errorf("iteration %d: empty row gauges (%d rows, %d nnz)",
				it, ist.TableauRows, ist.RowNonzeros)
		}
		if ist.LoweredTableauRows < ist.TableauRows {
			t.Errorf("iteration %d: lowered %d < tableau %d",
				it, ist.LoweredTableauRows, ist.TableauRows)
		}
		if ist.Rounds != 1 {
			t.Errorf("iteration %d: rounds = %d, want 1", it, ist.Rounds)
		}
		// Counter deltas of a persistent engine are never negative; a
		// negative delta means statsDelta and the engine's cumulative
		// counters (DevexResets across restages especially) disagree.
		if ist.LPIterations < 0 || ist.Restages < 0 || ist.RowReplacements < 0 ||
			ist.Refactorizations < 0 || ist.DevexResets < 0 || ist.BoundFlips < 0 {
			t.Errorf("iteration %d: negative counter delta: %+v", it, ist)
		}
	}
	// Iteration 1 builds the engine pre-solve (no restaging yet); every
	// later iteration restages the trust boxes.
	if res.IterStats[0].Restages != 0 {
		t.Errorf("iteration 0 restaged %d times before the first solve", res.IterStats[0].Restages)
	}
	for it := 1; it < len(res.IterStats); it++ {
		if res.IterStats[it].Restages == 0 {
			t.Errorf("iteration %d: no trust-region restage recorded", it)
		}
	}
	if sumRestages == 0 {
		t.Error("no restages across the whole SLP — the engine is being rebuilt per iteration")
	}
	// The merged record folds the warm start (which restages nothing) plus
	// the per-iteration deltas, so the cumulative engine counters must
	// telescope exactly.
	if res.Stats.Restages != sumRestages {
		t.Errorf("merged Restages %d != Σ per-iteration %d", res.Stats.Restages, sumRestages)
	}
	if res.Stats.RowReplacements != sumReplacements {
		t.Errorf("merged RowReplacements %d != Σ per-iteration %d", res.Stats.RowReplacements, sumReplacements)
	}
	if res.Stats.LPIterations < sumPivots {
		t.Errorf("merged LPIterations %d < Σ per-iteration %d (warm start missing?)", res.Stats.LPIterations, sumPivots)
	}
}

// TestElmoreEngineVsDenseAblation runs the same window instance through
// the default persistent engine and the explicit cold-solver ablation:
// both must satisfy the windows, and the cold path's IterStats must keep
// its documented dense shape (logical == tableau == lowered rows).
func TestElmoreEngineVsDenseAblation(t *testing.T) {
	in, b, mdl := elmoreWindowInstance(t, 77, 4)
	warm, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveElmore(in, b, &ElmoreOptions{Model: mdl, Solver: &lp.Simplex{}})
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 + math.Max(warm.Cost, cold.Cost)
	for _, res := range []*ElmoreResult{warm, cold} {
		d := mdl.Delays(in.Tree, res.E)
		for i := 1; i <= in.Tree.NumSinks; i++ {
			if d[i] < b.L[i]-res.MaxViolation-1e-9*scale || d[i] > b.U[i]+res.MaxViolation+1e-9*scale {
				t.Errorf("delay(s%d) = %g outside [%g, %g] beyond reported violation %g",
					i, d[i], b.L[i], b.U[i], res.MaxViolation)
			}
		}
	}
	// SLP is a local heuristic, but on the same instance the two pivot
	// paths should land within a few percent of each other.
	if ratio := warm.Cost / cold.Cost; ratio > 1.05 || ratio < 1/1.05 {
		t.Errorf("engine cost %g vs dense-ablation cost %g (ratio %g)", warm.Cost, cold.Cost, ratio)
	}
	for it, ist := range cold.IterStats {
		if ist.Restages != 0 || ist.RowReplacements != 0 {
			t.Errorf("cold iteration %d reports restages %d / replacements %d",
				it, ist.Restages, ist.RowReplacements)
		}
		if ist.LogicalRows != ist.TableauRows || ist.TableauRows != ist.LoweredTableauRows {
			t.Errorf("cold iteration %d: rows %d/%d/%d, want identical dense counts",
				it, ist.LogicalRows, ist.TableauRows, ist.LoweredTableauRows)
		}
	}
	if warm.Stats.Restages == 0 {
		t.Error("engine path recorded no restages")
	}
	if cold.Stats.Restages != 0 {
		t.Errorf("dense ablation recorded %d restages", cold.Stats.Restages)
	}
}
