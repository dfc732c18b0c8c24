package core

import (
	"math"
	"os"
	"runtime"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/wkld"
)

// partInstance is benchInstance with the sector-partitioned baseline:
// the root gets one branch per angular sector (behind the Fig. 2
// forced-zero split spine), which is the topology class the subtree
// decomposition targets.
func partInstance(tb testing.TB, name string, sectors int) (*Instance, Bounds) {
	tb.Helper()
	b, err := wkld.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	radius := 0.0
	for _, s := range b.Sinks {
		radius = math.Max(radius, geom.Dist(b.Source, s))
	}
	base, err := bst.RoutePartitioned(b.Sinks, 0.1*radius, b.Source, sectors)
	if err != nil {
		tb.Fatal(err)
	}
	in := &Instance{
		Tree:    base.Tree,
		SinkLoc: make([]geom.Point, len(b.Sinks)+1),
		Source:  &b.Source,
	}
	copy(in.SinkLoc[1:], b.Sinks)
	u := base.Stats.Max
	l := math.Max(0, u-0.1*radius)
	m := base.Tree.NumSinks
	cb := Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		cb.L[i] = l
		cb.U[i] = u
	}
	return in, cb
}

// TestDecomposeAgreement checks exactness of the fixed-source branch
// decomposition: on a multi-branch r4-s instance the decomposed solve
// must match the monolithic optimum at the 1e-6·radius bar, pass
// full-matrix verification, and report the branch count in the stats.
func TestDecomposeAgreement(t *testing.T) {
	in, cb := partInstance(t, "r4-s", 4)
	if n := len(effectiveRootBranches(in.Tree)); n != 4 {
		t.Fatalf("partitioned instance has %d effective root branches, want 4", n)
	}
	tol := 1e-6 * math.Max(1, in.Radius())
	mono := mustSolve(t, in, cb, &Options{Decompose: "off"})
	dec := mustSolve(t, in, cb, &Options{Decompose: "on"})
	if dec.Stats.Subtrees != 4 {
		t.Errorf("Subtrees = %d, want 4", dec.Stats.Subtrees)
	}
	if d := math.Abs(dec.Cost - mono.Cost); d > tol {
		t.Errorf("decomposed cost %.10g vs monolithic %.10g: |Δ| = %g > %g",
			dec.Cost, mono.Cost, d, tol)
	}
	if err := Verify(in, cb, dec.E, 1e-6); err != nil {
		t.Errorf("decomposed solution fails verification: %v", err)
	}
	if dec.Stats.PeakRows <= 0 || dec.Stats.PeakRows > mono.Stats.PeakRows {
		t.Errorf("PeakRows = %d (monolithic %d), want a smaller positive tableau",
			dec.Stats.PeakRows, mono.Stats.PeakRows)
	}
}

// TestDecomposeDeterminism pins the worker-stripe guarantee: the
// decomposed solve must produce bit-identical trees and objective
// whether the branches run on one worker or on all of them. The test is
// meaningful under -race, where goroutine interleaving is perturbed.
func TestDecomposeDeterminism(t *testing.T) {
	in, cb := partInstance(t, "r3-s", 4)
	opt1 := &Options{Decompose: "on", OracleWorkers: 1}
	optN := &Options{Decompose: "on", OracleWorkers: runtime.GOMAXPROCS(0)}
	a := mustSolve(t, in, cb, opt1)
	b := mustSolve(t, in, cb, optN)
	if a.Cost != b.Cost {
		t.Errorf("cost differs across worker counts: %v vs %v", a.Cost, b.Cost)
	}
	for k := range a.E {
		if a.E[k] != b.E[k] {
			t.Fatalf("edge %d differs across worker counts: %v vs %v", k, a.E[k], b.E[k])
		}
	}
	if a.Stats.Subtrees != b.Stats.Subtrees || a.Stats.PresolvePrunedRows != b.Stats.PresolvePrunedRows {
		t.Errorf("stats differ across worker counts: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestViolatedByRoundMatchesRounds pins the per-round separation trace
// against the round count on every solve path: one entry per round,
// ending in the converged round's 0. Decomposed branches run their rounds
// side by side, so the merged trace sums them element-wise instead of
// concatenating them.
func TestViolatedByRoundMatchesRounds(t *testing.T) {
	in, cb := partInstance(t, "r4-s", 4)
	check := func(name string, st lp.Stats) {
		t.Helper()
		v := st.ViolatedByRound
		if st.Rounds < 1 || len(v) != st.Rounds || v[len(v)-1] != 0 {
			t.Errorf("%s: Rounds %d, ViolatedByRound %v — want one entry per round, ending in 0",
				name, st.Rounds, v)
		}
	}
	for _, c := range []struct {
		name string
		opt  *Options
	}{
		{"monolithic", nil},
		{"decompose", &Options{Decompose: "on"}},
	} {
		res := mustSolve(t, in, cb, c.opt)
		check(c.name, res.Stats)
		if c.name == "decompose" && res.Stats.Subtrees != 4 {
			t.Errorf("decompose: Subtrees = %d, want 4", res.Stats.Subtrees)
		}
	}
	sess, err := NewSession(in, cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := sess.Result().Delays[1] + 0.05*in.Radius()
	if err := sess.Retighten(1, l, math.Max(cb.U[1], l)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	check("session resolve", res.Stats)
}

// TestDecomposeFallback: forcing decomposition on a single-branch
// topology must quietly run the monolithic path (Subtrees stays 0) and
// still solve correctly.
func TestDecomposeFallback(t *testing.T) {
	in, cb := benchInstance(t, "prim2-s") // plain bst.Route: one root branch
	res := mustSolve(t, in, cb, &Options{Decompose: "on"})
	if res.Stats.Subtrees != 0 {
		t.Errorf("Subtrees = %d on a single-branch topology", res.Stats.Subtrees)
	}
	if err := Verify(in, cb, res.E, 1e-6); err != nil {
		t.Errorf("fallback solution fails verification: %v", err)
	}
}

// TestDecomposeFreeSource pins the free-source rule: without a fixed
// source the cross-branch rows d_i + d_j ≥ dist(i, j) couple the root
// branches, so even a forced Decompose "on" must run the monolithic
// solve — no subtrees, and exactly the "off" optimum.
func TestDecomposeFreeSource(t *testing.T) {
	in, cb := partInstance(t, "prim2-s", 3)
	in.Source = nil
	if n := len(effectiveRootBranches(in.Tree)); n < 2 {
		t.Fatalf("partitioned instance has %d effective root branches, want ≥ 2", n)
	}
	off := mustSolve(t, in, cb, &Options{Decompose: "off"})
	on := mustSolve(t, in, cb, &Options{Decompose: "on"})
	if on.Stats.Subtrees != 0 {
		t.Errorf("free source decomposed: Subtrees = %d, want 0", on.Stats.Subtrees)
	}
	if on.Cost != off.Cost {
		t.Errorf("Decompose on cost %.10g vs off %.10g, want identical", on.Cost, off.Cost)
	}
	if err := Verify(in, cb, on.E, 1e-6); err != nil {
		t.Errorf("free-source solution fails verification: %v", err)
	}
}

// TestDecomposeScaleAuto pins the auto gate end-to-end on an r6-class
// instance: at ScaleAutoSinks and beyond, a default Solve must
// decompose, prune rows with the oracle's window arm, and verify.
func TestDecomposeScaleAuto(t *testing.T) {
	if testing.Short() {
		t.Skip("r6-class instance in -short mode")
	}
	in, cb := partInstance(t, "r6-s", 8)
	res := mustSolve(t, in, cb, nil)
	if res.Stats.Subtrees != 8 {
		t.Errorf("auto Subtrees = %d, want 8", res.Stats.Subtrees)
	}
	if res.Stats.PresolvePrunedRows <= 0 {
		t.Errorf("auto PresolvePrunedRows = %d, want > 0", res.Stats.PresolvePrunedRows)
	}
	if err := Verify(in, cb, res.E, 1e-6); err != nil {
		t.Errorf("auto solution fails verification: %v", err)
	}
}

// TestDecomposeR6Full is the full 10 000-sink end-to-end acceptance run
// (sectored baseline, window-arm pruning + auto decomposition, full-matrix
// verification at 1e-6·radius). It takes minutes of routing + solving,
// so it only runs when LUBT_SCALE_FULL is set:
//
//	LUBT_SCALE_FULL=1 go test ./internal/core -run TestDecomposeR6Full -v
func TestDecomposeR6Full(t *testing.T) {
	if os.Getenv("LUBT_SCALE_FULL") == "" {
		t.Skip("full r6 scale run; set LUBT_SCALE_FULL=1 to enable")
	}
	in, cb := partInstance(t, "r6", 8)
	res := mustSolve(t, in, cb, nil)
	if res.Stats.Subtrees != 8 {
		t.Errorf("auto Subtrees = %d, want 8", res.Stats.Subtrees)
	}
	if res.Stats.PresolvePrunedRows <= 0 {
		t.Errorf("auto PresolvePrunedRows = %d, want > 0", res.Stats.PresolvePrunedRows)
	}
	tol := 1e-6 * math.Max(1, in.Radius())
	if err := Verify(in, cb, res.E, tol); err != nil {
		t.Errorf("r6 solution fails verification: %v", err)
	}
	t.Logf("r6: cost=%.0f rounds=%d pruned=%d peakRows=%d",
		res.Cost, res.Stats.Rounds, res.Stats.PresolvePrunedRows, res.Stats.PeakRows)
}
