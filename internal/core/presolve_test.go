package core

import (
	"math"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// TestPresolveAgreement is the window-arm-must-never-change-the-answer
// suite: on the bench workloads, Solve — whose oracle prunes the rows
// its fixed windows imply — must reproduce the optimum of solves without
// the window arm (a Session's cold solve, and on prim2-s the FullMatrix
// solve, which states every row) across all three solver configurations
// — warm revised, cold simplex, IPM — to within the 1e-6·radius
// acceptance bar, and the pruned solutions must still pass full-matrix
// verification.
func TestPresolveAgreement(t *testing.T) {
	// The cold solvers re-solve the whole LP from scratch every
	// row-generation round, which is minutes-per-solve at r4-s size
	// (~7k active rows); they cross-check on the two smaller benches
	// and the warm engine carries the largest one.
	solvers := []struct {
		name     string
		maxSinks int
		opt      Options
	}{
		{"revised", math.MaxInt, Options{}},
		{"coldsimplex", 250, Options{Solver: &lp.Simplex{}}},
		{"ipm", 250, Options{Solver: &lp.IPM{}}},
	}
	for _, bench := range []string{"prim2-s", "r3-s", "r4-s"} {
		in, cb := benchInstance(t, bench)
		tol := 1e-6 * math.Max(1, in.Radius())
		sess, err := NewSession(in, cb, nil)
		if err != nil {
			t.Fatalf("%s: session: %v", bench, err)
		}
		refs := map[string]*Result{"session": sess.Result()}
		if bench == "prim2-s" {
			refs["full-matrix"] = mustSolve(t, in, cb, &Options{FullMatrix: true})
		}
		for _, sv := range solvers {
			if in.Tree.NumSinks > sv.maxSinks {
				continue
			}
			if raceEnabled && sv.maxSinks != math.MaxInt {
				// The cold solvers are single-threaded math the detector
				// has nothing to say about, and instrumentation makes
				// them exceed the package timeout.
				continue
			}
			t.Run(bench+"/"+sv.name, func(t *testing.T) {
				opt := sv.opt
				res := mustSolve(t, in, cb, &opt)
				for name, ref := range refs {
					if d := math.Abs(res.Cost - ref.Cost); d > tol {
						t.Errorf("pruned cost %.10g vs %s %.10g: |Δ| = %g > %g",
							res.Cost, name, ref.Cost, d, tol)
					}
				}
				// Feasibility at the same radius-scaled bar as the cost:
				// the IPM's residual is relative to the instance scale, so
				// a fixed absolute 1e-6 would flag healthy solutions on
				// the 10^4-radius benches.
				if err := Verify(in, cb, res.E, tol); err != nil {
					t.Errorf("pruned solution fails verification: %v", err)
				}
			})
		}
	}
}

// TestPresolvePrunesRows pins the acceptance bar that the window arm
// actually bites on the headline workloads: a nonzero fraction of the
// candidate sink-pair rows must be dominated in Solve on r4-s and r5-s,
// and the stat must stay zero in a Session, which runs without the arm.
func TestPresolvePrunesRows(t *testing.T) {
	for _, bench := range []string{"r4-s", "r5-s"} {
		in, cb := benchInstance(t, bench)
		res := mustSolve(t, in, cb, nil)
		if res.Stats.PresolvePrunedRows <= 0 {
			t.Errorf("%s: Solve pruned %d rows", bench, res.Stats.PresolvePrunedRows)
		}
		if res.Stats.PeakRows <= 0 {
			t.Errorf("%s: PeakRows = %d, want > 0", bench, res.Stats.PeakRows)
		}
		sess, err := NewSession(in, cb, nil)
		if err != nil {
			t.Fatalf("%s: session: %v", bench, err)
		}
		if n := sess.Result().Stats.PresolvePrunedRows; n != 0 {
			t.Errorf("%s: Session pruned %d rows, want 0", bench, n)
		}
	}
}

// forkInstance is two root branches with two sinks each: Steiner nodes 5
// and 6 under the root, sinks 1, 2 below node 5 and sinks 3, 4 below
// node 6. All pairs crossing (5, 6) share the root as LCA.
func forkInstance() *Instance {
	return &Instance{
		Tree: topology.MustNew([]int{-1, 5, 5, 6, 6, 0, 0}, 4),
		SinkLoc: []geom.Point{
			{},
			geom.Pt(-1, 0),  // s1
			geom.Pt(-10, 0), // s2
			geom.Pt(1, 0),   // s3
			geom.Pt(10, 0),  // s4
		},
	}
}

func TestDominatesWindow(t *testing.T) {
	in := forkInstance()
	b := UniformBounds(4, 0, 2) // cu = 2, λ = 0 for every sink
	// dist(1,3) − λ1 − λ3 = 2 ≤ dist(2,4) − cu2 − cu4 = 20 − 4 = 16.
	if !dominatesWindow(in, b, 1, 3, 2, 4) {
		t.Error("window-dominated pair not detected")
	}
	// Reverse direction: 20 ≤ 2 − 4 is false.
	if dominatesWindow(in, b, 2, 4, 1, 3) {
		t.Error("dominance reported in the unsound direction")
	}
	// Self-domination must report false.
	if dominatesWindow(in, b, 2, 4, 2, 4) {
		t.Error("row reported as window-dominating itself")
	}
	// Without a finite upper window there is no cancellation bound.
	free := Bounds{L: make([]float64, 5), U: make([]float64, 5)}
	for i := 1; i <= 4; i++ {
		free.U[i] = math.Inf(1)
	}
	if dominatesWindow(in, free, 1, 3, 2, 4) {
		t.Error("dominance claimed without finite upper windows")
	}
	// Pairs under different LCAs never window-dominate each other.
	if dominatesWindow(in, b, 1, 2, 3, 4) {
		t.Error("pairs with different LCAs reported as window-dominated")
	}
	// A pair whose endpoint is the LCA itself (a non-leaf sink) loses the
	// cancelling d_v term, so the window argument does not apply even when
	// the distance test would pass: sink 1 has Steiner child 4 holding
	// sinks 2 and 3, and both pairs (1,2) and (1,3) meet at LCA 1 through
	// the same child subtree.
	deep := &Instance{
		Tree: topology.MustNew([]int{-1, 0, 4, 4, 1}, 3),
		SinkLoc: []geom.Point{
			{},
			geom.Pt(0, 0),  // s1: the LCA itself
			geom.Pt(4, 0),  // s2
			geom.Pt(-5, 0), // s3
		},
	}
	db := UniformBounds(3, 0, 0.1)
	// Distance test alone: dist(1,2) − 0 − 0 = 4 ≤ dist(1,3) − cu1 − cu3
	// = 5 − 0.2 — it would pass; the degenerate-LCA guard must refuse.
	if dominatesWindow(deep, db, 1, 2, 1, 3) {
		t.Error("degenerate endpoint-at-LCA pair reported as window-dominated")
	}
}

// TestPresolveWitnessTies pins the tie rule: when every pair in a block
// scores equally (here via l == u windows making λ = cu), exactly one
// row — the witness — survives and the rest are counted as pruned.
func TestPresolveWitnessTies(t *testing.T) {
	in := forkInstance()
	b := UniformBounds(4, 11, 11) // l == u: λ = cu = 11 for every sink
	ps := newPresolve(in, &b)
	// Three blocks: the 2×2 cross-branch block at the root plus the two
	// 1×1 sibling blocks under Steiner nodes 5 and 6.
	if len(ps.blocks) != 3 {
		t.Fatalf("fork instance built %d blocks, want 3", len(ps.blocks))
	}
	var root *psBlock
	for i := range ps.blocks {
		if ps.blocks[i].v == 0 {
			root = &ps.blocks[i]
		}
	}
	if root == nil {
		t.Fatal("no block at the root")
	}
	if !root.allDominated {
		t.Error("equal-window root block not statically dominated")
	}
	if root.wi < 0 || root.wi == root.wj {
		t.Errorf("degenerate witness (%d, %d)", root.wi, root.wj)
	}
	// The 2×2 root block keeps its witness and prunes the other 3 pairs;
	// the 1×1 sibling blocks have nothing beyond their witness to prune.
	if got := ps.prunedRows(); got != 3 {
		t.Errorf("prunedRows = %d, want 3", got)
	}
	// Exactly one seeded row per block — ties keep exactly one row.
	if pairs := ps.seedPairs(); len(pairs) != 3 {
		t.Errorf("seeded %d rows, want exactly one per block (3)", len(pairs))
	}
}

// TestPresolveOracleMatchesLegacy cross-checks the separation oracle
// under the window arm against the brute-force reference scan
// violatedPairsN on a real workload at the all-zero point: every row the
// oracle emits must be a violation the scan also reports (the oracle
// may emit fewer — dominated rows are the arm's whole point — but never
// rows of its own).
func TestPresolveOracleMatchesLegacy(t *testing.T) {
	in, cb := benchInstance(t, "prim2-s")
	ps := newPresolve(in, &cb)
	zero := make([]float64, in.Tree.N()) // zero edges ⇒ zero delays
	tol := 1e-7 * math.Max(1, in.Radius())
	got := ps.violatedPairs(zero, tol, 1<<30, 1)
	want := violatedPairsN(in, zero, tol, 1<<30, 1)
	if len(got) > len(want) {
		t.Fatalf("block oracle returned %d rows, the scan %d", len(got), len(want))
	}
	// Every emitted row must also be a scan violation.
	seen := make(map[[2]int]bool, len(want))
	for _, pr := range want {
		seen[pr] = true
	}
	for _, pr := range got {
		if !seen[pr] {
			t.Fatalf("block oracle emitted %v which the scan does not report", pr)
		}
	}
	if len(got) == 0 {
		t.Fatal("block oracle found no violations at the zero point")
	}
}

func TestScaleSettingValidation(t *testing.T) {
	in := fig3Instance(t)
	b := UniformBounds(5, 4, 6)
	if _, err := Solve(in, b, &Options{Decompose: "always"}); err == nil {
		t.Error("Solve accepted Decompose \"always\"")
	}
	// The documented values all resolve.
	for _, v := range []string{"", "on", "off"} {
		if _, err := Solve(in, b, &Options{Decompose: v}); err != nil {
			t.Errorf("Solve(Decompose=%q): %v", v, err)
		}
	}
}
