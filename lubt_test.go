package lubt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lubt/internal/lp"
)

func randPoints(rng *rand.Rand, m int) []Point {
	pts := make([]Point, m)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	return pts
}

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sinks := randPoints(rng, 12)
	inst, err := NewInstance(sinks)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.UseSkewGuidedTopology(10); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	tree, err := inst.Solve(Uniform(12, 0.8*r, 1.3*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	for i, d := range tree.SinkDelays {
		if d < 0.8*r-1e-6 || d > 1.3*r+1e-6 {
			t.Fatalf("sink %d delay %g outside window", i, d)
		}
	}
	if tree.Skew > 0.5*r+1e-6 {
		t.Fatalf("skew %g exceeds window width", tree.Skew)
	}
	if tree.String() == "" {
		t.Error("empty String")
	}
}

// TestVerifyRejectsNonFiniteEdges overwrites a solved tree's exported
// edge lengths with NaN and +Inf. Under windows [0, ∞) every bound and
// Steiner check is a comparison that NaN and +Inf pass, so Verify must
// reject them by name first.
func TestVerifyRejectsNonFiniteEdges(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		inst, _ := NewInstance([]Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}})
		inst.SetSource(Point{5, 5})
		if err := inst.UseBalancedTopology(); err != nil {
			t.Fatal(err)
		}
		tree, err := inst.Solve(Uniform(4, 0, math.Inf(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Verify(); err != nil {
			t.Fatalf("solved tree fails Verify: %v", err)
		}
		for k := range tree.EdgeLengths {
			tree.EdgeLengths[k] = bad
		}
		if err := tree.Verify(); err == nil || !strings.Contains(err.Error(), "edge 1 length") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("edges all %g: Verify = %v, want edge 1 named as not finite", bad, err)
		}
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil); err == nil {
		t.Error("empty instance accepted")
	}
}

func TestSolveRequiresTopology(t *testing.T) {
	inst, _ := NewInstance(randPoints(rand.New(rand.NewSource(1)), 4))
	if _, err := inst.Solve(Uniform(4, 0, 1e9), nil); err == nil {
		t.Error("solve without topology accepted")
	}
}

func TestBalancedTopology(t *testing.T) {
	inst, _ := NewInstance(randPoints(rand.New(rand.NewSource(2)), 9))
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	if inst.Topology() == nil {
		t.Fatal("no topology recorded")
	}
	r := inst.Radius()
	tree, err := inst.Solve(Uniform(9, 0, 2*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomTopologyWithSplit(t *testing.T) {
	// A star (root with 4 sink children) exercises the Fig. 2 split.
	sinks := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	inst, _ := NewInstance(sinks)
	if err := inst.UseCustomTopology([]int{-1, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	tree, err := inst.Solve(Uniform(4, 0, 2*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveWithSource(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sinks := randPoints(rng, 8)
	inst, _ := NewInstance(sinks)
	inst.SetSource(Point{50, -20})
	if err := inst.UseSkewGuidedTopology(5); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	tree, err := inst.Solve(Uniform(8, 0, 1.5*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Locations[0]; Dist(got, Point{50, -20}) > 1e-6 {
		t.Fatalf("source placed at %v", got)
	}
}

func TestInfeasibleSurfacesTypedError(t *testing.T) {
	sinks := []Point{{5, 0}, {1, 0}}
	inst, _ := NewInstance(sinks)
	inst.SetSource(Point{0, 0})
	// Non-leaf sink topology: 0 → 1 → 2, forcing delay(s2) ≥ 9.
	if err := inst.UseCustomTopology([]int{-1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	_, err := inst.Solve(Uniform(2, 0, 6), nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// fullMatrixLP states the EBF LP of the instance under its topology for
// the cold solvers, with every sink-pair Steiner row and unit weights.
func fullMatrixLP(inst *Instance, b Bounds) *lp.Problem {
	ci := inst.coreInstance(inst.tree)
	t := ci.Tree
	p := lp.NewProblem(t.N())
	for k := 1; k < t.N(); k++ {
		p.SetCost(k, 1)
	}
	p.AddSumEQ([]int{0}, 0, "unused")
	for i := 1; i <= t.NumSinks; i++ {
		if l := b.Lower[i-1]; l > 0 {
			p.AddSumGE(t.PathToRoot(i), l, "")
		}
		if u := b.Upper[i-1]; !math.IsInf(u, 1) {
			p.AddSumLE(t.PathToRoot(i), u, "")
		}
		for j := i + 1; j <= t.NumSinks; j++ {
			p.AddSumGE(t.Path(i, j), ci.Dist(i, j), "")
		}
	}
	return p
}

// TestSolverOptions checks the warm solve against the cold references on
// the full constraint matrix — the two-phase simplex, and the IPM (the
// paper's solver family) at its looser bar — and the placement option.
func TestSolverOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sinks := randPoints(rng, 6)
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	b := Uniform(6, 0.5*r, 1.5*r)
	sx, err := inst.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := fullMatrixLP(inst, b)
	for _, ref := range []struct {
		name   string
		solver lp.Solver
		tol    float64
	}{
		{"full matrix", &lp.Simplex{}, 1e-5},
		{"ipm", &lp.IPM{}, 1e-3},
	} {
		sol, err := ref.solver.Solve(p)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s: %v %v", ref.name, sol, err)
		}
		if math.Abs(sol.Objective-sx.Cost) > ref.tol*(1+sx.Cost) {
			t.Fatalf("%s %g vs rowgen %g", ref.name, sol.Objective, sx.Cost)
		}
	}
	if _, err := inst.Solve(b, &Options{Placement: "bogus"}); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := inst.Solve(b, &Options{Placement: "center"}); err != nil {
		t.Errorf("center placement failed: %v", err)
	}
}

func TestBoundedSkewBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sinks := randPoints(rng, 14)
	base, err := BoundedSkewBaseline(sinks, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Skew > 8+1e-7 {
		t.Fatalf("baseline skew %g > 8", base.Skew)
	}
	if err := base.Verify(); err != nil {
		t.Fatal(err)
	}
	// The paper's methodology: reuse the baseline topology and its own
	// delay window; the LP must not be worse (Theorem 4.2).
	inst, _ := NewInstance(sinks)
	if err := inst.UseCustomTopology(base.Parent); err != nil {
		t.Fatal(err)
	}
	tree, err := inst.Solve(Uniform(14, base.MinDelay, base.MaxDelay), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost > base.Cost*(1+1e-9)+1e-7 {
		t.Fatalf("LUBT %g worse than baseline %g", tree.Cost, base.Cost)
	}
}

func TestMismatchedBounds(t *testing.T) {
	inst, _ := NewInstance(randPoints(rand.New(rand.NewSource(6)), 5))
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Solve(Uniform(3, 0, 1e9), nil); err == nil {
		t.Error("mis-sized bounds accepted")
	}
}

func TestWeightsOption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sinks := randPoints(rng, 5)
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	n := len(inst.Topology())
	w := make([]float64, n)
	for i := range w {
		w[i] = 2
	}
	r := inst.Radius()
	doubled, err := inst.Solve(Uniform(5, 0, 2*r), &Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := inst.Solve(Uniform(5, 0, 2*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doubled.Cost-2*unit.Cost) > 1e-6*(1+unit.Cost) {
		t.Fatalf("uniform doubling: %g vs 2×%g", doubled.Cost, unit.Cost)
	}
}

// TestMalformedWeightsRejected feeds each solve entry point a weight
// vector of the wrong length or with a negative, NaN or +Inf edge weight:
// each must return an error naming the weights, never panic and never
// report a NaN or infinite cost as a solution.
func TestMalformedWeightsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst, _ := NewInstance(randPoints(rng, 6))
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	n := len(inst.Topology())
	r := inst.Radius()
	b := Uniform(6, 0.9*r, 1.2*r)
	unit := func(k int, v float64) []float64 {
		w := make([]float64, n)
		for i := 1; i < n; i++ {
			w[i] = 1
		}
		w[k] = v
		return w
	}
	weights := map[string][]float64{
		"short":    {0, 1},
		"negative": unit(n-1, -1),
		"nan":      unit(1, math.NaN()),
		"+inf":     unit(n/2, math.Inf(1)),
	}
	solvers := map[string]func(w []float64) error{
		"Solve": func(w []float64) error {
			_, err := inst.Solve(b, &Options{Weights: w})
			return err
		},
		"SolveECO": func(w []float64) error {
			_, err := inst.SolveECO(b, &Options{Weights: w})
			return err
		},
		"SolveElmore": func(w []float64) error {
			_, err := inst.SolveElmore(Uniform(6, 0, 1e6), 0.1, 0.2, nil, &Options{Weights: w})
			return err
		},
	}
	for sname, solve := range solvers {
		for wname, w := range weights {
			t.Run(sname+"/"+wname, func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panicked: %v", p)
						}
					}()
					err = solve(w)
				}()
				if err == nil || !strings.Contains(err.Error(), "weight") {
					t.Fatalf("err = %v, want a weights error", err)
				}
			})
		}
	}
}

// TestNonFiniteCoordinatesRejected feeds every entry point sinks or a
// source with a NaN or infinite coordinate, finite coordinates whose
// bounding box overflows, and windows whose optimum overflows: each must
// return an error wrapping ErrNotFinite, never panic and never report a
// tree with an infinite cost.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	near := []Point{{0, 0}, {1, 1}}
	far := []Point{{1e308, 1e308}, {-1e308, -1e308}}
	// build returns an instance over sinks, with the source set when
	// given, or NewInstance's error.
	build := func(sinks []Point, src *Point) (*Instance, error) {
		in, err := NewInstance(sinks)
		if err == nil && src != nil {
			in.SetSource(*src)
		}
		return in, err
	}
	topologies := map[string]func(in *Instance) error{
		"balanced": (*Instance).UseBalancedTopology,
		"skew":     func(in *Instance) error { return in.UseSkewGuidedTopology(inf) },
		"skew-0":   func(in *Instance) error { return in.UseSkewGuidedTopology(0) },
		"custom":   func(in *Instance) error { return in.UseCustomTopology([]int{-1, 0, 0}) },
	}
	solves := map[string]func(in *Instance, b Bounds) error{
		"Solve": func(in *Instance, b Bounds) error {
			_, err := in.Solve(b, nil)
			return err
		},
		"SolveECO": func(in *Instance, b Bounds) error {
			_, err := in.SolveECO(b, nil)
			return err
		},
		"SolveElmore": func(in *Instance, b Bounds) error {
			_, err := in.SolveElmore(b, 0.1, 0.2, nil, nil)
			return err
		},
	}
	type tcase struct {
		name string
		run  func() error
	}
	var cases []tcase
	for _, p := range []Point{{nan, 0}, {0, nan}, {inf, 0}, {0, -inf}} {
		sinks := []Point{p, {1, 1}}
		cases = append(cases,
			tcase{fmt.Sprintf("NewInstance/sink(%g,%g)", p.X, p.Y), func() error {
				_, err := NewInstance(sinks)
				return err
			}},
			tcase{fmt.Sprintf("BoundedSkewBaseline/sink(%g,%g)", p.X, p.Y), func() error {
				_, err := BoundedSkewBaseline(sinks, inf, nil)
				return err
			}},
			tcase{fmt.Sprintf("ElmoreZeroSkew/sink(%g,%g)", p.X, p.Y), func() error {
				_, err := ElmoreZeroSkew(sinks, 0.1, 0.2, nil, nil)
				return err
			}})
		src := p
		for name, use := range topologies {
			cases = append(cases, tcase{fmt.Sprintf("%s/source(%g,%g)", name, p.X, p.Y), func() error {
				in, err := build(near, &src)
				if err != nil {
					return err
				}
				return use(in)
			}})
		}
		for name, solve := range solves {
			// The topology is chosen before the source is set, so only the
			// solve can see it.
			cases = append(cases, tcase{fmt.Sprintf("%s/source(%g,%g)", name, p.X, p.Y), func() error {
				in, err := build(near, nil)
				if err != nil {
					return err
				}
				if err := in.UseBalancedTopology(); err != nil {
					t.Fatal(err)
				}
				in.SetSource(src)
				return solve(in, Uniform(2, 0, inf))
			}})
		}
	}
	cases = append(cases,
		tcase{"NewInstance/overflowing-box", func() error {
			_, err := NewInstance(far)
			return err
		}},
		tcase{"BoundedSkewBaseline/overflowing-box", func() error {
			_, err := BoundedSkewBaseline(far, inf, nil)
			return err
		}},
		tcase{"ElmoreZeroSkew/overflowing-box", func() error {
			_, err := ElmoreZeroSkew(near, 0.1, 0.2, nil, &Point{-1e308, 1e308})
			return err
		}})
	for name, use := range topologies {
		cases = append(cases, tcase{name + "/source-overflows-box", func() error {
			in, err := build(far[:1], &far[1])
			if err != nil {
				return err
			}
			return use(in)
		}})
	}
	for _, name := range []string{"Solve", "SolveECO"} { // Elmore delay grows as length², so its lengths stay finite
		solve := solves[name]
		cases = append(cases, tcase{name + "/overflowing-optimum", func() error {
			in, err := build(near, nil)
			if err != nil {
				return err
			}
			if err := in.UseBalancedTopology(); err != nil {
				t.Fatal(err)
			}
			return solve(in, Uniform(2, 1e308, 1e308))
		}})
	}
	cases = append(cases, tcase{"Resolve/overflowing-optimum", func() error {
		in, err := build(near, nil)
		if err != nil {
			return err
		}
		if err := in.UseBalancedTopology(); err != nil {
			t.Fatal(err)
		}
		s, err := in.SolveECO(Uniform(2, 0, inf), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			if err := s.Retighten(i, 1e308, 1e308); err != nil {
				return err
			}
		}
		tr, err := s.Resolve()
		if err == nil && s.Tree() != tr {
			t.Fatal("Resolve returned a tree it did not keep")
		}
		return err
	}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				err = tc.run()
			}()
			if !errors.Is(err, ErrNotFinite) {
				t.Fatalf("err = %v, want ErrNotFinite", err)
			}
		})
	}
}

// TestHugeWindowsStall: window tops so large that the LP cannot resolve
// the net's distances return ErrStalled from Solve and SolveECO. So does
// a window [1575, 1e20] on three sinks and the source at one point, whose
// lower side the LP cannot hold: from Solve, and from a SolveECO session
// retightened to it, instead of a zero-cost tree that fails Verify.
func TestHugeWindowsStall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst, _ := NewInstance(randPoints(rng, 12))
	if err := inst.UseSkewGuidedTopology(0); err != nil {
		t.Fatal(err)
	}
	huge := Uniform(12, 0, 1e20)
	if _, err := inst.Solve(huge, nil); !errors.Is(err, ErrStalled) {
		t.Fatalf("Solve: err = %v, want ErrStalled", err)
	}
	if _, err := inst.SolveECO(huge, nil); !errors.Is(err, ErrStalled) {
		t.Fatalf("SolveECO: err = %v, want ErrStalled", err)
	}

	p := Point{5, 5}
	inst, _ = NewInstance([]Point{p, p, p})
	inst.SetSource(p)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	if tree, err := inst.Solve(Uniform(3, 1575, 1e20), nil); !errors.Is(err, ErrStalled) {
		t.Fatalf("unheld window: Solve: err = %v, tree %+v, want ErrStalled", err, tree)
	}
	s, err := inst.SolveECO(Uniform(3, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retighten(0, 1575, 1e20); err != nil {
		t.Fatal(err)
	}
	if tree, err := s.Resolve(); !errors.Is(err, ErrStalled) {
		t.Fatalf("unheld window: Resolve: err = %v, tree %+v, want ErrStalled", err, tree)
	}
}

// TestNonFiniteWindowsRejected: a NaN on either side of a delay window,
// or an infinite lower bound, is an error on every entry point — never a
// panic inside the engine, a spin to the round limit, or a nil error.
func TestNonFiniteWindowsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst, _ := NewInstance(randPoints(rng, 6))
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	windows := map[string][2]float64{
		"nan-lower": {math.NaN(), 1.2 * r},
		"nan-upper": {0.9 * r, math.NaN()},
		"inf-lower": {math.Inf(1), math.Inf(1)},
	}
	// with puts window w on sink 2 of an otherwise good window set.
	with := func(lo, hi float64, w [2]float64) Bounds {
		b := Uniform(6, lo, hi)
		b.Lower[2], b.Upper[2] = w[0], w[1]
		return b
	}
	solvers := map[string]func(w [2]float64) error{
		"Solve": func(w [2]float64) error {
			_, err := inst.Solve(with(0.9*r, 1.2*r, w), nil)
			return err
		},
		"SolveECO": func(w [2]float64) error {
			_, err := inst.SolveECO(with(0.9*r, 1.2*r, w), nil)
			return err
		},
		"SolveElmore": func(w [2]float64) error {
			_, err := inst.SolveElmore(with(0, 1e6, w), 0.1, 0.2, nil, nil)
			return err
		},
		"Retighten+Resolve": func(w [2]float64) error {
			s, err := inst.SolveECO(Uniform(6, 0.9*r, 1.2*r), nil)
			if err != nil {
				t.Fatalf("good window: %v", err)
			}
			if err := s.Retighten(2, w[0], w[1]); err != nil {
				return err
			}
			_, err = s.Resolve()
			return err
		},
	}
	for sname, solve := range solvers {
		for wname, w := range windows {
			t.Run(sname+"/"+wname, func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panicked: %v", p)
						}
					}()
					err = solve(w)
				}()
				if err == nil || !strings.Contains(err.Error(), "invalid window") {
					t.Fatalf("err = %v, want an invalid-window error", err)
				}
			})
		}
	}
}

func TestSolveElmoreFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sinks := randPoints(rng, 5)
	inst, _ := NewInstance(sinks)
	if err := inst.UseSkewGuidedTopology(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	// Loose Elmore caps around the unconstrained tree.
	unconstrained, err := inst.Solve(Uniform(5, 0, math.Inf(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = unconstrained
	caps := make([]float64, 5)
	for i := range caps {
		caps[i] = 0.5
	}
	tree, err := inst.SolveElmore(Uniform(5, 0, 1e6), 0.1, 0.2, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, d := range tree.SinkDelays {
		if d < 0 || d > 1e6 {
			t.Fatalf("Elmore delay %g out of window", d)
		}
	}
}

// TestSolveElmoreReportsSteinerRows: the Elmore SLP states every
// Steiner row of its pool, so its stats must count them like Solve's do —
// at least one, at most C(m,2) sink pairs plus m source rows.
func TestSolveElmoreReportsSteinerRows(t *testing.T) {
	const m = 6
	rng := rand.New(rand.NewSource(12))
	inst, _ := NewInstance(randPoints(rng, m))
	inst.SetSource(Point{50, -20})
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	tree, err := inst.SolveElmore(Uniform(m, 0, 1e9), 0.1, 0.2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Stats.SteinerRows; got <= 0 || got > m*(m-1)/2+m {
		t.Errorf("SteinerRows = %d, want in (0, %d]", got, m*(m-1)/2+m)
	}
}

// TestMalformedElmoreModelRejected: a non-finite or negative wire
// parasitic or sink load, or a sinkCap whose length is not the sink
// count, is an error on both Elmore entry points — never a panic, a
// silent zero-fill or truncation, or an infeasibility verdict.
func TestMalformedElmoreModelRejected(t *testing.T) {
	const m = 6
	rng := rand.New(rand.NewSource(12))
	sinks := randPoints(rng, m)
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	// loads gives every sink 0.5 except sink k, which gets v.
	loads := func(k int, v float64) []float64 {
		c := make([]float64, m)
		for i := range c {
			c[i] = 0.5
		}
		c[k] = v
		return c
	}
	type model struct {
		rw, cw  float64
		sinkCap []float64
	}
	models := map[string]model{
		"nan-rw":        {math.NaN(), 0.2, nil},
		"inf-rw":        {math.Inf(1), 0.2, nil},
		"negative-cw":   {0.1, -1, nil},
		"nan-load":      {0.1, 0.2, loads(2, math.NaN())},
		"negative-load": {0.1, 0.2, loads(2, -1)},
		"short-sinkcap": {0.1, 0.2, []float64{0.5}},
		"long-sinkcap":  {0.1, 0.2, make([]float64, m+5)},
	}
	solvers := map[string]func(md model) error{
		"SolveElmore": func(md model) error {
			_, err := inst.SolveElmore(Uniform(m, 0, 1e6), md.rw, md.cw, md.sinkCap, nil)
			return err
		},
		"ElmoreZeroSkew": func(md model) error {
			_, err := ElmoreZeroSkew(sinks, md.rw, md.cw, md.sinkCap, nil)
			return err
		},
	}
	for sname, solve := range solvers {
		for mname, md := range models {
			t.Run(sname+"/"+mname, func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panicked: %v", p)
						}
					}()
					err = solve(md)
				}()
				if err == nil || errors.Is(err, ErrInfeasible) {
					t.Fatalf("err = %v, want a model error", err)
				}
			})
		}
	}
}

func TestRoutesAndElongation(t *testing.T) {
	sinks := []Point{{0, 0}, {10, 0}}
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()                                 // 5
	tree, err := inst.Solve(Uniform(2, 2*r, 2*r), nil) // force elongation
	if err != nil {
		t.Fatal(err)
	}
	if tree.TotalElongation() <= 0 {
		t.Fatalf("expected elongation, got %g", tree.TotalElongation())
	}
	routes := tree.Routes()
	var total float64
	for k := 1; k < len(routes); k++ {
		for j := 1; j < len(routes[k]); j++ {
			total += Dist(routes[k][j-1], routes[k][j])
		}
	}
	if math.Abs(total-tree.Cost) > 1e-6*(1+tree.Cost) {
		t.Fatalf("routed length %g vs cost %g", total, tree.Cost)
	}
}

func TestWriteSVG(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sinks := randPoints(rng, 6)
	inst, _ := NewInstance(sinks)
	if err := inst.UseSkewGuidedTopology(3); err != nil {
		t.Fatal(err)
	}
	tree, err := inst.Solve(Uniform(6, 0, 2*inst.Radius()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Error("not an SVG document")
	}
	if strings.Count(out, "<rect") != 6 {
		t.Errorf("expected 6 sink markers, got %d", strings.Count(out, "<rect"))
	}
}

func TestSkewBoundsHelper(t *testing.T) {
	b := SkewBounds(3, 0.5, 2)
	for i := 0; i < 3; i++ {
		if b.Lower[i] != 1.5 || b.Upper[i] != 2 {
			t.Fatalf("window [%g,%g]", b.Lower[i], b.Upper[i])
		}
	}
}

func TestDistHelper(t *testing.T) {
	if Dist(Point{0, 0}, Point{3, 4}) != 7 {
		t.Error("Dist wrong")
	}
}

func TestRadiusWithoutTopology(t *testing.T) {
	inst, _ := NewInstance([]Point{{0, 0}, {10, 0}})
	if r := inst.Radius(); math.Abs(r-5) > 1e-12 {
		t.Fatalf("radius = %g, want 5", r)
	}
	inst.SetSource(Point{0, 10})
	if r := inst.Radius(); math.Abs(r-20) > 1e-12 {
		t.Fatalf("radius with source = %g, want 20", r)
	}
}

func TestSingleSinkWithSource(t *testing.T) {
	inst, _ := NewInstance([]Point{{3, 4}})
	inst.SetSource(Point{0, 0})
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	tree, err := inst.Solve(Uniform(1, 7, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Cost-7) > 1e-7 {
		t.Fatalf("cost = %g, want 7", tree.Cost)
	}
}

func TestElmoreZeroSkewFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sinks := randPoints(rng, 9)
	caps := make([]float64, 9)
	for i := range caps {
		caps[i] = 1 + rng.Float64()*3
	}
	tree, err := ElmoreZeroSkew(sinks, 0.1, 0.1, caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Skew > 1e-7*(1+tree.MaxDelay) {
		t.Fatalf("Elmore ZST skew %g", tree.Skew)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Cross-validation of the two Elmore-domain solvers: the SLP given a
// window around the exact-ZST delay, on the ZST's own topology, must stay
// feasible and within sight of the constructive tree's cost.
func TestElmoreSLPVsExactZST(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sinks := randPoints(rng, 7)
	zstTree, err := ElmoreZeroSkew(sinks, 0.05, 0.05, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := NewInstance(sinks)
	if err := inst.UseCustomTopology(zstTree.Parent); err != nil {
		t.Fatal(err)
	}
	d := zstTree.MaxDelay
	slp, err := inst.SolveElmore(Uniform(7, 0.95*d, 1.05*d), 0.05, 0.05, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range slp.SinkDelays {
		if sd < 0.95*d-1e-6*d || sd > 1.05*d+1e-6*d {
			t.Fatalf("SLP delay %g outside [%g, %g]", sd, 0.95*d, 1.05*d)
		}
	}
	if slp.Cost > 1.5*zstTree.Cost {
		t.Fatalf("SLP cost %g far above exact-ZST cost %g", slp.Cost, zstTree.Cost)
	}
}

func TestWriteJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sinks := randPoints(rng, 5)
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	tree, err := inst.Solve(Uniform(5, 0, 2*inst.Radius()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded TreeJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.NumSinks != 5 || decoded.Cost != tree.Cost || len(decoded.Routes) != len(tree.Parent) {
		t.Fatalf("round trip mismatch: %+v", decoded)
	}
	// Route polylines must sum to the tree cost.
	var total float64
	for _, route := range decoded.Routes {
		for j := 1; j < len(route); j++ {
			total += Dist(route[j-1], route[j])
		}
	}
	if math.Abs(total-tree.Cost) > 1e-6*(1+tree.Cost) {
		t.Fatalf("serialized routes sum to %g, cost %g", total, tree.Cost)
	}
}

// TestRetightenRejectsBadWindows pins the facade-level validation: a
// NaN or empty (l > u) window must error out of Solved.Retighten
// directly, before the warm engine sees the edit, and the session must
// stay usable afterwards.
func TestRetightenRejectsBadWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst, err := NewInstance(randPoints(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.UseSkewGuidedTopology(10); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	solved, err := inst.SolveECO(Uniform(10, 0.8*r, 1.3*r), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer solved.Close()
	for _, tc := range []struct {
		name string
		l, u float64
	}{
		{"nan lower", math.NaN(), 1.3 * r},
		{"nan upper", 0.8 * r, math.NaN()},
		{"empty", 1.3 * r, 0.8 * r},
	} {
		if err := solved.Retighten(0, tc.l, tc.u); err == nil {
			t.Errorf("%s: Retighten(0, %g, %g) accepted", tc.name, tc.l, tc.u)
		}
	}
	if err := solved.Retighten(-1, 0.8*r, 1.3*r); err == nil {
		t.Error("out-of-range sink accepted")
	}
	// The rejected edits must not have wedged the session.
	if err := solved.Retighten(0, 0.9*r, 1.3*r); err != nil {
		t.Fatalf("valid Retighten after rejections: %v", err)
	}
	if _, err := solved.Resolve(); err != nil {
		t.Fatalf("Resolve after rejected edits: %v", err)
	}
}
