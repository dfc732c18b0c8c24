package lubt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
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

func TestSolverOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sinks := randPoints(rng, 6)
	inst, _ := NewInstance(sinks)
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	r := inst.Radius()
	b := Uniform(6, 0.5*r, 1.5*r)
	sx, err := inst.Solve(b, &Options{Solver: "simplex"})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := inst.Solve(b, &Options{Solver: "ipm"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sx.Cost-ip.Cost) > 1e-3*(1+sx.Cost) {
		t.Fatalf("simplex %g vs ipm %g", sx.Cost, ip.Cost)
	}
	for _, solver := range []string{"nope", "densesimplex"} {
		if _, err := inst.Solve(b, &Options{Solver: solver}); err == nil {
			t.Errorf("unknown solver %q accepted", solver)
		}
	}
	if _, err := inst.Solve(b, &Options{Placement: "bogus"}); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := inst.Solve(b, &Options{Placement: "center"}); err != nil {
		t.Errorf("center placement failed: %v", err)
	}
	full, err := inst.Solve(b, &Options{FullMatrix: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Cost-sx.Cost) > 1e-5*(1+sx.Cost) {
		t.Fatalf("full matrix %g vs rowgen %g", full.Cost, sx.Cost)
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
// at least one, at most C(m,2) sink pairs plus m source rows — on both
// the persistent-engine path and the cold-solver path.
func TestSolveElmoreReportsSteinerRows(t *testing.T) {
	const m = 6
	rng := rand.New(rand.NewSource(12))
	inst, _ := NewInstance(randPoints(rng, m))
	inst.SetSource(Point{50, -20})
	if err := inst.UseBalancedTopology(); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"", "coldsimplex"} {
		tree, err := inst.SolveElmore(Uniform(m, 0, 1e9), 0.1, 0.2, nil, &Options{Solver: solver})
		if err != nil {
			t.Fatalf("solver %q: %v", solver, err)
		}
		if got := tree.Stats.SteinerRows; got <= 0 || got > m*(m-1)/2+m {
			t.Errorf("solver %q: SteinerRows = %d, want in (0, %d]", solver, got, m*(m-1)/2+m)
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
