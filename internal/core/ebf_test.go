package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/topology"
)

// fig3Instance reproduces the §4.5 example structure: 5 sinks, Steiner
// points 6,7,8, root 0 with subtrees {1,5} (via 6) and {2,{3,4}} (via 8,7),
// source position not given. Sink coordinates are ours (the paper's figure
// coordinates are not recoverable from the text), but the topology and the
// constraint structure are exactly the paper's.
func fig3Instance(t *testing.T) *Instance {
	t.Helper()
	tree := topology.MustNew([]int{-1, 6, 8, 7, 7, 6, 0, 8, 0}, 5)
	in := &Instance{
		Tree: tree,
		SinkLoc: []geom.Point{
			{},            // unused
			geom.Pt(0, 0), // s1
			geom.Pt(6, 0), // s2
			geom.Pt(8, 2), // s3
			geom.Pt(8, 0), // s4
			geom.Pt(0, 2), // s5
		},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func mustSolve(t *testing.T, in *Instance, b Bounds, opt *Options) *Result {
	t.Helper()
	res, err := Solve(in, b, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestPaperExample45(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius() // half the sink diameter
	if math.Abs(r-5) > 1e-12 {
		t.Fatalf("radius = %g, want 5", r)
	}
	// The paper uses lower bound 4 and upper bound 6; our radius is 5, so
	// the window [4, 6] brackets it just as in the paper ([4,6] around
	// radius with Eq. 4 satisfied: 6 ≥ 5).
	b := UniformBounds(5, 4, 6)
	res := mustSolve(t, in, b, nil)
	if err := Verify(in, b, res.E, 1e-6); err != nil {
		t.Fatalf("optimal solution fails verification: %v", err)
	}
	// Optimality against the full constraint matrix (all 10 Steiner rows).
	full := mustSolve(t, in, b, &Options{FullMatrix: true})
	if math.Abs(res.Cost-full.Cost) > 1e-6 {
		t.Fatalf("row generation %g vs full matrix %g", res.Cost, full.Cost)
	}
	// All delays within the window.
	for i := 1; i <= 5; i++ {
		if res.Delays[i] < 4-1e-9 || res.Delays[i] > 6+1e-9 {
			t.Fatalf("delay(s%d) = %g outside [4,6]", i, res.Delays[i])
		}
	}
}

func TestUnboundedDelayIsSteinerMinimum(t *testing.T) {
	// §4.3 first bullet: l=0, u=∞ reduces EBF to the optimal Steiner tree
	// under the topology. With sinks (0,0), (10,0), (5,5) and topology
	// ((1,2),3) the optimum is the RSMT cost 15.
	tree := topology.MustNew([]int{-1, 4, 4, 0, 0}, 3)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{},
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 5)}}
	b := UniformBounds(3, 0, math.Inf(1))
	res := mustSolve(t, in, b, nil)
	if math.Abs(res.Cost-15) > 1e-7 {
		t.Fatalf("Steiner cost = %g, want 15", res.Cost)
	}
}

func TestZeroSkewEquality(t *testing.T) {
	// §4.3 last bullet: l=u=radius is zero-skew routing.
	in := fig3Instance(t)
	r := in.Radius()
	b := UniformBounds(5, r, r)
	if !b.Equal() {
		t.Fatal("bounds not recognized as equalities")
	}
	res := mustSolve(t, in, b, nil)
	if err := Verify(in, b, res.E, 1e-6); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 1; i <= 5; i++ {
		lo = math.Min(lo, res.Delays[i])
		hi = math.Max(hi, res.Delays[i])
	}
	if hi-lo > 1e-7 {
		t.Fatalf("skew = %g, want 0", hi-lo)
	}
}

func TestFigure1Infeasible(t *testing.T) {
	// §3 / Fig. 1(a): a topology in which a sink is not a leaf can make the
	// bounds unsatisfiable. Source at (0,0) (given), sink s1 at (5,0) with
	// sink s2 at (1,0) hanging below it; upper bound 6: delay(s2) must be
	// ≥ dist(s0,s1)+dist(s1,s2) = 9 > 6.
	tree := topology.MustNew([]int{-1, 0, 1}, 2)
	src := geom.Pt(0, 0)
	in := &Instance{Tree: tree,
		SinkLoc: []geom.Point{{}, geom.Pt(5, 0), geom.Pt(1, 0)},
		Source:  &src}
	if tree.AllSinksAreLeaves() {
		t.Fatal("test bug: s1 must be a non-leaf sink")
	}
	b := UniformBounds(2, 0, 6)
	_, err := Solve(in, b, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestLemma31AlwaysFeasible(t *testing.T) {
	// Lemma 3.1: with all sinks leaves, any bounds satisfying Eq. (3)/(4)
	// admit a LUBT.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(10)
		withSource := rng.Intn(2) == 0
		tree, err := topology.RandomBinary(rng, m, withSource)
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
		for i := 1; i <= m; i++ {
			in.SinkLoc[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		if withSource {
			s := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			in.Source = &s
		}
		// Legal window: u ≥ max(dist(s0,·)) or radius; l random below u.
		r := in.Radius()
		u := r * (1 + rng.Float64()*2)
		l := u * rng.Float64()
		b := UniformBounds(m, l, u)
		res, err := Solve(in, b, nil)
		if err != nil {
			t.Fatalf("trial %d (m=%d src=%v): %v", trial, m, withSource, err)
		}
		if err := Verify(in, b, res.E, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRowGenerationMatchesFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		m := 3 + rng.Intn(12)
		tree, err := topology.RandomBinary(rng, m, false)
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
		for i := 1; i <= m; i++ {
			in.SinkLoc[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		}
		r := in.Radius()
		u := r * (1 + rng.Float64())
		l := u * rng.Float64() * 0.9
		b := UniformBounds(m, l, u)
		rg := mustSolve(t, in, b, nil)
		full := mustSolve(t, in, b, &Options{FullMatrix: true})
		if math.Abs(rg.Cost-full.Cost) > 1e-5*(1+full.Cost) {
			t.Fatalf("trial %d: rowgen %g vs full %g", trial, rg.Cost, full.Cost)
		}
		if rg.Stats.SteinerRows > full.Stats.SteinerRows {
			t.Fatalf("row generation used more rows (%d) than full matrix (%d)",
				rg.Stats.SteinerRows, full.Stats.SteinerRows)
		}
	}
}

func TestCostMonotoneInBounds(t *testing.T) {
	// Loosening the window can never increase the optimal cost.
	in := fig3Instance(t)
	r := in.Radius()
	prev := math.Inf(1)
	for _, width := range []float64{0, 0.5, 1, 2, 4} {
		b := UniformBounds(5, math.Max(0, r-width/2), r+width/2)
		res := mustSolve(t, in, b, nil)
		if res.Cost > prev+1e-7 {
			t.Fatalf("cost increased from %g to %g when loosening to width %g",
				prev, res.Cost, width)
		}
		prev = res.Cost
	}
}

func TestSimplexAndIPMAgreeOnEBF(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		m := 3 + rng.Intn(8)
		tree, err := topology.RandomBinary(rng, m, false)
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
		for i := 1; i <= m; i++ {
			in.SinkLoc[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
		}
		r := in.Radius()
		b := UniformBounds(m, 0.5*r, 1.5*r)
		sx := mustSolve(t, in, b, nil)
		ip := mustSolve(t, in, b, &Options{Solver: &lp.IPM{}})
		if math.Abs(sx.Cost-ip.Cost) > 1e-3*(1+sx.Cost) {
			t.Fatalf("trial %d: simplex %g vs ipm %g", trial, sx.Cost, ip.Cost)
		}
	}
}

func TestWeightedObjective(t *testing.T) {
	// §7 "different weights on edges": making one root edge expensive must
	// shift length to the cheaper side and never lower the weighted cost
	// below the uniform optimum's weighted value.
	in := fig3Instance(t)
	b := UniformBounds(5, 4, 6)
	uniform := mustSolve(t, in, b, nil)
	w := make([]float64, in.Tree.N())
	for i := range w {
		w[i] = 1
	}
	w[6] = 5 // edge from Steiner 6 to root
	weighted := mustSolve(t, in, b, &Options{Weights: w})
	if err := Verify(in, b, weighted.E, 1e-6); err != nil {
		t.Fatal(err)
	}
	var uniformWeighted float64
	for k := 1; k < in.Tree.N(); k++ {
		uniformWeighted += w[k] * uniform.E[k]
	}
	if weighted.Cost > uniformWeighted+1e-7 {
		t.Fatalf("weighted solve %g worse than uniform solution priced at %g",
			weighted.Cost, uniformWeighted)
	}
	if weighted.E[6] > uniform.E[6]+1e-9 {
		t.Logf("note: expensive edge did not shrink (%g vs %g)", weighted.E[6], uniform.E[6])
	}
}

func TestForcedZeroEdges(t *testing.T) {
	star, err := topology.Star(5, false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := star.SplitHighDegree()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, 6)}
	for i := 1; i <= 5; i++ {
		in.SinkLoc[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	r := in.Radius()
	b := UniformBounds(5, 0, 2*r)
	res := mustSolve(t, in, b, nil)
	for k := 1; k < tree.N(); k++ {
		if tree.ForcedZero[k] && math.Abs(res.E[k]) > 1e-9 {
			t.Fatalf("forced-zero edge %d has length %g", k, res.E[k])
		}
	}
	if err := Verify(in, b, res.E, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsValidation(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius()
	cases := []struct {
		l, u float64
		ok   bool
	}{
		{0, r * 2, true},
		{r, r, true},
		{-1, r, false},    // negative lower
		{r, r / 2, false}, // l > u
		{0, r / 2, false}, // u below radius (Eq. 4)
	}
	for i, c := range cases {
		err := UniformBounds(5, c.l, c.u).Validate(in)
		if (err == nil) != c.ok {
			t.Errorf("case %d [%g,%g]: err = %v, ok = %v", i, c.l, c.u, err, c.ok)
		}
	}
	// Wrong length.
	if err := UniformBounds(4, 0, r*2).Validate(in); err == nil {
		t.Error("mis-sized bounds accepted")
	}
}

func TestEq3ValidationWithSource(t *testing.T) {
	tree := topology.MustNew([]int{-1, 2, 0}, 1)
	src := geom.Pt(0, 0)
	in := &Instance{Tree: tree, SinkLoc: []geom.Point{{}, geom.Pt(10, 0)}, Source: &src}
	if err := UniformBounds(1, 0, 8).Validate(in); err == nil {
		t.Error("u=8 < dist 10 must violate Eq. 3")
	}
	if err := UniformBounds(1, 0, 12).Validate(in); err != nil {
		t.Errorf("u=12 rejected: %v", err)
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := (&Instance{}).Validate(); err == nil {
		t.Error("nil tree accepted")
	}
	tree := topology.MustNew([]int{-1, 0, 0}, 2)
	if err := (&Instance{Tree: tree, SinkLoc: make([]geom.Point, 2)}).Validate(); err == nil {
		t.Error("mis-sized sink locations accepted")
	}
}

func TestSolveWithSourceLocation(t *testing.T) {
	// A fixed source participates in Steiner separation: delays must cover
	// the physical source-sink distance.
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(8)
		tree, err := topology.RandomBinary(rng, m, true)
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
		for i := 1; i <= m; i++ {
			in.SinkLoc[i] = geom.Pt(rng.Float64()*30, rng.Float64()*30)
		}
		s := geom.Pt(rng.Float64()*30, rng.Float64()*30)
		in.Source = &s
		r := in.Radius()
		b := UniformBounds(m, 0, r*(1+rng.Float64()))
		res := mustSolve(t, in, b, nil)
		for i := 1; i <= m; i++ {
			if res.Delays[i] < in.Dist(0, i)-1e-6 {
				t.Fatalf("delay(s%d) = %g below source distance %g",
					i, res.Delays[i], in.Dist(0, i))
			}
		}
	}
}

func TestSkewWindow(t *testing.T) {
	b := SkewWindow(3, 0.5, 2)
	for i := 1; i <= 3; i++ {
		if b.L[i] != 1.5 || b.U[i] != 2 {
			t.Fatalf("window = [%g,%g]", b.L[i], b.U[i])
		}
	}
}
