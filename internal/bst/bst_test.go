package bst

import (
	"math"
	"math/rand"
	"testing"

	"lubt/internal/core"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/wkld"
)

func randSinks(rng *rand.Rand, m int) []geom.Point {
	s := make([]geom.Point, m)
	for i := range s {
		s[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return s
}

func TestRouteRespectsSkewBound(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(20)
		sinks := randSinks(rng, m)
		bound := rng.Float64() * 50
		var source *geom.Point
		if rng.Intn(2) == 0 {
			s := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			source = &s
		}
		res, err := Route(sinks, bound, source)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Stats.Skew > bound+1e-7 {
			t.Fatalf("trial %d: skew %g exceeds bound %g", trial, res.Stats.Skew, bound)
		}
		if err := embed.VerifyPlacement(res.Tree, sinkLocSlice(sinks), source, res.E, res.Placement, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func sinkLocSlice(sinks []geom.Point) []geom.Point {
	s := make([]geom.Point, len(sinks)+1)
	copy(s[1:], sinks)
	return s
}

func TestRouteZeroSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(12)
		sinks := randSinks(rng, m)
		res, err := Route(sinks, 0, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Stats.Skew > 1e-7 {
			t.Fatalf("trial %d: zero-skew tree has skew %g", trial, res.Stats.Skew)
		}
	}
}

func TestRouteInfiniteBoundCheapest(t *testing.T) {
	// Loosening the skew bound must never increase the tree cost on the
	// same instance (the trend of Table 1's columns).
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(12)
		sinks := randSinks(rng, m)
		prev := math.Inf(-1)
		// Costs for decreasing tightness (0 is tightest).
		var costs []float64
		for _, b := range []float64{0, 10, 50, math.Inf(1)} {
			res, err := Route(sinks, b, nil)
			if err != nil {
				t.Fatalf("trial %d bound %g: %v", trial, b, err)
			}
			costs = append(costs, res.Cost)
		}
		_ = prev
		// Greedy topologies differ per bound, so strict monotonicity can
		// break occasionally; require the loosest bound to be no worse
		// than the tightest.
		if costs[len(costs)-1] > costs[0]+1e-7 {
			t.Fatalf("trial %d: infinite-bound cost %g exceeds zero-skew cost %g",
				trial, costs[len(costs)-1], costs[0])
		}
	}
}

func TestRouteSingleSink(t *testing.T) {
	src := geom.Pt(0, 0)
	res, err := Route([]geom.Point{geom.Pt(3, 4)}, 0, &src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-7) > 1e-9 {
		t.Fatalf("cost = %g, want 7", res.Cost)
	}
	if _, err := Route([]geom.Point{geom.Pt(3, 4)}, 0, nil); err == nil {
		t.Error("single sink without source accepted")
	}
}

func TestRouteErrors(t *testing.T) {
	if _, err := Route(nil, 1, nil); err == nil {
		t.Error("no sinks accepted")
	}
	if _, err := Route(randSinks(rand.New(rand.NewSource(1)), 3), -1, nil); err == nil {
		t.Error("negative bound accepted")
	}
	// x + y overflows, so every merge sum is +Inf: an error, not a panic.
	if _, err := Route([]geom.Point{geom.Pt(-7, 1e308), geom.Pt(1e308, 1e308)}, math.Inf(1), nil); err == nil {
		t.Error("overflowing coordinates accepted")
	}
}

func TestRouteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	sinks := randSinks(rng, 15)
	a, err := Route(sinks, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(sinks, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Stats != b.Stats {
		t.Fatal("Route is not deterministic")
	}
}

func TestRouteSourceConnection(t *testing.T) {
	// Fixed source far from the sinks: every delay includes the trunk.
	src := geom.Pt(-100, 0)
	sinks := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	res, err := Route(sinks, 2, &src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Min < 100-1e-9 {
		t.Fatalf("min delay %g must include the 100-long trunk", res.Stats.Min)
	}
	if res.Stats.Skew > 2+1e-9 {
		t.Fatalf("skew %g exceeds 2", res.Stats.Skew)
	}
}

// The paper's central experiment (Table 1): on the baseline's own
// topology, with the baseline's own [shortest, longest] delays as the
// LUBT window, the LP never produces a more expensive tree (Theorem 4.2),
// and typically a cheaper one.
func TestLUBTNeverWorseThanBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(16)
		sinks := randSinks(rng, m)
		bound := rng.Float64() * 40
		res, err := Route(sinks, bound, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		in := &core.Instance{Tree: res.Tree, SinkLoc: sinkLocSlice(sinks)}
		b := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
		for i := 1; i <= m; i++ {
			b.L[i] = res.Stats.Min
			b.U[i] = res.Stats.Max
		}
		lub, err := core.Solve(in, b, nil)
		if err != nil {
			t.Fatalf("trial %d: LUBT on baseline topology: %v", trial, err)
		}
		if lub.Cost > res.Cost*(1+1e-9)+1e-7 {
			t.Fatalf("trial %d: LUBT cost %g exceeds baseline %g on the same topology",
				trial, lub.Cost, res.Cost)
		}
	}
}

// TestRouteSkewBindsExactly routes a net on which the skew bound binds
// exactly at a merge, where the wire split rounds to −2.3e-13 and must be
// clamped before it reaches the merge-region expansion. The route must
// stay within the bound, and the LP on its topology must solve and
// verify.
func TestRouteSkewBindsExactly(t *testing.T) {
	net := wkld.Custom("serve", 150, 4221486817386963450)
	src := net.Source
	r := 0.0
	for _, s := range net.Sinks {
		r = math.Max(r, geom.Dist(src, s))
	}
	bound := 0.1 * r
	res, err := Route(net.Sinks, bound, &src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Skew > bound+1e-9*r {
		t.Fatalf("skew %g exceeds bound %g", res.Stats.Skew, bound)
	}
	m := len(net.Sinks)
	in := &core.Instance{Tree: res.Tree, SinkLoc: sinkLocSlice(net.Sinks), Source: &src}
	b := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		b.L[i] = res.Stats.Min
		b.U[i] = res.Stats.Max
	}
	lub, err := core.Solve(in, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, b, lub.E, 1e-6*r); err != nil {
		t.Fatal(err)
	}
}
