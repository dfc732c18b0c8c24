package core

import (
	"math"
	"math/rand"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/delay"
	"lubt/internal/geom"
	"lubt/internal/topology"
	"lubt/internal/wkld"
)

// benchInstance routes the named workload with the [9]-style baseline at
// skew bound 0.1·radius and wraps it as a core instance with the paper's
// tolerable-skew window (same methodology as internal/experiments).
func benchInstance(tb testing.TB, name string) (*Instance, Bounds) {
	tb.Helper()
	b, err := wkld.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	radius := 0.0
	for _, s := range b.Sinks {
		radius = math.Max(radius, geom.Dist(b.Source, s))
	}
	base, err := bst.Route(b.Sinks, 0.1*radius, &b.Source)
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

// BenchmarkWarmResolve times the full §4.6 row-generation loop — the
// repeated warm re-solves after each cutting-plane batch — on the revised
// engine under Devex pricing. r4-s and r5-s are the degenerate-tie-heavy
// headline workloads. Dual pivot counts are reported per op so the
// wall-time and pivot trends can be read from one `go test -bench` run.
func BenchmarkWarmResolve(b *testing.B) {
	for _, name := range []string{"prim2-s", "r4-s", "r5-s"} {
		in, cb := benchInstance(b, name)
		b.Run(name, func(b *testing.B) {
			pivots := 0
			for i := 0; i < b.N; i++ {
				res, err := Solve(in, cb, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds == 0 {
					b.Fatal("no row-generation rounds")
				}
				pivots = res.Stats.LPIterations
			}
			b.ReportMetric(float64(pivots), "pivots/op")
		})
	}
}

// BenchmarkEcoResolve times the ECO edit loop on the tie-heavy headline
// workload: hold the r4-s solve open as a Session, retighten sink 1's
// window past its routed delay, and warm re-solve — against a fresh
// Solve of the same edited instance. The warm/cold pivot ratio is the
// number ci.sh gates (experiments.CheckEcoGate).
func BenchmarkEcoResolve(b *testing.B) {
	in, cb := benchInstance(b, "r4-s")
	radius := in.Radius()
	b.Run("warm", func(b *testing.B) {
		sess, err := NewSession(in, cb, nil)
		if err != nil {
			b.Fatal(err)
		}
		newL := sess.Result().Delays[1] + 0.05*radius
		newU := math.Max(cb.U[1], newL)
		b.ResetTimer()
		pivots := 0
		for i := 0; i < b.N; i++ {
			// Alternate between the retightened and the original window so
			// every iteration re-solves a real edit from the kept basis.
			l, u := newL, newU
			if i%2 == 1 {
				l, u = cb.L[1], cb.U[1]
			}
			if err := sess.Retighten(1, l, u); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Resolve(); err != nil {
				b.Fatal(err)
			}
			pivots = sess.ResolvePivots()
		}
		b.ReportMetric(float64(pivots), "pivots/op")
	})
	b.Run("cold", func(b *testing.B) {
		sess, err := NewSession(in, cb, nil)
		if err != nil {
			b.Fatal(err)
		}
		newL := sess.Result().Delays[1] + 0.05*radius
		eb := Bounds{L: append([]float64(nil), cb.L...), U: append([]float64(nil), cb.U...)}
		eb.L[1] = newL
		eb.U[1] = math.Max(cb.U[1], newL)
		b.ResetTimer()
		pivots := 0
		for i := 0; i < b.N; i++ {
			res, err := Solve(in, eb, nil)
			if err != nil {
				b.Fatal(err)
			}
			pivots = res.Stats.LPIterations
		}
		b.ReportMetric(float64(pivots), "pivots/op")
	})
}

// BenchmarkElmoreSLP times the Elmore sequential LP on its persistent
// warm engine. The instance is the unit-scale random family the Elmore
// tests use (the SLP's linearization is scale-sensitive; the clock
// benches' coordinate magnitudes belong to the linear-delay tables).
func BenchmarkElmoreSLP(b *testing.B) {
	const m = 20
	rng := rand.New(rand.NewSource(83))
	tree, err := topology.RandomBinary(rng, m, false)
	if err != nil {
		b.Fatal(err)
	}
	in := &Instance{Tree: tree, SinkLoc: make([]geom.Point, m+1)}
	for i := 1; i <= m; i++ {
		in.SinkLoc[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	mdl := delay.Elmore{Rw: 0.1, Cw: 0.1}
	unconstrained, err := Solve(in, UniformBounds(m, 0, math.Inf(1)), nil)
	if err != nil {
		b.Fatal(err)
	}
	dl := mdl.Delays(in.Tree, unconstrained.E)
	worst := 0.0
	for i := 1; i <= m; i++ {
		worst = math.Max(worst, dl[i])
	}
	eb := UniformBounds(m, worst, 3*worst)
	iters, pivots := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := SolveElmore(in, eb, &ElmoreOptions{Model: mdl})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		pivots = res.Stats.LPIterations
	}
	b.ReportMetric(float64(iters), "iters/op")
	b.ReportMetric(float64(pivots), "pivots/op")
}

// BenchmarkSeparationOracle times one separation round (window arm on,
// as in Solve) over the optimal edge vector of prim2-s, serial versus
// the striped worker pool.
func BenchmarkSeparationOracle(b *testing.B) {
	in, cb := benchInstance(b, "prim2-s")
	res, err := Solve(in, cb, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Shrink the edges slightly so the scan finds work to report instead
	// of exiting on the first comparison.
	e := make([]float64, len(res.E))
	for i, v := range res.E {
		e[i] = 0.95 * v
	}
	d := in.Tree.Delays(e)
	ps := newPresolve(in, &cb)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pool", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := ps.violatedPairs(d, 1e-9, 64, bc.workers); len(got) == 0 {
					b.Fatal("oracle found nothing")
				}
			}
		})
	}
}

// BenchmarkVerify times Verify's block enumeration against the pairwise
// LCA reference on the baseline trees of prim2-s and r4-s (150 and 475
// sinks, one Route) and r6-s (2 500 sinks, eight sectors), with open
// windows so that every sink pair is compared.
func BenchmarkVerify(b *testing.B) {
	for _, name := range []string{"prim2-s", "r4-s", "r6-s"} {
		gen, err := wkld.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		var base *bst.Result
		if name == "r6-s" {
			base, err = bst.RoutePartitioned(gen.Sinks, math.Inf(1), gen.Source, 8)
		} else {
			base, err = bst.Route(gen.Sinks, math.Inf(1), &gen.Source)
		}
		if err != nil {
			b.Fatal(err)
		}
		m := len(gen.Sinks)
		in := &Instance{Tree: base.Tree, SinkLoc: make([]geom.Point, m+1), Source: &gen.Source}
		copy(in.SinkLoc[1:], gen.Sinks)
		open := UniformBounds(m, 0, math.Inf(1))
		tol := 1e-5 * (1 + in.Radius())
		for _, v := range []struct {
			name   string
			verify func(*Instance, Bounds, []float64, float64) error
		}{{"block", Verify}, {"lca", verifyLCA}} {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := v.verify(in, open, base.E, tol); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
