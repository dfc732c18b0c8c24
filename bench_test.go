package lubt

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§8) as Go benchmarks, one per exhibit, plus the ablation
// benches called out in DESIGN.md. Costs are attached to the benchmark
// output via ReportMetric so `go test -bench` output doubles as the
// experiment log; cmd/lubtbench prints the same data as formatted tables.
//
// Scaled benchmark instances run by default; set LUBT_FULL=1 for the
// published sink counts (much slower on the wide-window rows).

import (
	"fmt"
	"math"
	"os"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/core"
	"lubt/internal/experiments"
	"lubt/internal/geom"
	"lubt/internal/lp"
	"lubt/internal/wkld"
)

func fullSize() bool { return os.Getenv("LUBT_FULL") == "1" }

// BenchmarkTable1 regenerates Table 1: baseline [9]-style routing vs LUBT
// across the paper's eight skew bounds, per benchmark circuit. The
// reported metrics are the summed tree costs over all skew rows and the
// mean LUBT saving.
func BenchmarkTable1(b *testing.B) {
	for _, name := range experiments.TableBenches(fullSize()) {
		b.Run(name, func(b *testing.B) {
			var rows []experiments.Row1
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table1([]string{name}, experiments.Skews1)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportTable1(b, rows)
		})
	}
}

func reportTable1(b *testing.B, rows []experiments.Row1) {
	var baseSum, lubtSum, saving float64
	for _, r := range rows {
		baseSum += r.BaseCost
		lubtSum += r.LubtCost
		saving += 1 - r.LubtCost/r.BaseCost
	}
	b.ReportMetric(baseSum, "basecost")
	b.ReportMetric(lubtSum, "lubtcost")
	b.ReportMetric(100*saving/float64(len(rows)), "%saving")
}

// BenchmarkTable2 regenerates Table 2: fixed skew bound, sliding delay
// windows (prim1 and prim2, skew bounds 0.3 and 0.5).
func BenchmarkTable2(b *testing.B) {
	for _, name := range experiments.TableBenches(fullSize())[:2] {
		b.Run(name, func(b *testing.B) {
			var rows []experiments.Row2
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table2([]string{name}, experiments.Skews2)
				if err != nil {
					b.Fatal(err)
				}
			}
			var sum float64
			for _, r := range rows {
				sum += r.Cost
			}
			b.ReportMetric(sum/float64(len(rows)), "meancost")
		})
	}
}

// BenchmarkTable3 regenerates Table 3: the eight [l, u] bound combinations
// per benchmark circuit.
func BenchmarkTable3(b *testing.B) {
	for _, name := range experiments.TableBenches(fullSize()) {
		b.Run(name, func(b *testing.B) {
			var rows []experiments.Row3
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table3([]string{name})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Cost, "tightcost")           // [0.99, 1]
			b.ReportMetric(rows[len(rows)-1].Cost, "loosecost") // [0, 2]
		})
	}
}

// BenchmarkFigure8 regenerates the Figure 8 trade-off curve (prim2).
func BenchmarkFigure8(b *testing.B) {
	name := experiments.TableBenches(fullSize())[1]
	var rows []experiments.FigRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure8(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "points")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		lo = math.Min(lo, r.Cost)
		hi = math.Max(hi, r.Cost)
	}
	b.ReportMetric(lo, "mincost")
	b.ReportMetric(hi, "maxcost")
}

// ablationInstance prepares a mid-sized solve shared by the ablation
// benches: prim1-scale topology with a half-radius tolerable-skew window.
func ablationInstance(b *testing.B) (*core.Instance, core.Bounds) {
	b.Helper()
	bench := wkld.MustGenerate("prim1-s")
	src := bench.Source
	radius := 0.0
	for _, s := range bench.Sinks {
		radius = math.Max(radius, geom.Dist(src, s))
	}
	base, err := bst.Route(bench.Sinks, 0.5*radius, &src)
	if err != nil {
		b.Fatal(err)
	}
	ci := &core.Instance{Tree: base.Tree, Source: &src,
		SinkLoc: make([]geom.Point, len(bench.Sinks)+1)}
	copy(ci.SinkLoc[1:], bench.Sinks)
	m := base.Tree.NumSinks
	cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		cb.U[i] = base.Stats.Max
		cb.L[i] = math.Max(0, cb.U[i]-0.5*radius)
	}
	return ci, cb
}

// BenchmarkAblationRowGen compares the §4.6 constraint reduction (row
// generation on the incremental dual simplex) against stating the full
// C(m,2) Steiner matrix upfront.
func BenchmarkAblationRowGen(b *testing.B) {
	ci, cb := ablationInstance(b)
	b.Run("rowgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Solve(ci, cb, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.SteinerRows), "rows")
		}
	})
	b.Run("fullmatrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Solve(ci, cb, &core.Options{FullMatrix: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.SteinerRows), "rows")
		}
	})
}

// BenchmarkAblationSolver compares the three LP engines on the same EBF
// instance: warm-started incremental dual simplex (default), cold
// two-phase primal simplex, and the interior-point method (the paper's
// LOQO stand-in).
func BenchmarkAblationSolver(b *testing.B) {
	ci, cb := ablationInstance(b)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ci, cb, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coldsimplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ci, cb, &core.Options{Solver: &lp.Simplex{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ipm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ci, cb, &core.Options{Solver: &lp.IPM{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlacement compares the two top-down placement policies
// of the embedding pass (§5): nearest-to-parent vs region center.
func BenchmarkAblationPlacement(b *testing.B) {
	bench := wkld.MustGenerate("prim1-s")
	sinks := make([]Point, len(bench.Sinks))
	for i, s := range bench.Sinks {
		sinks[i] = Point{X: s.X, Y: s.Y}
	}
	for _, policy := range []string{"nearest", "center"} {
		b.Run(policy, func(b *testing.B) {
			inst, err := NewInstance(sinks)
			if err != nil {
				b.Fatal(err)
			}
			inst.SetSource(Point{X: bench.Source.X, Y: bench.Source.Y})
			if err := inst.UseSkewGuidedTopology(0.5 * inst.Radius()); err != nil {
				b.Fatal(err)
			}
			r := inst.Radius()
			bounds := Uniform(len(sinks), 0.5*r, 1.1*r)
			var span float64
			for i := 0; i < b.N; i++ {
				tree, err := inst.Solve(bounds, &Options{Placement: policy})
				if err != nil {
					b.Fatal(err)
				}
				span = tree.TotalElongation()
			}
			b.ReportMetric(span, "snaking")
		})
	}
}

// BenchmarkBaselineRouter measures the [9]-style bounded-skew router on
// its own (topology generation + merge + embedding).
func BenchmarkBaselineRouter(b *testing.B) {
	bench := wkld.MustGenerate("prim2-s")
	src := bench.Source
	for i := 0; i < b.N; i++ {
		if _, err := bst.Route(bench.Sinks, 500, &src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeparationOracle measures one full O(m²) Steiner-violation scan
// at full prim2 size — the inner loop of the §4.6 constraint reduction.
func BenchmarkSeparationOracle(b *testing.B) {
	bench := wkld.MustGenerate("prim2")
	src := bench.Source
	base, err := bst.Route(bench.Sinks, math.Inf(1), &src)
	if err != nil {
		b.Fatal(err)
	}
	ci := &core.Instance{Tree: base.Tree, Source: &src,
		SinkLoc: make([]geom.Point, len(bench.Sinks)+1)}
	copy(ci.SinkLoc[1:], bench.Sinks)
	m := base.Tree.NumSinks
	cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		cb.U[i] = math.Inf(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Verify(ci, cb, base.E, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalability tracks how one LUBT solve scales with sink count
// on uniform instances (tolerable-skew window of half the radius). The
// reported rows metric shows the §4.6 reduction holding the generated
// Steiner rows near-linear in m while the full matrix would be C(m,2).
func BenchmarkScalability(b *testing.B) {
	for _, m := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			bench := wkld.Custom("scale", m, 17)
			src := bench.Source
			radius := 0.0
			for _, s := range bench.Sinks {
				radius = math.Max(radius, geom.Dist(src, s))
			}
			base, err := bst.Route(bench.Sinks, 0.5*radius, &src)
			if err != nil {
				b.Fatal(err)
			}
			ci := &core.Instance{Tree: base.Tree, Source: &src,
				SinkLoc: make([]geom.Point, m+1)}
			copy(ci.SinkLoc[1:], bench.Sinks)
			cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
			for i := 1; i <= m; i++ {
				cb.U[i] = base.Stats.Max
				cb.L[i] = math.Max(0, cb.U[i]-0.5*radius)
			}
			b.ResetTimer()
			var rows int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(ci, cb, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.Stats.SteinerRows
			}
			b.ReportMetric(float64(rows), "rows")
			b.ReportMetric(float64(m*(m-1)/2), "fullrows")
		})
	}
}
