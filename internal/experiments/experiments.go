package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"lubt/internal/bst"
	"lubt/internal/core"
	"lubt/internal/geom"
	"lubt/internal/table"
	"lubt/internal/wkld"
)

// TableBenches returns the four benchmark names of the paper's tables,
// scaled (-s) or full-size.
func TableBenches(full bool) []string {
	names := []string{"prim1", "prim2", "r1", "r3"}
	if full {
		return names
	}
	for i, n := range names {
		names[i] = n + "-s"
	}
	return names
}

// Skews1 are Table 1's skew bounds as fractions of the radius;
// math.Inf(1) is the ∞ row.
var Skews1 = []float64{0, 0.01, 0.05, 0.1, 0.5, 1, 2, math.Inf(1)}

// instance bundles a loaded benchmark with its radius.
type instance struct {
	bench  *wkld.Benchmark
	source geom.Point
	radius float64
}

func load(name string) (*instance, error) {
	b, err := wkld.Generate(name)
	if err != nil {
		return nil, err
	}
	inst := &instance{bench: b, source: b.Source}
	for _, s := range b.Sinks {
		inst.radius = math.Max(inst.radius, geom.Dist(inst.source, s))
	}
	return inst, nil
}

// scaleSectors is how many angular sectors the scale-class baseline
// router partitions the sinks into (see bst.RoutePartitioned): the
// sectored topology keeps the O(m²) cluster merge tractable at 10k+
// sinks and gives the root the independent branches the core's subtree
// decomposition solves in parallel.
const scaleSectors = 8

// scale reports whether the instance is in the scale regime where the
// harness switches to the sectored baseline and the reduced engine
// lineup (the same threshold at which core.Solve's auto settings turn
// presolve and decomposition on).
func (in *instance) scale() bool {
	return len(in.bench.Sinks) >= core.ScaleAutoSinks
}

// runBaseline routes the benchmark with the [9]-style router at skew
// bound skewFrac·radius. Scale-class instances route through the
// sector-partitioned variant instead: per-sector skew stays within
// bound, and the cross-sector spread is left to the LP window.
func (in *instance) runBaseline(skewFrac float64) (*bst.Result, error) {
	bound := skewFrac * in.radius
	if math.IsInf(skewFrac, 1) {
		bound = math.Inf(1)
	}
	if in.scale() {
		return bst.RoutePartitioned(in.bench.Sinks, bound, in.source, scaleSectors)
	}
	return bst.Route(in.bench.Sinks, bound, &in.source)
}

// runLUBT solves the EBF on the given topology with the absolute window
// [l, u] for every sink.
func (in *instance) runLUBT(base *bst.Result, l, u float64) (*core.Result, error) {
	return in.runLUBTOpts(base, l, u, nil)
}

// runLUBTOpts is runLUBT with explicit core options (engine selection).
func (in *instance) runLUBTOpts(base *bst.Result, l, u float64, opt *core.Options) (*core.Result, error) {
	ci := &core.Instance{
		Tree:    base.Tree,
		SinkLoc: make([]geom.Point, len(in.bench.Sinks)+1),
		Source:  &in.source,
	}
	copy(ci.SinkLoc[1:], in.bench.Sinks)
	m := base.Tree.NumSinks
	cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		cb.L[i] = l
		cb.U[i] = u
	}
	return core.Solve(ci, cb, opt)
}

// engineSpec is one configuration of the revised engine the stats/bench
// harness exercises; Label is the row key that reaches the tables and
// the lubt-bench/3 JSON. Presolve/Decompose override core.Solve's
// presolve and subtree-decomposition settings ("" = auto).
type engineSpec struct {
	Label     string
	Presolve  string
	Decompose string
}

// statEngines is the one engine row of `lubtbench -stats` / `-json` on
// sub-scale benchmarks: the revised dual simplex under its auto
// settings.
var statEngines = []engineSpec{{Label: "revised"}}

// scaleEngines is the lineup for scale-class benchmarks (at least
// core.ScaleAutoSinks sinks): the revised engine under the auto
// settings — presolve dominance pruning plus subtree decomposition —
// against the same engine with both passes forced off. That is the
// before/after ablation pair CheckPresolveGate compares.
var scaleEngines = []engineSpec{
	{Label: "revised"},
	{Label: "revised-nopresolve", Presolve: "off", Decompose: "off"},
}

// engines picks the engine lineup by instance size.
func (in *instance) engines() []engineSpec {
	if in.scale() {
		return scaleEngines
	}
	return statEngines
}

// EngineStatsN renders the BenchRecords rows as the `lubtbench -stats`
// table: the lp.Stats spine of every engine row side by side. The
// counters (pivots, rounds, rows, …) are deterministic and come from the
// first run; the sep-scan, lp-solve and wall timings are medians over
// `repeats` runs (< 1 means 1).
func EngineStatsN(names []string, repeats int) (*table.Table, error) {
	recs, err := BenchRecords(names, repeats)
	if err != nil {
		return nil, err
	}
	t := table.New("LP engine statistics (skew window 0.1·radius, median timings)",
		"bench", "engine", "rounds", "steiner", "pivots", "flips", "refactor",
		"basis", "fill-in", "rows", "lowered", "nnz", "sep-scan", "lp-solve", "wall")
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	for _, rec := range recs {
		for _, e := range rec.Engines {
			t.Addf(rec.Bench, e.Engine, e.Rounds, e.SteinerRows, e.LPIterations,
				e.BoundFlips, e.Refactorizations, e.BasisSize, e.FillIn,
				e.TableauRows, e.LoweredTableauRows, e.RowNonzeros,
				us(e.SeparationTime), us(e.SolveTime), us(time.Duration(e.WallNS)))
		}
	}
	return t, nil
}

// DefaultRepeats is how many times BenchRecords (and so `lubtbench
// -stats` and `-json`) repeats each solve before taking median timings.
const DefaultRepeats = 3

// repeatedRun is the outcome of solving one (bench, engine) pair several
// times: the (deterministic) first result plus per-run timing and pivot
// samples.
type repeatedRun struct {
	res           *core.Result
	wall, sep, lp []time.Duration
	pivots        []int
}

// runRepeated solves the instance `repeats` times with the given engine
// configuration and collects wall/separation/solve timings per run.
func (in *instance) runRepeated(base *bst.Result, l, u float64, eng engineSpec, repeats int) (*repeatedRun, error) {
	if repeats < 1 {
		repeats = 1
	}
	run := &repeatedRun{}
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		res, err := in.runLUBTOpts(base, l, u, &core.Options{Presolve: eng.Presolve, Decompose: eng.Decompose})
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if run.res == nil {
			run.res = res
		}
		run.wall = append(run.wall, wall)
		run.sep = append(run.sep, res.Stats.SeparationTime)
		run.lp = append(run.lp, res.Stats.SolveTime)
		run.pivots = append(run.pivots, res.Stats.LPIterations)
	}
	return run, nil
}

// runECO measures the single-sink retighten ECO probe on the restageable
// revised engine: hold the solve open as a core.Session, retighten sink
// 1's lower bound past its routed delay (always satisfiable — the sink's
// leaf edge can elongate), and re-solve warm from the kept basis. The
// pivot count comes from the first (deterministic) run; the resolve time
// is the median over `repeats` sessions, in milliseconds.
func (in *instance) runECO(base *bst.Result, l, u float64, repeats int) (pivots int, resolveMS float64, err error) {
	if repeats < 1 {
		repeats = 1
	}
	ci := &core.Instance{
		Tree:    base.Tree,
		SinkLoc: make([]geom.Point, len(in.bench.Sinks)+1),
		Source:  &in.source,
	}
	copy(ci.SinkLoc[1:], in.bench.Sinks)
	m := base.Tree.NumSinks
	cb := core.Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		cb.L[i] = l
		cb.U[i] = u
	}
	var times []time.Duration
	for r := 0; r < repeats; r++ {
		sess, err := core.NewSession(ci, cb, nil)
		if err != nil {
			return 0, 0, err
		}
		newL := sess.Result().Delays[1] + 0.05*in.radius
		newU := math.Max(u, newL)
		if err := sess.Retighten(1, newL, newU); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if _, err := sess.Resolve(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0))
		if r == 0 {
			pivots = sess.ResolvePivots()
		}
	}
	return pivots, float64(medianDuration(times).Nanoseconds()) / 1e6, nil
}

// medianDuration returns the median timing sample without mutating d.
// The contract, pinned by TestMedianDuration:
//
//   - empty input → 0 (a "no samples" sentinel, not a timing),
//   - one sample → that sample,
//   - odd count → the middle element of the sorted samples,
//   - even count → the LOWER of the two middle elements. The median is
//     always an observed run, never an interpolated mean — a bimodal
//     timing distribution reports a real sample from the faster mode
//     rather than a synthetic value between the modes.
func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// quantileRank maps quantile q over n samples to a 0-based nearest-rank
// index: ceil(q·n) − 1, clamped to [0, n−1]. Like medianDuration, the
// result always names an observed sample (never an interpolated value),
// and quantileRank(0.5, n) picks the same lower-middle element as the
// median for every n.
func quantileRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// quantileDuration returns the nearest-rank q-quantile of the timing
// samples without mutating d; empty input → 0, q ≤ 0 → the minimum,
// q ≥ 1 → the maximum.
func quantileDuration(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	slices.Sort(s)
	return s[quantileRank(q, len(s))]
}

// quantileInt is quantileDuration for integer samples (pivot counts).
func quantileInt(v []int, q float64) int {
	if len(v) == 0 {
		return 0
	}
	s := append([]int(nil), v...)
	slices.Sort(s)
	return s[quantileRank(q, len(s))]
}

// Row1 is one line of Table 1.
type Row1 struct {
	Bench     string
	SkewBound float64 // fraction of radius; +Inf for the ∞ row
	// Shortest and Longest are the LUBT tree's sink-delay extremes,
	// normalized to the radius (the paper's "shortest/longest delay").
	Shortest, Longest  float64
	BaseCost, LubtCost float64
}

// Table1 reproduces Table 1 on the given benchmarks.
func Table1(names []string, skews []float64) ([]Row1, error) {
	var rows []Row1
	for _, name := range names {
		in, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, s := range skews {
			base, err := in.runBaseline(s)
			if err != nil {
				return nil, fmt.Errorf("%s skew %g: %w", name, s, err)
			}
			l, u := windowFor(base, in.radius, s)
			res, err := in.runLUBT(base, l, u)
			if err != nil {
				return nil, fmt.Errorf("%s skew %g: %w", name, s, err)
			}
			lo, hi := sinkExtremes(base, res)
			rows = append(rows, Row1{
				Bench:     name,
				SkewBound: s,
				Shortest:  lo / in.radius,
				Longest:   hi / in.radius,
				BaseCost:  base.Cost,
				LubtCost:  res.Cost,
			})
		}
	}
	return rows, nil
}

// windowFor derives the absolute LUBT window from a baseline run at skew
// fraction s (see the methodology note in the package comment).
func windowFor(base *bst.Result, radius, s float64) (l, u float64) {
	if math.IsInf(s, 1) {
		return 0, math.Inf(1)
	}
	u = base.Stats.Max
	l = math.Max(0, u-s*radius)
	return l, u
}

func sinkExtremes(base *bst.Result, res *core.Result) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 1; i <= base.Tree.NumSinks; i++ {
		lo = math.Min(lo, res.Delays[i])
		hi = math.Max(hi, res.Delays[i])
	}
	return lo, hi
}

// RenderTable1 formats Table 1 like the paper's layout.
func RenderTable1(rows []Row1) *table.Table {
	t := table.New("Table 1: routing cost, baseline [9]-style vs LUBT (bounds normalized to radius)",
		"bench", "skew bound", "shortest", "longest", "base cost", "LUBT cost", "saving")
	for _, r := range rows {
		skew := fmt.Sprintf("%.3f", r.SkewBound)
		long := fmt.Sprintf("%.3f", r.Longest)
		if math.IsInf(r.SkewBound, 1) {
			skew, long = "inf", "inf"
		}
		saving := 1 - r.LubtCost/r.BaseCost
		t.Add(r.Bench, skew, fmt.Sprintf("%.3f", r.Shortest), long,
			fmt.Sprintf("%.1f", r.BaseCost), fmt.Sprintf("%.1f", r.LubtCost),
			fmt.Sprintf("%.1f%%", 100*saving))
	}
	return t
}

// Row2 is one line of Table 2: same skew bound, different delay windows.
type Row2 struct {
	Bench        string
	SkewBound    float64
	Lower, Upper float64 // normalized to radius
	Cost         float64
	Starred      bool // the window anchored at the baseline's own delays
}

// Skews2 are Table 2's skew bounds.
var Skews2 = []float64{0.3, 0.5}

// table2Shifts slides the window by these fractions of the radius
// relative to the baseline-anchored window (0 = the starred row).
// Downward slides clamp at the Eq. (3) floor (u ≥ radius); windows that
// clamp onto an already-emitted one are dropped.
// The starred shift runs first so that a downward slide clamping onto the
// anchored window is dropped rather than shadowing the star; rows are
// sorted by window position afterwards.
var table2Shifts = []float64{0, -0.1, -0.05, 0.1, 0.2}

// Table2 reproduces Table 2 on the given benchmarks (the paper uses prim1
// and prim2).
func Table2(names []string, skews []float64) ([]Row2, error) {
	var rows []Row2
	for _, name := range names {
		in, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, s := range skews {
			base, err := in.runBaseline(s)
			if err != nil {
				return nil, err
			}
			_, uStar := windowFor(base, in.radius, s)
			seen := map[int64]bool{}
			for _, shift := range table2Shifts {
				u := uStar + shift*in.radius
				if u < in.radius {
					// Eq. (3) requires u ≥ max source-sink distance.
					u = in.radius
				}
				key := int64(math.Round(u / in.radius * 1e6))
				if seen[key] {
					continue
				}
				seen[key] = true
				l := math.Max(0, u-s*in.radius)
				res, err := in.runLUBT(base, l, u)
				if err != nil {
					return nil, fmt.Errorf("%s skew %g shift %g: %w", name, s, shift, err)
				}
				rows = append(rows, Row2{
					Bench:     name,
					SkewBound: s,
					Lower:     l / in.radius,
					Upper:     u / in.radius,
					Cost:      res.Cost,
					Starred:   shift == 0,
				})
			}
			// Order the block by window position for readability.
			block := rows[len(rows)-len(seen):]
			sort.Slice(block, func(a, b int) bool { return block[a].Upper < block[b].Upper })
		}
	}
	return rows, nil
}

// RenderTable2 formats Table 2.
func RenderTable2(rows []Row2) *table.Table {
	t := table.New("Table 2: LUBT cost for the same skew bound but shifted delay windows (* = baseline-anchored)",
		"bench", "skew bound", "lower", "upper", "LUBT cost")
	for _, r := range rows {
		mark := ""
		if r.Starred {
			mark = "*"
		}
		t.Add(r.Bench, fmt.Sprintf("%.1f", r.SkewBound),
			fmt.Sprintf("%s%.2f", mark, r.Lower), fmt.Sprintf("%s%.2f", mark, r.Upper),
			fmt.Sprintf("%.1f", r.Cost))
	}
	return t
}

// Row3 is one line of Table 3.
type Row3 struct {
	Bench        string
	Lower, Upper float64 // normalized to radius
	Cost         float64
}

// windows3 are the paper's Table 3 bound combinations (×radius).
var windows3 = [][2]float64{
	{0.99, 1}, {0.98, 1}, {0.95, 1}, {0.9, 1},
	{0.5, 1}, {0, 1}, {0, 1.5}, {0, 2},
}

// Table3 reproduces Table 3 on the given benchmarks: assorted [l, u]
// windows useful for global routing (l = 0) and bounded-skew
// bounded-longest-delay routing.
func Table3(names []string) ([]Row3, error) {
	var rows []Row3
	for _, name := range names {
		in, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, w := range windows3 {
			l, u := w[0], w[1]
			// Topology from the generator at the corresponding skew bound,
			// matching the paper's use of [9] as topology generator.
			base, err := in.runBaseline(u - l)
			if err != nil {
				return nil, err
			}
			res, err := in.runLUBT(base, l*in.radius, u*in.radius)
			if err != nil {
				return nil, fmt.Errorf("%s [%g,%g]: %w", name, l, u, err)
			}
			rows = append(rows, Row3{Bench: name, Lower: l, Upper: u, Cost: res.Cost})
		}
	}
	return rows, nil
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Row3) *table.Table {
	t := table.New("Table 3: LUBT cost for various bound combinations (bounds normalized to radius)",
		"bench", "lower", "upper", "LUBT cost")
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprintf("%.2f", r.Lower), fmt.Sprintf("%.2f", r.Upper),
			fmt.Sprintf("%.1f", r.Cost))
	}
	return t
}

// FigRow is one point of the Figure 8 trade-off curve.
type FigRow struct {
	Lower, Upper float64 // normalized to radius
	Cost         float64
}

// Figure8 reproduces the prim2 cost-vs-bounds trade-off: for each upper
// bound the lower bound sweeps down from u, tracing cost against window
// position and width.
func Figure8(name string) ([]FigRow, error) {
	in, err := load(name)
	if err != nil {
		return nil, err
	}
	var rows []FigRow
	for _, u := range []float64{1.0, 1.25, 1.5, 2.0} {
		seen := map[int64]bool{}
		for _, width := range []float64{0, 0.25, 0.5, 1.0, u} {
			l := math.Max(0, u-width)
			key := int64(math.Round(l * 1e6))
			if seen[key] {
				continue
			}
			seen[key] = true
			base, err := in.runBaseline(u - l)
			if err != nil {
				return nil, err
			}
			res, err := in.runLUBT(base, l*in.radius, u*in.radius)
			if err != nil {
				return nil, fmt.Errorf("%s [%g,%g]: %w", name, l, u, err)
			}
			rows = append(rows, FigRow{Lower: l, Upper: u, Cost: res.Cost})
		}
	}
	return rows, nil
}

// RenderFigure8 formats the trade-off curve data.
func RenderFigure8(rows []FigRow, name string) *table.Table {
	t := table.New(fmt.Sprintf("Figure 8: cost vs [lower, upper] bounds trade-off (%s)", name),
		"lower", "upper", "LUBT cost")
	for _, r := range rows {
		t.Add(fmt.Sprintf("%.2f", r.Lower), fmt.Sprintf("%.2f", r.Upper),
			fmt.Sprintf("%.1f", r.Cost))
	}
	return t
}
