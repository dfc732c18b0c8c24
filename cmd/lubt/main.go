// Command lubt routes one instance: it reads a sink list, builds a
// topology, solves the EBF linear program for the requested delay window,
// embeds the tree, and reports the result (optionally as SVG).
//
// Usage:
//
//	lubt -in sinks.txt -lower 0.8 -upper 1.2 [-skew-topology 0.4]
//	     [-normalized] [-use-source] [-solver simplex|coldsimplex|ipm]
//	     [-svg out.svg] [-stats] [-trace trace.json] [-eco]
//	     [-decompose on|off]
//
// Every solve runs the one separation oracle, which prunes the Steiner
// rows the delay windows imply (-stats reports them as presolve-pruned);
// -decompose overrides the automatic subtree decomposition, which
// engages from 2048 sinks when the source is fixed (-use-source).
//
// With -eco the solve is held open as an ECO session: after reporting the
// tree, sink 1's lower bound is retightened past its routed delay and the
// engine re-solves warm from the kept basis, printing the warm pivot
// count against the cold solve's.
//
// The input format is the one emitted by gensinks: one "x y" pair per
// line, optional "source x y" line, "#" comments. With -normalized,
// -lower/-upper are multiples of the instance radius (as in the paper's
// tables); otherwise they are absolute routing units.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"lubt"
	"lubt/internal/wkld"
)

func main() {
	var (
		inPath     = flag.String("in", "", "sink list file (default: stdin)")
		lower      = flag.Float64("lower", 0, "lower delay bound")
		upper      = flag.Float64("upper", math.Inf(1), "upper delay bound (default +inf)")
		normalized = flag.Bool("normalized", false, "interpret bounds as multiples of the radius")
		useSource  = flag.Bool("use-source", false, "pin the source to the file's source line")
		skewTopo   = flag.Float64("skew-topology", math.Inf(1), "skew bound guiding the topology generator")
		solver     = flag.String("solver", "simplex", "LP solver: simplex, coldsimplex or ipm")
		svgPath    = flag.String("svg", "", "write the routed tree as SVG to this file")
		jsonPath   = flag.String("json", "", "write the routed tree as JSON to this file")
		boundsPath = flag.String("bounds", "", "per-sink bounds file (one \"l u\" line per sink, overrides -lower/-upper)")
		stats      = flag.Bool("stats", false, "print LP engine statistics (pivots, rounds, fill-in, timings)")
		tracePath  = flag.String("trace", "", "write the solve span tree as JSON (schema lubt-trace/1) to this file")
		eco        = flag.Bool("eco", false, "ECO demo: retighten sink 1's window after solving and warm re-solve in place")
		decompose  = flag.String("decompose", "", "subtree decomposition with a fixed source: on, off or empty (auto from 2048 sinks)")
	)
	flag.Parse()
	cfg := runConfig{
		inPath: *inPath, lower: *lower, upper: *upper,
		normalized: *normalized, useSource: *useSource, skewTopo: *skewTopo,
		solver: *solver, svgPath: *svgPath, jsonPath: *jsonPath,
		boundsPath: *boundsPath, showStats: *stats, tracePath: *tracePath, eco: *eco,
		decompose: *decompose,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lubt:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags into run.
type runConfig struct {
	inPath                string
	lower, upper          float64
	normalized, useSource bool
	skewTopo              float64
	solver                string
	svgPath, jsonPath     string
	boundsPath            string
	showStats             bool
	tracePath             string
	eco                   bool
	decompose             string
}

func run(cfg runConfig) error {
	var bench *wkld.Benchmark
	var err error
	if cfg.inPath == "" {
		bench, err = wkld.Read(os.Stdin)
	} else {
		f, ferr := os.Open(cfg.inPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		bench, err = wkld.Read(f)
	}
	if err != nil {
		return err
	}

	sinks := make([]lubt.Point, len(bench.Sinks))
	for i, s := range bench.Sinks {
		sinks[i] = lubt.Point{X: s.X, Y: s.Y}
	}
	inst, err := lubt.NewInstance(sinks)
	if err != nil {
		return err
	}
	if cfg.useSource {
		inst.SetSource(lubt.Point{X: bench.Source.X, Y: bench.Source.Y})
	}
	if err := inst.UseSkewGuidedTopology(scaleBound(cfg.skewTopo, inst.Radius(), cfg.normalized)); err != nil {
		return err
	}
	r := inst.Radius()
	scale := 1.0
	if cfg.normalized {
		scale = r
	}
	var bounds lubt.Bounds
	l, u := cfg.lower*scale, cfg.upper
	if !math.IsInf(u, 1) {
		u *= scale
	}
	if cfg.boundsPath != "" {
		var err error
		bounds, err = readBounds(cfg.boundsPath, len(sinks), scale)
		if err != nil {
			return err
		}
		l, u = math.Inf(1), math.Inf(-1) // summary only
		for i := range bounds.Lower {
			l = math.Min(l, bounds.Lower[i])
			u = math.Max(u, bounds.Upper[i])
		}
	} else {
		bounds = lubt.Uniform(len(sinks), l, u)
	}
	opts := &lubt.Options{Solver: cfg.solver, Decompose: cfg.decompose}
	var traceFile *os.File
	if cfg.tracePath != "" {
		var err error
		traceFile, err = os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		opts.TraceJSON = traceFile
	}
	var tree *lubt.Tree
	var solved *lubt.Solved
	if cfg.eco {
		solved, err = inst.SolveECO(bounds, opts)
		if err != nil {
			return err
		}
		tree = solved.Tree()
	} else {
		tree, err = inst.Solve(bounds, opts)
		if err != nil {
			return err
		}
	}
	if err := tree.Verify(); err != nil {
		return fmt.Errorf("result failed verification: %w", err)
	}
	fmt.Printf("bench      %s (%d sinks)\n", bench.Name, len(sinks))
	fmt.Printf("radius     %.2f\n", r)
	fmt.Printf("window     [%.2f, %.2f]\n", l, u)
	fmt.Printf("cost       %.2f\n", tree.Cost)
	fmt.Printf("delays     [%.2f, %.2f]  skew %.2f\n", tree.MinDelay, tree.MaxDelay, tree.Skew)
	fmt.Printf("elongation %.2f\n", tree.TotalElongation())
	if cfg.eco {
		// Retighten sink 1 past its routed delay and re-solve warm from
		// the kept basis — the classic single-sink ECO edit. Raising a
		// lower bound is always satisfiable by elongating that sink's
		// leaf edge, so the demo never turns the instance infeasible.
		coldPivots := tree.Stats.LPIterations
		newL := tree.SinkDelays[0] + 0.05*r
		newU := math.Max(bounds.Upper[0], newL)
		if err := solved.Retighten(0, newL, newU); err != nil {
			return err
		}
		t0 := time.Now()
		tree, err = solved.Resolve()
		warmTime := time.Since(t0)
		if err != nil {
			return err
		}
		if err := tree.Verify(); err != nil {
			return fmt.Errorf("eco result failed verification: %w", err)
		}
		fmt.Println("--- eco: retighten sink 1, warm re-solve ---")
		fmt.Printf("window'    [%.2f, %.2f]\n", newL, newU)
		fmt.Printf("cost'      %.2f\n", tree.Cost)
		fmt.Printf("eco-pivots %d warm vs %d cold  (%v)\n",
			solved.ResolvePivots(), coldPivots, warmTime.Round(time.Microsecond))
		if err := solved.Close(); err != nil {
			return err
		}
	}
	if cfg.showStats {
		fmt.Println("--- lp stats ---")
		fmt.Println(tree.Stats)
	}
	if cfg.svgPath != "" {
		f, err := os.Create(cfg.svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tree.WriteSVG(f); err != nil {
			return err
		}
		fmt.Printf("svg        %s\n", cfg.svgPath)
	}
	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tree.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("json       %s\n", cfg.jsonPath)
	}
	if cfg.tracePath != "" {
		fmt.Printf("trace      %s\n", cfg.tracePath)
	}
	return nil
}

// readBounds parses a per-sink bounds file: one "l u" pair per line in
// sink order, "#" comments and blank lines ignored, "inf" accepted as an
// upper bound. Values are multiplied by scale (the radius when
// -normalized is set).
func readBounds(path string, m int, scale float64) (lubt.Bounds, error) {
	b := lubt.Bounds{}
	f, err := os.Open(path)
	if err != nil {
		return b, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return b, fmt.Errorf("%s:%d: expected \"l u\"", path, line)
		}
		var l float64
		if _, err := fmt.Sscanf(fields[0], "%g", &l); err != nil {
			return b, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		u := math.Inf(1)
		if fields[1] != "inf" {
			if _, err := fmt.Sscanf(fields[1], "%g", &u); err != nil {
				return b, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			u *= scale
		}
		b.Lower = append(b.Lower, l*scale)
		b.Upper = append(b.Upper, u)
	}
	if err := sc.Err(); err != nil {
		return b, err
	}
	if len(b.Lower) != m {
		return b, fmt.Errorf("%s: %d bound lines for %d sinks", path, len(b.Lower), m)
	}
	return b, nil
}

func scaleBound(b, radius float64, normalized bool) float64 {
	if math.IsInf(b, 1) || !normalized {
		return b
	}
	return b * radius
}
