// Command lubtbench regenerates the paper's evaluation: Tables 1–3 and
// Figure 8 (§8). By default it runs the scaled benchmark variants; -full
// uses the published sink counts (slower — minutes per wide-window row on
// the larger benchmarks).
//
// Usage:
//
//	lubtbench              # all tables and the figure, scaled benches
//	lubtbench -table 1     # just Table 1
//	lubtbench -figure 8    # just the Figure 8 curve
//	lubtbench -full        # full-size instances
//	lubtbench -stats       # LP engine statistics per engine row
//	lubtbench -json        # write BENCH_<name>.json records instead
//	lubtbench -json -bench prim1-s -repeats 5 -outdir out/
//
// -stats and -json run one engine row on each benchmark: "revised", the
// sparse boxed dual simplex with Devex pricing. With -json, one
// machine-readable BENCH_<name>.json file (schema "lubt-bench/3") is
// written per benchmark into -outdir (default "."). Each engine row is
// the solve's lp.Stats record (lubt.SolveStats) under its JSON tags,
// with median-of-repeats timings; see EXPERIMENTS.md for the field
// reference. -stats renders the same rows as a table. The "revised"
// row additionally carries the ECO probe (eco_pivots, eco_resolve_ms):
// the solve is held open as a session, sink 1's window is retightened
// past its routed delay, and the engine re-solves warm from the kept
// basis. ci.sh's bench smoke validates these files, gates the
// warm-vs-cold ECO ratio (experiments.CheckEcoGate), and requires
// every deterministic counter to match the committed BENCH_<name>.json
// baseline at the repo root.
//
// Scale-class benchmarks (r6-class and up, at least 2048 sinks — e.g.
// -bench r6-s) switch both the baseline and the lineup: the topology
// comes from the sector-partitioned router (8 angular sectors, so the
// root has independent branches), and the engine rows become "revised"
// (auto settings — dominance presolve plus parallel subtree
// decomposition) versus "revised-nopresolve" (both passes forced off),
// the before/after pair behind the presolve_pruned_rows, subtrees and
// peak_rows keys. ci.sh's scale smoke gates that record with
// experiments.CheckPresolveGate: presolve must prune rows, the
// decomposed peak row count must not exceed the monolithic one, and the
// two optima must agree to 1e-6·radius. The ECO probe is skipped at this
// size (sessions solve monolithically without presolve).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lubt/internal/experiments"
)

func main() {
	var (
		tableN   = flag.Int("table", 0, "run only this table (1, 2 or 3)")
		figureN  = flag.Int("figure", 0, "run only this figure (8)")
		full     = flag.Bool("full", false, "use full-size benchmark instances")
		stats    = flag.Bool("stats", false, "print LP engine statistics (one row per engine configuration) instead of the tables")
		jsonOut  = flag.Bool("json", false, "write per-benchmark BENCH_<name>.json records (schema lubt-bench/3: lp.Stats rows plus ECO probe and quantiles) instead of the tables")
		benchSel = flag.String("bench", "", "restrict -stats/-json to this one benchmark (e.g. prim1-s)")
		repeats  = flag.Int("repeats", experiments.DefaultRepeats, "timing repeats per solve; medians are reported")
		outdir   = flag.String("outdir", ".", "directory for -json output files")
	)
	flag.Parse()
	cfg := config{
		tableN: *tableN, figureN: *figureN, full: *full, stats: *stats,
		json: *jsonOut, bench: *benchSel, repeats: *repeats, outdir: *outdir,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lubtbench:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags into run.
type config struct {
	tableN, figureN int
	full, stats     bool
	json            bool
	bench           string
	repeats         int
	outdir          string
}

func run(cfg config) error {
	benches := experiments.TableBenches(cfg.full)
	if cfg.bench != "" {
		benches = []string{cfg.bench}
	}
	if cfg.json {
		return writeBenchJSON(benches, cfg.repeats, cfg.outdir)
	}
	if cfg.stats {
		t, err := experiments.EngineStatsN(benches, cfg.repeats)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		return nil
	}
	all := cfg.tableN == 0 && cfg.figureN == 0
	if cfg.tableN == 1 || all {
		rows, err := experiments.Table1(benches, experiments.Skews1)
		if err != nil {
			return err
		}
		experiments.RenderTable1(rows).Render(os.Stdout)
		fmt.Println()
	}
	if cfg.tableN == 2 || all {
		t2 := benches
		if len(t2) > 2 {
			t2 = t2[:2] // paper: prim1, prim2
		}
		rows, err := experiments.Table2(t2, experiments.Skews2)
		if err != nil {
			return err
		}
		experiments.RenderTable2(rows).Render(os.Stdout)
		fmt.Println()
	}
	if cfg.tableN == 3 || all {
		rows, err := experiments.Table3(benches)
		if err != nil {
			return err
		}
		experiments.RenderTable3(rows).Render(os.Stdout)
		fmt.Println()
	}
	if cfg.figureN == 8 || all {
		name := benches[0]
		if len(benches) > 1 {
			name = benches[1] // prim2 / prim2-s
		}
		rows, err := experiments.Figure8(name)
		if err != nil {
			return err
		}
		experiments.RenderFigure8(rows, name).Render(os.Stdout)
		fmt.Println()
	}
	if cfg.tableN != 0 && cfg.tableN > 3 || cfg.figureN != 0 && cfg.figureN != 8 {
		return fmt.Errorf("unknown table/figure: the paper has Tables 1-3 and Figure 8")
	}
	return nil
}

// writeBenchJSON emits one BENCH_<name>.json per benchmark into outdir.
func writeBenchJSON(benches []string, repeats int, outdir string) error {
	recs, err := experiments.BenchRecords(benches, repeats)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		path := filepath.Join(outdir, "BENCH_"+rec.Bench+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := experiments.WriteBenchJSON(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d engines, %d repeats)\n", path, len(rec.Engines), rec.Repeats)
	}
	return nil
}
