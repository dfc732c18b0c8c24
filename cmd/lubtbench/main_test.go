package main

import (
	"os"
	"path/filepath"
	"testing"

	"lubt/internal/experiments"
)

func TestRunSingleExhibits(t *testing.T) {
	// Table 2 on scaled benches is the fastest full exhibit; the heavier
	// ones are exercised by bench_test.go and the experiments package.
	if err := run(config{tableN: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := run(config{tableN: 7}); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run(config{figureN: 3}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunEngineStats(t *testing.T) {
	if err := run(config{stats: true, bench: "prim1-s", repeats: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestRunJSON drives the -json path end to end: one benchmark, one
// repeat, and the emitted BENCH_<name>.json must validate against the
// lubt-bench/3 schema.
func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	if err := run(config{json: true, bench: "prim1-s", repeats: 1, outdir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_prim1-s.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.ValidateBenchJSON(data); err != nil {
		t.Fatal(err)
	}
}
