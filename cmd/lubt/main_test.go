package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lubt/internal/obs"
	"lubt/internal/wkld"
)

func writeSinks(t *testing.T, dir string, count int) string {
	t.Helper()
	b := wkld.Custom("cli-test", count, 5)
	path := filepath.Join(dir, "sinks.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := b.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUniformBounds(t *testing.T) {
	dir := t.TempDir()
	in := writeSinks(t, dir, 10)
	svg := filepath.Join(dir, "out.svg")
	jsonOut := filepath.Join(dir, "out.json")
	err := run(runConfig{inPath: in, lower: 0.8, upper: 1.3, normalized: true,
		useSource: true, skewTopo: 0.5,
		svgPath: svg, jsonPath: jsonOut, showStats: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{svg, jsonOut} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v (%d bytes)", p, err, len(data))
		}
	}
	svgData, _ := os.ReadFile(svg)
	if !strings.HasPrefix(string(svgData), "<svg") {
		t.Error("svg output malformed")
	}
}

// TestRunTrace exercises the -trace path: the emitted file must be a
// lubt-trace/1 document rooted at "solve".
func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	in := writeSinks(t, dir, 8)
	tracePath := filepath.Join(dir, "trace.json")
	err := run(runConfig{inPath: in, lower: 0.8, upper: 1.3, normalized: true,
		useSource: true, skewTopo: 0.5, tracePath: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Root   struct {
			Name string `json:"name"`
		} `json:"root"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if doc.Schema != obs.TraceSchema || doc.Root.Name != "solve" {
		t.Fatalf("trace document = %+v", doc)
	}
}

func TestRunPerSinkBounds(t *testing.T) {
	dir := t.TempDir()
	in := writeSinks(t, dir, 4)
	boundsPath := filepath.Join(dir, "bounds.txt")
	content := "# per-sink windows\n0.9 1.3\n0.9 1.3\n1.0 1.4\n0 inf\n"
	if err := os.WriteFile(boundsPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{inPath: in, lower: 0, upper: math.Inf(1), normalized: true,
		useSource: true, skewTopo: math.Inf(1), boundsPath: boundsPath}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	in := writeSinks(t, dir, 4)
	if err := run(runConfig{inPath: filepath.Join(dir, "missing.txt"), upper: 1,
		skewTopo: math.Inf(1)}); err == nil {
		t.Error("missing input accepted")
	}
	// Infeasible window: upper bound below the radius (normalized 0.5).
	if err := run(runConfig{inPath: in, upper: 0.5, normalized: true, useSource: true,
		skewTopo: math.Inf(1)}); err == nil {
		t.Error("infeasible window accepted")
	}
	// Bounds file with wrong line count.
	boundsPath := filepath.Join(dir, "bounds.txt")
	os.WriteFile(boundsPath, []byte("0 inf\n"), 0o644)
	if err := run(runConfig{inPath: in, upper: math.Inf(1),
		skewTopo: math.Inf(1), boundsPath: boundsPath}); err == nil {
		t.Error("short bounds file accepted")
	}
	// Malformed bounds lines.
	for _, bad := range []string{"x y\n0 inf\n0 inf\n0 inf\n", "1\n2 3\n4 5\n6 7\n"} {
		os.WriteFile(boundsPath, []byte(bad), 0o644)
		if err := run(runConfig{inPath: in, upper: math.Inf(1),
			skewTopo: math.Inf(1), boundsPath: boundsPath}); err == nil {
			t.Errorf("malformed bounds %q accepted", bad)
		}
	}
}

func TestReadBoundsScaling(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.txt")
	os.WriteFile(path, []byte("1 2\n0.5 inf\n"), 0o644)
	b, err := readBounds(path, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower[0] != 10 || b.Upper[0] != 20 || b.Lower[1] != 5 || !math.IsInf(b.Upper[1], 1) {
		t.Fatalf("bounds = %+v", b)
	}
}
