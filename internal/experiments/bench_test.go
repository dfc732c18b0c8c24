package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lubt/internal/lp"
)

// TestBenchRecordsRoundTrip runs the smallest benchmark once and checks
// the record validates and carries sane engine data.
func TestBenchRecordsRoundTrip(t *testing.T) {
	recs, err := BenchRecords([]string{"prim1-s"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records for one benchmark", len(recs))
	}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if len(rec.Engines) != 1 || rec.Engines[0].Engine != "revised" {
		t.Fatalf("engines: %+v, want the one row revised", rec.Engines)
	}
	e := rec.Engines[0]
	if e.Cost <= 0 || e.LPIterations <= 0 || e.Rounds <= 0 || e.SteinerRows <= 0 {
		t.Errorf("empty counters: %+v", e)
	}
	// The revised row must carry a measured ECO probe and pass the warm
	// gate.
	if e.EcoResolveMS <= 0 {
		t.Errorf("revised row missing ECO probe: eco_resolve_ms = %g", e.EcoResolveMS)
	}
	if err := CheckEcoGate(rec); err != nil {
		t.Errorf("eco gate on prim1-s: %v", err)
	}
	// Quantiles come from real per-repeat samples: positive latency,
	// ordered, and (deterministic solver) pivot quantiles equal to the
	// first-run count.
	for _, e := range rec.Engines {
		if e.WallP50MS <= 0 || e.WallP99MS < e.WallP50MS {
			t.Errorf("%s: wall quantiles p50=%g p99=%g", e.Engine, e.WallP50MS, e.WallP99MS)
		}
		if e.LPSolveP50MS <= 0 || e.LPSolveP99MS < e.LPSolveP50MS {
			t.Errorf("%s: lp-solve quantiles p50=%g p99=%g", e.Engine, e.LPSolveP50MS, e.LPSolveP99MS)
		}
		if e.PivotsP50 != e.LPIterations || e.PivotsP99 != e.LPIterations {
			t.Errorf("%s: pivot quantiles p50=%d p99=%d, want both %d (deterministic solver)",
				e.Engine, e.PivotsP50, e.PivotsP99, e.LPIterations)
		}
	}
}

// TestBenchJSONSchema locks the lubt-bench/4 key set: any new, removed or
// renamed field must bump the schema version. lubt-bench/2 was the
// lubt-bench/1 set plus logical_rows, reset_reasons and violated_by_round,
// the lp.Stats fields the /1 rows did not copy; lubt-bench/3 is /2
// without pricing_scheme; lubt-bench/4 is /3 plus the LU work counters
// lu_nnz and solve_entries.
func TestBenchJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	err := WriteBenchJSON(&buf, BenchRecord{
		Schema: BenchSchema, Bench: "x", Sinks: 1, Repeats: 1,
		Engines: []EngineRecord{{Engine: "revised"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{"schema", "bench", "sinks", "repeats", "radius", "engines"}
	if len(top) != len(wantTop) {
		t.Errorf("top-level has %d keys, want %d", len(top), len(wantTop))
	}
	for _, k := range wantTop {
		if _, ok := top[k]; !ok {
			t.Errorf("missing top-level key %q", k)
		}
	}
	var engines []map[string]json.RawMessage
	if err := json.Unmarshal(top["engines"], &engines); err != nil {
		t.Fatal(err)
	}
	wantEng := []string{
		"engine", "cost", "rounds", "steiner_rows", "pivots", "bound_flips",
		"refactorizations", "resets", "basis_size", "fill_in", "lu_nnz", "solve_entries", "eta_len",
		"tableau_rows", "lowered_tableau_rows", "ranged_rows", "row_nonzeros",
		"numerical_residual", "pivot_min", "pivot_max",
		"devex_resets", "weight_min", "weight_max",
		"restages", "row_replacements", "eco_pivots", "eco_resolve_ms",
		"sep_scan_ns", "lp_solve_ns", "wall_ns",
		"wall_p50_ms", "wall_p99_ms", "lp_solve_p50_ms", "lp_solve_p99_ms",
		"pivots_p50", "pivots_p99",
		"presolve_pruned_rows", "subtrees", "peak_rows",
		"logical_rows", "reset_reasons", "violated_by_round",
	}
	if len(engines[0]) != len(wantEng) {
		t.Errorf("engine record has %d keys, want %d (schema drift — bump lubt-bench version)",
			len(engines[0]), len(wantEng))
	}
	for _, k := range wantEng {
		if _, ok := engines[0][k]; !ok {
			t.Errorf("missing engine key %q", k)
		}
	}
}

// TestValidateBenchJSONRejects exercises the validator's failure modes.
func TestValidateBenchJSONRejects(t *testing.T) {
	one := lp.Stats{Rounds: 1, ViolatedByRound: []int{0}}
	good := BenchRecord{
		Schema: BenchSchema, Bench: "x", Sinks: 4, Repeats: 1,
		Engines: []EngineRecord{{Engine: "revised", Stats: one, WallNS: 5, Cost: 1}},
	}
	encode := func(r BenchRecord) []byte {
		b, _ := json.Marshal(r)
		return b
	}
	if err := ValidateBenchJSON(encode(good)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := map[string]BenchRecord{}
	r := good
	r.Schema = "lubt-bench/0"
	cases["wrong schema"] = r
	r = good
	r.Bench = ""
	cases["empty bench"] = r
	r = good
	r.Engines = nil
	cases["no engines"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Stats: lp.Stats{Rounds: 0}, WallNS: 5, Cost: 1}}
	cases["zero rounds"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Stats: one, WallNS: 5, Cost: 1, WallP50MS: 2, WallP99MS: 1}}
	cases["wall p99 below p50"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Stats: one, WallNS: 5, Cost: 1, PivotsP50: 9, PivotsP99: 3}}
	cases["pivot p99 below p50"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Stats: lp.Stats{Rounds: 2, ViolatedByRound: []int{0}}, WallNS: 5, Cost: 1}}
	cases["trace shorter than rounds"] = r
	for name, rec := range cases {
		if err := ValidateBenchJSON(encode(rec)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := ValidateBenchJSON([]byte(`{"schema":"lubt-bench/4","surprise":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestBenchJSONFile validates an externally produced BENCH_*.json file
// named by LUBT_BENCH_JSON (skipped when unset). ci.sh uses this as the
// bench-smoke gate: it runs `lubtbench -json` and points this test at
// the output, so the CLI and the schema cannot drift apart.
func TestBenchJSONFile(t *testing.T) {
	benchJSONFromEnv(t)
}

// benchJSONFromEnv reads the record named by LUBT_BENCH_JSON, skipping
// the test when the variable is unset and failing it unless the file
// passes ValidateBenchJSON.
func benchJSONFromEnv(t *testing.T) BenchRecord {
	t.Helper()
	path := os.Getenv("LUBT_BENCH_JSON")
	if path == "" {
		t.Skip("LUBT_BENCH_JSON not set")
	}
	return readBenchJSON(t, path)
}

// readBenchJSON reads and validates one BENCH_*.json file.
func readBenchJSON(t *testing.T, path string) BenchRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var rec BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestBenchJSONEcoGate applies the warm-ECO pivot gate to an externally
// produced BENCH_*.json named by LUBT_BENCH_JSON (skipped when unset).
// ci.sh runs it after `lubtbench -json` on r4-s: the warm re-solve after
// a single-sink retighten must take fewer than 25% of the cold solve's
// pivots.
func TestBenchJSONEcoGate(t *testing.T) {
	if err := CheckEcoGate(benchJSONFromEnv(t)); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONPresolveGate applies the pruning/decomposition ablation
// gate to an externally produced BENCH_*.json named by LUBT_BENCH_JSON
// (skipped when unset). ci.sh runs it on the scale-class smoke instance
// after `lubtbench -json`: the window arm must prune rows, the
// decomposed peak row count must not exceed the monolithic one, and the
// two optima must agree to 1e-6·radius.
func TestBenchJSONPresolveGate(t *testing.T) {
	if err := CheckPresolveGate(benchJSONFromEnv(t)); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONMatchesBaseline compares the record named by
// LUBT_BENCH_JSON (skipped when unset) with the committed baseline
// BENCH_<bench>.json at the repo root. ci.sh runs it on the fresh
// prim1-s, r4-s and r6-s records: every deterministic counter must match,
// so a change that moves a pivot or a row re-pins the baselines in its
// own diff.
func TestBenchJSONMatchesBaseline(t *testing.T) {
	got := benchJSONFromEnv(t)
	base := readBenchJSON(t, filepath.Join("..", "..", "BENCH_"+got.Bench+".json"))
	for _, d := range baselineDrift(base, got) {
		t.Error(d)
	}
}

// baselineDrift lists every deterministic difference of got from base:
// the instance identity, the row order and engine labels, every int
// field and []int field of the row — the
// embedded lp.Stats counters (violated_by_round included), eco_pivots
// and pivots_p50/p99 — and the cost beyond 1e-6·radius. The timings are
// int64 nanoseconds or float milliseconds, so they are never compared.
func baselineDrift(base, got BenchRecord) []string {
	if base.Bench != got.Bench || base.Sinks != got.Sinks || base.Radius != got.Radius {
		return []string{fmt.Sprintf("instance %s/%d sinks/radius %v, baseline %s/%d/%v",
			got.Bench, got.Sinks, got.Radius, base.Bench, base.Sinks, base.Radius)}
	}
	label := func(r BenchRecord) (ls []string) {
		for _, e := range r.Engines {
			ls = append(ls, e.Engine)
		}
		return ls
	}
	if !reflect.DeepEqual(label(base), label(got)) {
		return []string{fmt.Sprintf("engine rows %v, baseline %v", label(got), label(base))}
	}
	tol := max(1e-6*base.Radius, 1e-6)
	var drift []string
	for i, b := range base.Engines {
		g := got.Engines[i]
		if d := math.Abs(g.Cost - b.Cost); d > tol {
			drift = append(drift, fmt.Sprintf("%s cost %.10g, baseline %.10g (|Δ| %g > %g)", b.Engine, g.Cost, b.Cost, d, tol))
		}
		drift = append(drift, intDrift(b.Engine, reflect.ValueOf(b), reflect.ValueOf(g))...)
	}
	return drift
}

// intDrift compares the int and []int fields of two structs of the same
// type, descending into embedded structs, and names each difference by
// its JSON key.
func intDrift(row string, b, g reflect.Value) []string {
	var drift []string
	for i := 0; i < b.NumField(); i++ {
		f := b.Type().Field(i)
		bf, gf := b.Field(i), g.Field(i)
		switch {
		case f.Anonymous:
			drift = append(drift, intDrift(row, bf, gf)...)
		case f.Type.Kind() == reflect.Int || f.Type == reflect.TypeOf([]int(nil)):
			if !reflect.DeepEqual(bf.Interface(), gf.Interface()) {
				drift = append(drift, fmt.Sprintf("%s %s = %v, baseline %v", row, f.Tag.Get("json"), gf, bf))
			}
		}
	}
	return drift
}

// TestBaselineDrift pins what the baseline gate compares: counters,
// per-round traces, the ECO probe and pivot quantiles, labels, row order
// and cost beyond tolerance drift; timings and in-tolerance cost noise
// do not.
func TestBaselineDrift(t *testing.T) {
	mk := func(mut func(*BenchRecord)) BenchRecord {
		rec := BenchRecord{
			Bench: "x", Sinks: 10, Radius: 1000,
			Engines: []EngineRecord{
				{Engine: "revised", Cost: 500, Stats: lp.Stats{
					Rounds: 3, LPIterations: 40,
					ViolatedByRound: []int{7, 2, 0}, SolveTime: time.Millisecond,
				}, EcoPivots: 4, WallNS: 9, PivotsP50: 40, PivotsP99: 40},
				{Engine: "revised-monolithic", Cost: 500},
			},
		}
		if mut != nil {
			mut(&rec)
		}
		return rec
	}
	base := mk(nil)
	same := map[string]func(*BenchRecord){
		"identical":            nil,
		"lp_solve_ns":          func(r *BenchRecord) { r.Engines[0].SolveTime = time.Second },
		"sep_scan_ns":          func(r *BenchRecord) { r.Engines[0].SeparationTime = time.Second },
		"wall_ns":              func(r *BenchRecord) { r.Engines[0].WallNS = 1e9 },
		"wall_p99_ms":          func(r *BenchRecord) { r.Engines[0].WallP99MS = 5 },
		"eco_resolve_ms":       func(r *BenchRecord) { r.Engines[0].EcoResolveMS = 5 },
		"repeats":              func(r *BenchRecord) { r.Repeats = 3 },
		"cost within 1e-6·R":   func(r *BenchRecord) { r.Engines[0].Cost += 9e-4 },
		"numerical_residual":   func(r *BenchRecord) { r.Engines[0].NumericalResidual = 1e-12 },
		"pivot_max (a float)":  func(r *BenchRecord) { r.Engines[0].PivotMax = 3 },
		"weight_max (a float)": func(r *BenchRecord) { r.Engines[0].WeightMax = 3 },
	}
	for name, mut := range same {
		if d := baselineDrift(base, mk(mut)); len(d) != 0 {
			t.Errorf("%s: drift reported: %v", name, d)
		}
	}
	differ := map[string]func(*BenchRecord){
		"pivots":              func(r *BenchRecord) { r.Engines[0].LPIterations++ },
		"rounds":              func(r *BenchRecord) { r.Engines[1].Rounds = 1 },
		"steiner_rows":        func(r *BenchRecord) { r.Engines[0].SteinerRows = 1 },
		"peak_rows":           func(r *BenchRecord) { r.Engines[0].PeakRows = 1 },
		"violated_by_round":   func(r *BenchRecord) { r.Engines[0].ViolatedByRound = []int{7, 3, 0} },
		"eco_pivots":          func(r *BenchRecord) { r.Engines[0].EcoPivots = 5 },
		"pivots_p99":          func(r *BenchRecord) { r.Engines[0].PivotsP99 = 41 },
		"engine label":        func(r *BenchRecord) { r.Engines[1].Engine = "monolithic" },
		"row order":           func(r *BenchRecord) { r.Engines[0], r.Engines[1] = r.Engines[1], r.Engines[0] },
		"missing row":         func(r *BenchRecord) { r.Engines = r.Engines[:1] },
		"cost beyond 1e-6·R":  func(r *BenchRecord) { r.Engines[0].Cost += 2e-3 },
		"sinks":               func(r *BenchRecord) { r.Sinks = 11 },
		"different benchmark": func(r *BenchRecord) { r.Bench = "y" },
	}
	for name, mut := range differ {
		if d := baselineDrift(base, mk(mut)); len(d) == 0 {
			t.Errorf("%s: no drift reported", name)
		}
	}
}

// TestCommittedBenchRecords checks the committed baselines at the repo
// root: every reference benchmark has one, and each file passes the
// schema validator and the ECO and presolve (scale) gates.
func TestCommittedBenchRecords(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, path := range paths {
		rec := readBenchJSON(t, path)
		if want := "BENCH_" + rec.Bench + ".json"; filepath.Base(path) != want {
			t.Errorf("%s holds the record of %s", path, want)
		}
		have[rec.Bench] = true
		for _, gate := range []func(BenchRecord) error{CheckEcoGate, CheckPresolveGate} {
			if err := gate(rec); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		}
	}
	for _, name := range []string{"prim1-s", "prim2-s", "r1-s", "r2-s", "r3-s", "r4-s", "r5-s", "r6-s"} {
		if !have[name] {
			t.Errorf("no committed baseline BENCH_%s.json", name)
		}
	}
}

// TestCheckPresolveGate exercises the scale gate's decision table on
// hand-built records.
func TestCheckPresolveGate(t *testing.T) {
	mk := func(mut func(*BenchRecord)) BenchRecord {
		rec := BenchRecord{
			Bench:  "x",
			Radius: 1000,
			Engines: []EngineRecord{
				{Engine: "revised", Cost: 500, Stats: lp.Stats{PresolvePrunedRows: 42, Subtrees: 8, PeakRows: 100}},
				{Engine: "revised-monolithic", Cost: 500, Stats: lp.Stats{PeakRows: 900}},
			},
		}
		if mut != nil {
			mut(&rec)
		}
		return rec
	}
	if err := CheckPresolveGate(mk(nil)); err != nil {
		t.Errorf("healthy record: %v", err)
	}
	// Costs differing within 1e-6·radius pass; beyond it fail.
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[0].Cost = 500 + 9e-4 })); err != nil {
		t.Errorf("in-tolerance cost drift: %v", err)
	}
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[0].Cost = 500 + 2e-3 })); err == nil {
		t.Error("out-of-tolerance cost drift accepted")
	}
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[0].PresolvePrunedRows = 0 })); err == nil {
		t.Error("zero pruned rows accepted")
	}
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[0].PeakRows = 1000 })); err == nil {
		t.Error("decomposed peak above monolithic peak accepted")
	}
	// Missing ablation pair → vacuous pass.
	if err := CheckPresolveGate(BenchRecord{Engines: []EngineRecord{{Engine: "revised"}}}); err != nil {
		t.Errorf("no pair: %v", err)
	}
	// Tiny radius: the tolerance floors at 1e-6 absolute.
	small := mk(func(r *BenchRecord) { r.Radius = 0; r.Engines[0].Cost = 500 + 1e-5 })
	if err := CheckPresolveGate(small); err == nil {
		t.Error("absolute-floor violation accepted at radius 0")
	}
}

// TestCheckEcoGate exercises the ECO gate's decision table on hand-built
// records.
func TestCheckEcoGate(t *testing.T) {
	mk := func(cold, warm int, ms float64) BenchRecord {
		return BenchRecord{
			Bench: "x",
			Engines: []EngineRecord{
				{Engine: "revised", Stats: lp.Stats{LPIterations: cold}, EcoPivots: warm, EcoResolveMS: ms},
				{Engine: "revised-monolithic"},
			},
		}
	}
	if err := CheckEcoGate(mk(100, 24, 1)); err != nil {
		t.Errorf("24%% warm: %v", err)
	}
	if err := CheckEcoGate(mk(100, 25, 1)); err == nil {
		t.Error("25%% warm accepted")
	}
	if err := CheckEcoGate(mk(100, 100, 1)); err == nil {
		t.Error("warm == cold accepted")
	}
	// No probe recorded (eco_resolve_ms 0) → vacuous pass.
	if err := CheckEcoGate(mk(100, 99, 0)); err != nil {
		t.Errorf("no probe: %v", err)
	}
	// No revised row → vacuous pass.
	if err := CheckEcoGate(BenchRecord{Engines: []EngineRecord{{Engine: "revised-monolithic"}}}); err != nil {
		t.Errorf("no revised row: %v", err)
	}
}

// TestCheckWarmPivots pins the shared warm-restart budget's decision
// table — the threshold both the lubtbench ECO gate and the lubtd
// service tests enforce.
func TestCheckWarmPivots(t *testing.T) {
	cases := []struct {
		name       string
		warm, cold int
		wantErr    bool
	}{
		{"well under budget", 11, 1665, false},
		{"just under 25%", 24, 100, false},
		{"exactly 25%", 25, 100, true},
		{"over budget", 99, 100, true},
		{"warm equals cold", 100, 100, true},
		{"zero warm", 0, 1, false},
		{"boundary 1 of 4", 1, 4, true},
		{"1 of 5", 1, 5, false},
		{"nothing measured", 7, 0, false},
		{"negative cold", 7, -3, false},
	}
	for _, c := range cases {
		err := CheckWarmPivots(c.name, c.warm, c.cold)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: warm=%d cold=%d: err=%v, wantErr=%v", c.name, c.warm, c.cold, err, c.wantErr)
		}
	}
}

// TestQuantileHelpers pins the nearest-rank quantile contract shared by
// the *_p50/_p99 bench keys: always an observed sample, q=0.5 agreeing
// with medianDuration, clamped at the extremes, inputs not mutated.
func TestQuantileHelpers(t *testing.T) {
	d := []time.Duration{40, 10, 30, 20}
	orig := append([]time.Duration(nil), d...)
	if got := quantileDuration(d, 0.5); got != medianDuration(d) {
		t.Errorf("quantileDuration(q=0.5) = %v, median = %v", got, medianDuration(d))
	}
	if got := quantileDuration(d, 0.99); got != 40 {
		t.Errorf("quantileDuration(q=0.99) = %v, want 40 (worst observed run)", got)
	}
	if got := quantileDuration(d, -1); got != 10 {
		t.Errorf("quantileDuration(q=-1) = %v, want min 10", got)
	}
	if got := quantileDuration(d, 2); got != 40 {
		t.Errorf("quantileDuration(q=2) = %v, want max 40", got)
	}
	if got := quantileDuration(nil, 0.5); got != 0 {
		t.Errorf("quantileDuration(empty) = %v, want 0", got)
	}
	for i := range orig {
		if d[i] != orig[i] {
			t.Fatalf("input mutated: %v, was %v", d, orig)
		}
	}
	// 100 samples 1..100: p50 is the 50th, p99 the 99th order statistic.
	var big []int
	for i := 100; i >= 1; i-- {
		big = append(big, i)
	}
	if got := quantileInt(big, 0.5); got != 50 {
		t.Errorf("quantileInt(1..100, 0.5) = %d, want 50", got)
	}
	if got := quantileInt(big, 0.99); got != 99 {
		t.Errorf("quantileInt(1..100, 0.99) = %d, want 99", got)
	}
	if got := quantileInt(nil, 0.9); got != 0 {
		t.Errorf("quantileInt(empty) = %d, want 0", got)
	}
}

// TestMedianDuration pins medianDuration's contract: empty → 0, one
// sample → itself, odd → middle, even → lower middle; input order is
// irrelevant and the input slice is not mutated.
func TestMedianDuration(t *testing.T) {
	cases := []struct {
		name string
		in   []time.Duration
		want time.Duration
	}{
		{"empty", nil, 0},
		{"empty non-nil", []time.Duration{}, 0},
		{"one", []time.Duration{7}, 7},
		{"two takes lower", []time.Duration{10, 20}, 10},
		{"two unsorted", []time.Duration{20, 10}, 10},
		{"three", []time.Duration{30, 10, 20}, 20},
		{"four takes lower middle", []time.Duration{40, 10, 30, 20}, 20},
		{"six bimodal reports a sample", []time.Duration{1, 1, 2, 100, 100, 100}, 2},
		{"duplicates", []time.Duration{5, 5, 5, 5}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := append([]time.Duration(nil), tc.in...)
			if got := medianDuration(tc.in); got != tc.want {
				t.Errorf("medianDuration(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range orig {
				if tc.in[i] != orig[i] {
					t.Fatalf("input mutated: %v, was %v", tc.in, orig)
				}
			}
		})
	}
}
