package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
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
	if len(rec.Engines) != 2 || rec.Engines[0].Engine != "revised" || rec.Engines[1].Engine != "revised-mv" {
		t.Fatalf("engines: %+v, want the two rows revised, revised-mv", rec.Engines)
	}
	// All engine rows must agree on the optimum.
	for _, e := range rec.Engines[1:] {
		a, b := rec.Engines[0].Cost, e.Cost
		if a <= 0 || b <= 0 || a/b > 1.001 || b/a > 1.001 {
			t.Errorf("engine costs disagree: %s %g vs %s %g",
				rec.Engines[0].Engine, a, e.Engine, b)
		}
	}
	for _, e := range rec.Engines {
		if e.Pivots <= 0 || e.Rounds <= 0 || e.SteinerRows <= 0 {
			t.Errorf("%s: empty counters: %+v", e.Engine, e)
		}
	}
	// Both rows must carry their pricing identity.
	if a, b := rec.Engines[0].PricingScheme, rec.Engines[1].PricingScheme; a != "devex" || b != "most-violated" {
		t.Errorf("pricing schemes: revised=%q revised-mv=%q, want devex and most-violated", a, b)
	}
	if err := CheckPivotGate(rec); err != nil {
		t.Errorf("pivot gate on prim1-s: %v", err)
	}
	// The revised row must carry a measured ECO probe and pass the warm
	// gate; the probe runs on that row only, so the other reports zeros.
	for _, e := range rec.Engines {
		if e.Engine == "revised" {
			if e.EcoResolveMS <= 0 {
				t.Errorf("revised row missing ECO probe: eco_resolve_ms = %g", e.EcoResolveMS)
			}
		} else if e.EcoPivots != 0 || e.EcoResolveMS != 0 {
			t.Errorf("%s reports an ECO probe (%d pivots, %g ms), want zeros",
				e.Engine, e.EcoPivots, e.EcoResolveMS)
		}
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
		if e.PivotsP50 != e.Pivots || e.PivotsP99 != e.Pivots {
			t.Errorf("%s: pivot quantiles p50=%d p99=%d, want both %d (deterministic solver)",
				e.Engine, e.PivotsP50, e.PivotsP99, e.Pivots)
		}
	}
}

// TestBenchJSONSchema locks the lubt-bench/1 key set: any new, removed or
// renamed field must bump the schema version.
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
		"refactorizations", "resets", "basis_size", "fill_in", "eta_len",
		"tableau_rows", "lowered_tableau_rows", "ranged_rows", "row_nonzeros",
		"numerical_residual", "pivot_min", "pivot_max",
		"pricing_scheme", "devex_resets", "weight_min", "weight_max",
		"restages", "row_replacements", "eco_pivots", "eco_resolve_ms",
		"sep_scan_ns", "lp_solve_ns", "wall_ns",
		"wall_p50_ms", "wall_p99_ms", "lp_solve_p50_ms", "lp_solve_p99_ms",
		"pivots_p50", "pivots_p99",
		"presolve_pruned_rows", "subtrees", "peak_rows",
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
	good := BenchRecord{
		Schema: BenchSchema, Bench: "x", Sinks: 4, Repeats: 1,
		Engines: []EngineRecord{{Engine: "revised", Rounds: 1, WallNS: 5, Cost: 1}},
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
	r.Engines = []EngineRecord{{Engine: "revised", Rounds: 0, WallNS: 5, Cost: 1}}
	cases["zero rounds"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Rounds: 1, WallNS: 5, Cost: 1, WallP50MS: 2, WallP99MS: 1}}
	cases["wall p99 below p50"] = r
	r = good
	r.Engines = []EngineRecord{{Engine: "revised", Rounds: 1, WallNS: 5, Cost: 1, PivotsP50: 9, PivotsP99: 3}}
	cases["pivot p99 below p50"] = r
	for name, rec := range cases {
		if err := ValidateBenchJSON(encode(rec)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := ValidateBenchJSON([]byte(`{"schema":"lubt-bench/1","surprise":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestBenchJSONFile validates an externally produced BENCH_*.json file
// named by LUBT_BENCH_JSON (skipped when unset). ci.sh uses this as the
// bench-smoke gate: it runs `lubtbench -json` and points this test at
// the output, so the CLI and the schema cannot drift apart.
func TestBenchJSONFile(t *testing.T) {
	path := os.Getenv("LUBT_BENCH_JSON")
	if path == "" {
		t.Skip("LUBT_BENCH_JSON not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONPivotGate applies the Devex-vs-most-violated pivot gate
// to an externally produced BENCH_*.json named by LUBT_BENCH_JSON
// (skipped when unset). ci.sh runs it on the reference instances after
// `lubtbench -json`, failing the smoke when Devex pricing pivots more
// than the most-violated baseline.
func TestBenchJSONPivotGate(t *testing.T) {
	path := os.Getenv("LUBT_BENCH_JSON")
	if path == "" {
		t.Skip("LUBT_BENCH_JSON not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var rec BenchRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if err := CheckPivotGate(rec); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONEcoGate applies the warm-ECO pivot gate to an externally
// produced BENCH_*.json named by LUBT_BENCH_JSON (skipped when unset).
// ci.sh runs it after `lubtbench -json` on r4-s: the warm re-solve after
// a single-sink retighten must take fewer than 25% of the cold solve's
// pivots.
func TestBenchJSONEcoGate(t *testing.T) {
	path := os.Getenv("LUBT_BENCH_JSON")
	if path == "" {
		t.Skip("LUBT_BENCH_JSON not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var rec BenchRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if err := CheckEcoGate(rec); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONPresolveGate applies the presolve/decomposition ablation
// gate to an externally produced BENCH_*.json named by LUBT_BENCH_JSON
// (skipped when unset). ci.sh runs it on the scale-class smoke instance
// after `lubtbench -json`: presolve must prune rows, the decomposed peak
// row count must not exceed the monolithic one, and the two optima must
// agree to 1e-6·radius.
func TestBenchJSONPresolveGate(t *testing.T) {
	path := os.Getenv("LUBT_BENCH_JSON")
	if path == "" {
		t.Skip("LUBT_BENCH_JSON not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var rec BenchRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if err := CheckPresolveGate(rec); err != nil {
		t.Fatal(err)
	}
}

// TestCheckPresolveGate exercises the presolve gate's decision table on
// hand-built records.
func TestCheckPresolveGate(t *testing.T) {
	mk := func(mut func(*BenchRecord)) BenchRecord {
		rec := BenchRecord{
			Bench:  "x",
			Radius: 1000,
			Engines: []EngineRecord{
				{Engine: "revised", Cost: 500, PresolvePrunedRows: 42, Subtrees: 8, PeakRows: 100},
				{Engine: "revised-nopresolve", Cost: 500, PeakRows: 900},
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
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[1].Subtrees = 3 })); err == nil {
		t.Error("leaking off switch accepted")
	}
	if err := CheckPresolveGate(mk(func(r *BenchRecord) { r.Engines[0].PeakRows = 1000 })); err == nil {
		t.Error("pruned peak above monolithic peak accepted")
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
				{Engine: "revised", Pivots: cold, EcoPivots: warm, EcoResolveMS: ms},
				{Engine: "revised-mv"},
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
	if err := CheckEcoGate(BenchRecord{Engines: []EngineRecord{{Engine: "revised-mv"}}}); err != nil {
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

// TestCheckPivotGate exercises the gate's decision table on hand-built
// records.
func TestCheckPivotGate(t *testing.T) {
	mk := func(devexPivots, mvPivots int) BenchRecord {
		return BenchRecord{
			Bench: "x",
			Engines: []EngineRecord{
				{Engine: "revised", PricingScheme: "devex", Pivots: devexPivots},
				{Engine: "revised-mv", PricingScheme: "most-violated", Pivots: mvPivots},
				{Engine: "revised-nopresolve"},
			},
		}
	}
	if err := CheckPivotGate(mk(10, 20)); err != nil {
		t.Errorf("devex better: %v", err)
	}
	if err := CheckPivotGate(mk(20, 20)); err != nil {
		t.Errorf("tie must pass: %v", err)
	}
	if err := CheckPivotGate(mk(21, 20)); err == nil {
		t.Error("devex regression accepted")
	}
	// Missing ablation pair → vacuous pass.
	if err := CheckPivotGate(BenchRecord{Engines: []EngineRecord{{Engine: "revised"}}}); err != nil {
		t.Errorf("no pair: %v", err)
	}
	// A mislabeled pricing scheme must be caught, not silently compared.
	bad := mk(10, 20)
	bad.Engines[0].PricingScheme = "most-violated"
	if err := CheckPivotGate(bad); err == nil {
		t.Error("mislabeled devex row accepted")
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
