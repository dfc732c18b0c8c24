package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"lubt/internal/lp"
)

// BenchSchema identifies the machine-readable per-benchmark record
// emitted by `lubtbench -json`. Bump the suffix on any breaking change
// to the BenchRecord shape; TestBenchJSONSchema pins the current one.
const BenchSchema = "lubt-bench/4"

// BenchRecord is one BENCH_<name>.json document: the instance identity
// plus one EngineRecord per engine configuration. Consumers must ignore
// unknown keys; producers must not remove or retype the ones below
// without bumping BenchSchema.
type BenchRecord struct {
	Schema  string `json:"schema"`
	Bench   string `json:"bench"`
	Sinks   int    `json:"sinks"`
	Repeats int    `json:"repeats"`
	// Radius is the instance's source-to-farthest-sink Manhattan
	// distance, the length scale every agreement tolerance in the
	// harness is expressed against (CheckPresolveGate accepts cost
	// disagreement up to 1e-6·radius).
	Radius  float64        `json:"radius"`
	Engines []EngineRecord `json:"engines"`
}

// EngineRecord is one engine's outcome on one benchmark: the solve's
// lp.Stats record, flattened into the row under its own JSON tags, plus
// what only the harness measures. The counters come from the first
// (deterministic) run; the embedded SeparationTime and SolveTime
// (sep_scan_ns, lp_solve_ns) and WallNS are medians over the record's
// Repeats runs.
type EngineRecord struct {
	Engine string  `json:"engine"`
	Cost   float64 `json:"cost"`
	lp.Stats
	// EcoPivots / EcoResolveMS record the single-sink ECO probe:
	// retighten sink 1's window past its routed delay on a held-open
	// session and re-solve warm from the kept basis (pivot count from the
	// first run, resolve time the median of repeats, in milliseconds).
	// Zero on every row but the sub-scale "revised" one.
	EcoPivots    int     `json:"eco_pivots"`
	EcoResolveMS float64 `json:"eco_resolve_ms"`
	WallNS       int64   `json:"wall_ns"`
	// WallP50MS/WallP99MS and LPSolveP50MS/LPSolveP99MS are nearest-rank
	// quantiles of the per-repeat wall and LP-solve times in milliseconds,
	// and PivotsP50/PivotsP99 the matching per-repeat pivot-count
	// quantiles (the solver is deterministic, so these collapse onto
	// LPIterations unless the lineup changes). With few repeats the p99 is
	// simply the worst observed run.
	WallP50MS    float64 `json:"wall_p50_ms"`
	WallP99MS    float64 `json:"wall_p99_ms"`
	LPSolveP50MS float64 `json:"lp_solve_p50_ms"`
	LPSolveP99MS float64 `json:"lp_solve_p99_ms"`
	PivotsP50    int     `json:"pivots_p50"`
	PivotsP99    int     `json:"pivots_p99"`
}

// durMS converts a duration to milliseconds for the *_ms JSON keys.
func durMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// BenchRecords runs the bench workload (0.1·radius skew window, the
// engine lineup picked by instance size) on every named benchmark and
// returns one BenchRecord per name, timings taken as the median of
// `repeats` runs (< 1 means 1).
func BenchRecords(names []string, repeats int) ([]BenchRecord, error) {
	if repeats < 1 {
		repeats = 1
	}
	var out []BenchRecord
	for _, name := range names {
		in, err := load(name)
		if err != nil {
			return nil, err
		}
		base, err := in.runBaseline(0.1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		l, u := windowFor(base, in.radius, 0.1)
		rec := BenchRecord{
			Schema:  BenchSchema,
			Bench:   name,
			Sinks:   len(in.bench.Sinks),
			Repeats: repeats,
			Radius:  in.radius,
		}
		for _, eng := range in.engines() {
			run, err := in.runRepeated(base, l, u, eng, repeats)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, eng.Label, err)
			}
			er := EngineRecord{
				Engine:       eng.Label,
				Cost:         run.res.Cost,
				Stats:        run.res.Stats,
				WallNS:       medianDuration(run.wall).Nanoseconds(),
				WallP50MS:    durMS(quantileDuration(run.wall, 0.5)),
				WallP99MS:    durMS(quantileDuration(run.wall, 0.99)),
				LPSolveP50MS: durMS(quantileDuration(run.lp, 0.5)),
				LPSolveP99MS: durMS(quantileDuration(run.lp, 0.99)),
				PivotsP50:    quantileInt(run.pivots, 0.5),
				PivotsP99:    quantileInt(run.pivots, 0.99),
			}
			er.SeparationTime = medianDuration(run.sep)
			er.SolveTime = medianDuration(run.lp)
			// The ECO probe holds a core.Session open, and sessions
			// always solve monolithically without the oracle's window
			// arm (restaging needs the full row universe live) — at
			// scale-class sizes that cold session solve would dwarf the
			// whole record, so the probe only runs below the scale
			// threshold.
			if eng.Label == "revised" && !in.scale() {
				er.EcoPivots, er.EcoResolveMS, err = in.runECO(base, l, u, repeats)
				if err != nil {
					return nil, fmt.Errorf("%s/%s eco: %w", name, eng.Label, err)
				}
			}
			rec.Engines = append(rec.Engines, er)
		}
		out = append(out, rec)
	}
	return out, nil
}

// WriteBenchJSON marshals one record as indented JSON (the BENCH_*.json
// file format).
func WriteBenchJSON(w io.Writer, rec BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// ValidateBenchJSON checks that data is a well-formed lubt-bench/4
// document: strict field set (unknown keys reject — catching producer
// drift), correct schema string, and the structural invariants a consumer
// relies on. It backs the ci.sh bench-smoke gate.
func ValidateBenchJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec BenchRecord
	if err := dec.Decode(&rec); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if rec.Schema != BenchSchema {
		return fmt.Errorf("bench json: schema %q, want %q", rec.Schema, BenchSchema)
	}
	if rec.Bench == "" {
		return fmt.Errorf("bench json: empty bench name")
	}
	if rec.Sinks <= 0 {
		return fmt.Errorf("bench json: sinks = %d", rec.Sinks)
	}
	if rec.Repeats < 1 {
		return fmt.Errorf("bench json: repeats = %d", rec.Repeats)
	}
	if len(rec.Engines) == 0 {
		return fmt.Errorf("bench json: no engine records")
	}
	for i, e := range rec.Engines {
		if e.Engine == "" {
			return fmt.Errorf("bench json: engines[%d]: empty engine name", i)
		}
		if e.Rounds < 1 {
			return fmt.Errorf("bench json: engines[%d]: rounds = %d", i, e.Rounds)
		}
		if len(e.ViolatedByRound) != e.Rounds {
			return fmt.Errorf("bench json: engines[%d]: %d violated_by_round entries for %d rounds",
				i, len(e.ViolatedByRound), e.Rounds)
		}
		if e.WallNS <= 0 {
			return fmt.Errorf("bench json: engines[%d]: wall_ns = %d", i, e.WallNS)
		}
		if e.Cost <= 0 {
			return fmt.Errorf("bench json: engines[%d]: cost = %g", i, e.Cost)
		}
		if e.WallP50MS < 0 || e.WallP99MS < e.WallP50MS {
			return fmt.Errorf("bench json: engines[%d]: wall quantiles p50=%g p99=%g", i, e.WallP50MS, e.WallP99MS)
		}
		if e.LPSolveP50MS < 0 || e.LPSolveP99MS < e.LPSolveP50MS {
			return fmt.Errorf("bench json: engines[%d]: lp-solve quantiles p50=%g p99=%g", i, e.LPSolveP50MS, e.LPSolveP99MS)
		}
		if e.PivotsP50 < 0 || e.PivotsP99 < e.PivotsP50 {
			return fmt.Errorf("bench json: engines[%d]: pivot quantiles p50=%d p99=%d", i, e.PivotsP50, e.PivotsP99)
		}
		if e.PresolvePrunedRows < 0 {
			return fmt.Errorf("bench json: engines[%d]: presolve_pruned_rows = %d", i, e.PresolvePrunedRows)
		}
		if e.Subtrees < 0 {
			return fmt.Errorf("bench json: engines[%d]: subtrees = %d", i, e.Subtrees)
		}
		if e.PeakRows < 0 {
			return fmt.Errorf("bench json: engines[%d]: peak_rows = %d", i, e.PeakRows)
		}
	}
	if rec.Radius < 0 {
		return fmt.Errorf("bench json: radius = %g", rec.Radius)
	}
	return nil
}

// CheckPresolveGate enforces the scale regression gate behind ci.sh's
// scale bench smoke: on a record that carries both the "revised" (auto
// decomposition) and "revised-monolithic" (decomposition off) engine
// rows, the separation oracle must have pruned a nonzero number of
// candidate Steiner rows, the decomposed solve's peak active-row count
// must not exceed the monolithic one, and the two optima must agree to
// 1e-6·radius — pruning and decomposition exist to cut memory and time,
// never to move the answer. Records without the ablation pair (the
// sub-scale lineup, hand-built ones) pass vacuously.
func CheckPresolveGate(rec BenchRecord) error {
	var auto, off *EngineRecord
	for i := range rec.Engines {
		switch rec.Engines[i].Engine {
		case "revised":
			auto = &rec.Engines[i]
		case "revised-monolithic":
			off = &rec.Engines[i]
		}
	}
	if auto == nil || off == nil {
		return nil
	}
	if auto.PresolvePrunedRows <= 0 {
		return fmt.Errorf("presolve gate: %s: auto row pruned %d rows — the window arm is not biting at scale",
			rec.Bench, auto.PresolvePrunedRows)
	}
	if auto.PeakRows > 0 && off.PeakRows > 0 && auto.PeakRows > off.PeakRows {
		return fmt.Errorf("presolve gate: %s: peak rows %d decomposed vs %d monolithic — decomposition grew the tableau",
			rec.Bench, auto.PeakRows, off.PeakRows)
	}
	tol := 1e-6 * rec.Radius
	if tol < 1e-6 {
		tol = 1e-6
	}
	if d := auto.Cost - off.Cost; d > tol || d < -tol {
		return fmt.Errorf("presolve gate: %s: cost %.10g decomposed vs %.10g monolithic (|Δ| = %g > %g) — decomposition moved the optimum",
			rec.Bench, auto.Cost, off.Cost, d, tol)
	}
	return nil
}

// WarmPivotDivisor is the warm-restart budget shared by every warm-vs-
// cold gate in the harness: a warm re-solve from a kept basis must take
// fewer than 1/WarmPivotDivisor (25%) of the cold solve's dual pivots.
// CheckEcoGate applies it to the lubtbench ECO probe; the lubtd service
// tests (internal/serve) apply it to cache-hit re-solves through
// CheckWarmPivots, so the CLI probe and the daemon share one threshold.
const WarmPivotDivisor = 4

// CheckWarmPivots enforces the WarmPivotDivisor budget on one measured
// warm/cold pivot pair; label names the probe in the error. A
// non-positive cold count passes vacuously (nothing was measured).
func CheckWarmPivots(label string, warm, cold int) error {
	if cold <= 0 {
		return nil
	}
	if warm*WarmPivotDivisor >= cold {
		return fmt.Errorf("%s: warm re-solve took %d pivots vs %d cold (≥%d%%) — restaging is not keeping the basis warm",
			label, warm, cold, 100/WarmPivotDivisor)
	}
	return nil
}

// CheckEcoGate enforces the warm-restart regression gate behind ci.sh's
// ECO smoke: on a record whose "revised" row carries a measured ECO probe
// (EcoResolveMS > 0), the warm re-solve after the single-sink retighten
// must pass CheckWarmPivots against the cold solve — restaging exists to
// make local edits cheap, so a warm count near the cold one means the
// basis or factorization is being thrown away on edit. Records without a
// probe (hand-built ones, non-revised-only lineups) pass vacuously.
func CheckEcoGate(rec BenchRecord) error {
	for i := range rec.Engines {
		e := &rec.Engines[i]
		if e.Engine != "revised" || e.EcoResolveMS <= 0 {
			continue
		}
		if err := CheckWarmPivots("eco gate: "+rec.Bench, e.EcoPivots, e.LPIterations); err != nil {
			return err
		}
	}
	return nil
}
