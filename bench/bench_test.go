package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"lubt"
	"lubt/internal/core"
	"lubt/internal/wkld"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against its limits and against
// the workload and metric tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 || len(doc.Paths) < 1 || len(doc.Paths) > 16 {
		t.Errorf("command %q / paths %q out of limits", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds || runSeconds > 60 {
		t.Errorf("run_seconds %d; want the program's run length %d, at most 60", doc.RunSeconds, runSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads; want 2–8 and the program's %d", n, len(workloads))
	}
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end / %d per-layer metrics out of limits", len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, tab := range []struct {
		doc  []metric
		spec []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(tab.doc) != len(tab.spec) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(tab.doc), len(tab.spec))
		}
		for i, m := range tab.doc {
			unique(m.Name)
			s := tab.spec[i]
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || bound != s.bound {
				t.Errorf("metric %d: BENCHMARK.json %+v (bound %g), program %+v", i, m, bound, s)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
			}
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range doc.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	if s, ok := specOf("setup_s"); !ok || s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s missing or not lower-is-better seconds")
	} else {
		for _, m := range endToEnd {
			if m.bound > s.bound {
				t.Errorf("%s has a larger bound than setup_s", m.name)
			}
		}
	}
}

// TestFlagsRefused checks that a run without a workload, or of another
// length than the fixed one, exits 2 without measuring.
func TestFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"--seed", "1"},
		{"--workload", "clock-mid", "--seconds", "5"},
		{"--workload", "nope"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want 2 and none", args, code, out.String())
		}
	}
}

// toyWorkloads are the workloads at toy size, run through the same code
// path; clock-scale keeps the size at which presolve and decomposition
// switch on.
var toyWorkloads = []struct {
	workload
	maxOps int
}{
	{workload{name: "clock-mid", clock: &clockConfig{
		sizes: []int{30, 40, 50}, widths: []float64{0.05, 0.1, 0.5}, warmup: 1, prefix: 3}}, 4},
	{workload{name: "clock-scale", clock: &clockConfig{
		sizes: []int{core.ScaleAutoSinks}, widths: []float64{0.1}, scale: true, prefix: 1}}, 1},
	{workload{name: "serve-warm", serve: &serveConfig{
		workers: 2, cacheSize: 16, nets: 3, sinks: 30, ecoFrac: 0.2, prefix: 20}}, 60},
	{workload{name: "serve-churn", serve: &serveConfig{
		workers: 1, cacheSize: 2, nets: 8, sinks: 30, prefix: 20}}, 60},
}

// TestSmoke runs every workload at toy size in both modes and checks the
// printed summary: every metric of the mode present with its unit, no
// failed op, and the property each workload exists to exercise.
func TestSmoke(t *testing.T) {
	if len(toyWorkloads) != len(workloads) {
		t.Fatalf("%d toy workloads for %d workloads", len(toyWorkloads), len(workloads))
	}
	for _, tw := range toyWorkloads {
		for _, trace := range []bool{false, true} {
			p := plan{seed: 1, deadline: time.Now().Add(time.Minute), trace: trace, setups: 1, maxOps: tw.maxOps}
			rec, err := measure(tw.workload, p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", tw.name, trace, err)
			}
			var out bytes.Buffer
			if err := rec.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			var sum summary
			if err := dec.Decode(&sum); err != nil {
				t.Fatalf("%s: last line: %v", tw.name, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed: %v",
					tw.name, trace, sum.Correct, sum.Failed, sum.Attempted, rec.firstErr)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", tw.name, trace, len(sum.Metrics), len(want))
			}
			for _, s := range want {
				v, ok := sum.Metrics[s.name]
				if !ok || v.Unit != s.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %+v, want a number in %s", tw.name, s.name, v, s.unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end %s = %g, want > 0", tw.name, s.name, v.Value)
				}
			}
			if !trace {
				continue
			}
			val := func(name string) float64 { return sum.Metrics[name].Value }
			if f := val("failed_frac"); f != 0 {
				t.Errorf("%s: failed_frac %g", tw.name, f)
			}
			for _, name := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "cpu_ms_per_op"} {
				if !(val(name) > 0) {
					t.Errorf("%s: %s = %g, want > 0", tw.name, name, val(name))
				}
			}
			switch tw.name {
			case "clock-scale":
				if s := val("core.subtrees"); s != 8 {
					t.Errorf("clock-scale: core.subtrees %g, want 8", s)
				}
			case "serve-warm":
				if r := val("serve.cache_hit_ratio"); r < 0.95 {
					t.Errorf("serve-warm: hit ratio %g, want ≥ 0.95", r)
				}
			case "serve-churn":
				if e := val("serve.evictions"); !(e > 0) {
					t.Errorf("serve-churn: evictions %g, want > 0", e)
				}
			}
		}
	}
}

// TestPinR6S runs the clock-scale topology path on r6-s and checks it
// reproduces the revised row of the committed BENCH_r6-s.json: the same
// optimum within 1e-6 radii and the same presolve, decomposition and
// pivot counts.
func TestPinR6S(t *testing.T) {
	data, err := os.ReadFile("../BENCH_r6-s.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Radius  float64 `json:"radius"`
		Engines []struct {
			Engine             string  `json:"engine"`
			Cost               float64 `json:"cost"`
			Pivots             int     `json:"pivots"`
			PresolvePrunedRows int     `json:"presolve_pruned_rows"`
			Subtrees           int     `json:"subtrees"`
			PeakRows           int     `json:"peak_rows"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	want := rec.Engines[0]
	if want.Engine != "revised" {
		t.Fatalf("first engine row is %q, want revised", want.Engine)
	}

	gen := wkld.MustGenerate("r6-s")
	sinks := make([]lubt.Point, len(gen.Sinks))
	for i, s := range gen.Sinks {
		sinks[i] = lubt.Point(s)
	}
	src := lubt.Point(gen.Source)
	r := radius(sinks, src)
	if r != rec.Radius {
		t.Fatalf("radius %v, record %v", r, rec.Radius)
	}
	inst, err := lubt.NewInstance(sinks)
	if err != nil {
		t.Fatal(err)
	}
	inst.SetSource(src)
	upper, err := scaleTopology(inst, gen, 0.1*r)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := inst.Solve(lubt.Uniform(len(sinks), upper-0.1*r, upper), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats
	if d := math.Abs(tree.Cost - want.Cost); d > 1e-6*r {
		t.Errorf("cost %.6f, record %.6f", tree.Cost, want.Cost)
	}
	if st.PresolvePrunedRows != want.PresolvePrunedRows || st.Subtrees != want.Subtrees ||
		st.PeakRows != want.PeakRows || st.LPIterations != want.Pivots {
		t.Errorf("pruned %d subtrees %d peak rows %d pivots %d; record %d %d %d %d",
			st.PresolvePrunedRows, st.Subtrees, st.PeakRows, st.LPIterations,
			want.PresolvePrunedRows, want.Subtrees, want.PeakRows, want.Pivots)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestVerdict checks -compare's verdicts against a 10% bound on a
// lower-is-better metric, and the exact-count check.
func TestVerdict(t *testing.T) {
	lat := metricSpec{name: "latency_p50_ms", better: "lower", bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x + by
		}
		return out
	}
	pairs := func(a, b []float64) [][2]float64 {
		var p [][2]float64
		for i := range a {
			p = append(p, [2]float64{a[i], b[i]})
		}
		return p
	}
	wins := func(a, b []float64) int {
		n := 0
		for i := range a {
			if b[i] < a[i] {
				n++
			}
		}
		return n
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"regressed", steady, shift(steady, 15), "regressed"},
		{"improved", steady, shift(steady, -5), "improved"},
		{"within noise", steady, shift(steady, 1), "unchanged"},
		{"noisy parent", noisy, shift(noisy, 5), "unresolved"},
	} {
		if got := verdict(lat, false, c.a, c.b, pairs(c.a, c.b), wins(c.a, c.b)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	count := metricSpec{name: "lp.pivots", better: "lower", exact: exactOnClock}
	same := [][2]float64{{1140, 1140}, {980, 980}}
	if got := verdict(count, true, nil, nil, same, 0); got != "count same" {
		t.Errorf("equal counts: verdict %q", got)
	}
	if got := verdict(count, true, nil, nil, append(same, [2]float64{1000, 1001}), 0); got != "count moved" {
		t.Errorf("moved count: verdict %q", got)
	}
}

// TestSelfTime checks that a span's self time subtracts the union of its
// children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	s := &span{StartUS: 100, DurUS: 100, Children: []*span{
		{StartUS: 90, DurUS: 20},  // clipped to [100, 110)
		{StartUS: 105, DurUS: 10}, // overlaps the first: adds [110, 115)
		{StartUS: 150, DurUS: 80}, // clipped to [150, 200)
	}}
	if got := s.selfUS(); got != 35 {
		t.Errorf("self time %d µs, want 35", got)
	}
}
