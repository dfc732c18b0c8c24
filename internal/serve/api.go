package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lubt"
	"lubt/internal/obs"
)

// PointJSON is a plane location on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// TopologySpec selects the routing topology for a solve request.
type TopologySpec struct {
	// Type is "skew" (default: the bounded-skew-guided generator, the
	// paper's §8 methodology), "balanced" (recursive bipartition) or
	// "custom" (caller-provided Parent vector).
	Type string `json:"type"`
	// SkewBound guides the "skew" generator; omitted/null means +inf (a
	// pure nearest-neighbour Steiner topology). Interpreted as a multiple
	// of the radius when the request is normalized.
	SkewBound *float64 `json:"skew_bound,omitempty"`
	// Parent is the "custom" topology as a parent vector: node 0 the
	// root, nodes 1…m the sinks in input order, higher ids Steiner
	// points. High-degree nodes are split server-side (Fig. 2), so the
	// resolved topology in the response may have more nodes.
	Parent []int `json:"parent,omitempty"`
}

// SolveRequest is the POST /solve body. Delay windows come either as
// per-sink arrays (lower/upper, indexed like sinks) or as a uniform
// window (lower_all/upper_all); an omitted upper — or any entry ≤ 0 —
// means unbounded (+inf; JSON has no infinity literal). With normalized
// set, every bound and the topology skew bound are multiples of the
// instance radius, as in the paper's tables.
type SolveRequest struct {
	Sinks      []PointJSON   `json:"sinks"`
	Source     *PointJSON    `json:"source,omitempty"`
	Topology   *TopologySpec `json:"topology,omitempty"`
	Lower      []float64     `json:"lower,omitempty"`
	Upper      []float64     `json:"upper,omitempty"`
	LowerAll   float64       `json:"lower_all,omitempty"`
	UpperAll   float64       `json:"upper_all,omitempty"`
	Normalized bool          `json:"normalized,omitempty"`
	// Weights are per-edge objective weights (§7), indexed by child node
	// id in the RESOLVED topology (length = node count; entry 0 unused);
	// nil means unit weights. The resolved parent vector is returned in
	// every response's tree.parent.
	Weights []float64 `json:"weights,omitempty"`
	// Cold bypasses the warm-basis cache: the solve runs on a fresh
	// instance and is not cached. Use for one-shot topology experiments
	// that should not displace warm sessions.
	Cold bool `json:"cold,omitempty"`
	// Trace captures a lubt-trace/1 span tree of the request lifecycle
	// (queue wait, build, solve) in the response.
	Trace bool `json:"trace,omitempty"`
}

// WindowEdit retightens one sink's delay window (sink indexed like the
// original request's sink array, 0-based). Upper ≤ 0 means +inf.
type WindowEdit struct {
	Sink  int     `json:"sink"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// WeightEdit reprices one edge (edge = child node id in the resolved
// topology).
type WeightEdit struct {
	Edge   int     `json:"edge"`
	Weight float64 `json:"weight"`
}

// EcoRequest is the POST /eco body: targeted edits against the warm
// session cached under Key (returned by a previous /solve). Bounds and
// weights are in absolute routing units — the ECO path has no
// normalized mode.
type EcoRequest struct {
	Key       string       `json:"key"`
	Retighten []WindowEdit `json:"retighten,omitempty"`
	Reweight  []WeightEdit `json:"reweight,omitempty"`
	Trace     bool         `json:"trace,omitempty"`
}

// SolveResponse is the success body of /solve and /eco.
type SolveResponse struct {
	// Key is the canonical topology key the request mapped to; feed it
	// to /eco for targeted warm edits.
	Key string `json:"key"`
	// Cache reports how the request was served: "miss" (cold solve, now
	// cached), "hit" (warm re-solve on the cached basis) or "bypass"
	// (cold, uncached).
	Cache string `json:"cache"`
	// Pivots is the dual-pivot count of THIS request's solve;
	// ColdPivots the cached session's original cold-solve count (equal
	// on a miss — their ratio is the warm-start amortization).
	Pivots     int `json:"pivots"`
	ColdPivots int `json:"cold_pivots"`
	// Rounds and Restages summarize the row-generation and restaging
	// work of this request. They are the only solver stats on the wire:
	// Tree serializes as lubt.TreeJSON, which carries none.
	Rounds   int `json:"rounds"`
	Restages int `json:"restages"`
	// Cost is the weighted wirelength; Radius the instance radius
	// (normalize bounds against it).
	Cost   float64 `json:"cost"`
	Radius float64 `json:"radius"`
	// Tree is the routed tree in the stable TreeJSON shape of the lubt
	// package (topology, edge lengths, locations, routes, delays).
	Tree *lubt.Tree `json:"tree"`
	// Trace is the lubt-trace/1 request span tree when Trace was set.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Error is a
// stable machine code ("bad_request", "infeasible", "unknown_key",
// "method_not_allowed", "unavailable", "internal"); Detail is
// human-readable and may change between versions.
type ErrorResponse struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
}

// httpError carries an error response through the handler plumbing.
type httpError struct {
	status int
	code   string
	detail string
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.detail) }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: 400, code: "bad_request", detail: fmt.Sprintf(format, args...)}
}

// badWindow is the 422 for a structurally malformed delay window (NaN,
// or lower > upper): the request parsed fine but can never be solved,
// mirroring the 422 used for infeasible instances. Validated at request
// decoding for both /solve and /eco so a bad window never reaches a
// solver — or worse, a cached warm engine.
func badWindow(format string, args ...any) *httpError {
	return &httpError{status: 422, code: "bad_window", detail: fmt.Sprintf(format, args...)}
}

// inf replaces the wire convention "≤ 0 means unbounded" with +inf.
func inf(u float64) float64 {
	if u <= 0 {
		return math.Inf(1)
	}
	return u
}

// bounds assembles the request's delay windows for m sinks, scaled by
// the radius when normalized.
func (req *SolveRequest) bounds(m int, radius float64) (lubt.Bounds, *httpError) {
	scale := 1.0
	if req.Normalized {
		scale = radius
	}
	var b lubt.Bounds
	switch {
	case req.Lower == nil && req.Upper == nil:
		b = lubt.Uniform(m, req.LowerAll*scale, inf(req.UpperAll)*scale)
	default:
		if req.Lower != nil && len(req.Lower) != m {
			return b, badRequest("lower has %d entries for %d sinks", len(req.Lower), m)
		}
		if req.Upper != nil && len(req.Upper) != m {
			return b, badRequest("upper has %d entries for %d sinks", len(req.Upper), m)
		}
		b = lubt.Uniform(m, 0, math.Inf(1))
		for i := 0; i < m; i++ {
			if req.Lower != nil {
				b.Lower[i] = req.Lower[i] * scale
			}
			if req.Upper != nil {
				b.Upper[i] = inf(req.Upper[i]) * scale
			}
		}
	}
	for i := 0; i < m; i++ {
		l, u := b.Lower[i], b.Upper[i]
		if math.IsNaN(l) || math.IsNaN(u) || math.IsInf(l, 0) {
			return b, badWindow("sink %d window [%g, %g] is not a number", i, l, u)
		}
		if l < 0 || l > u {
			return b, badWindow("sink %d window [%g, %g] is empty or negative", i, l, u)
		}
	}
	return b, nil
}

// window returns the edit's bounds with the wire +inf convention
// applied to the upper limit.
func (e WindowEdit) window() (l, u float64) { return e.Lower, inf(e.Upper) }

// requestKey is the canonical topology key: a hash over the sink
// coordinates (exact float bits), the source and the RESOLVED parent
// vector. Everything a warm re-solve can absorb — delay windows, edge
// weights — is deliberately excluded; everything that would need a
// fresh engine is included.
func requestKey(sinks []lubt.Point, source *lubt.Point, parent []int) string {
	h := sha256.New()
	var buf [8]byte
	wf := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	h.Write([]byte("lubt-key/1\x00"))
	wi(len(sinks))
	for _, p := range sinks {
		wf(p.X)
		wf(p.Y)
	}
	if source != nil {
		h.Write([]byte{1})
		wf(source.X)
		wf(source.Y)
	} else {
		h.Write([]byte{0})
	}
	wi(len(parent))
	for _, p := range parent {
		wi(p)
	}
	return "t:" + hex.EncodeToString(h.Sum(nil)[:12])
}

// requiredCounters, requiredGauges and requiredHistograms are the
// metric names every /metrics document must carry; the name sets are
// append-only within lubtd-metrics/2 (additions are fine,
// removals/renames bump the major version). docs/API.md documents each
// name.
var requiredCounters = []string{
	"requests_total", "solve_requests", "eco_requests",
	"cache_hits", "cache_misses", "cache_evictions", "cache_bypass",
	"warm_pivots_total", "cold_pivots_total",
	"solve_errors", "infeasible_total", "restages_total",
}

var requiredGauges = []string{
	"workers", "inflight", "cache_size", "cache_capacity",
	"build_info", "uptime_seconds",
}

var requiredHistograms = []string{
	"queue_wait_seconds", "build_seconds",
	"solve_seconds_cold", "solve_seconds_warm_hit", "solve_seconds_warm_eco",
	"solve_pivots_cold", "solve_pivots_warm_hit", "solve_pivots_warm_eco",
	"restages_warm_hit", "restages_warm_eco",
}

// metricsHistogramDoc is one histogram in a lubtd-metrics/2 document as
// the validators decode it.
type metricsHistogramDoc struct {
	Count   uint64  `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Buckets []struct {
		LE    float64 `json:"le"`
		Count uint64  `json:"count"`
	} `json:"buckets"`
}

// validateHistogramDoc checks one histogram's internal consistency: the
// cumulative bucket series is monotone in both boundary and count, the
// series never exceeds the total (finite boundaries only — overflow
// samples live past the last JSON bucket), and the scalar summaries
// are ordered.
func validateHistogramDoc(name string, h metricsHistogramDoc) error {
	prevLE := math.Inf(-1)
	var prevCum uint64
	for i, b := range h.Buckets {
		if math.IsNaN(b.LE) || math.IsInf(b.LE, 0) {
			return fmt.Errorf("histogram %q bucket %d: boundary %v is not finite", name, i, b.LE)
		}
		if b.LE <= prevLE {
			return fmt.Errorf("histogram %q bucket %d: boundary %v not increasing", name, i, b.LE)
		}
		if b.Count < prevCum {
			return fmt.Errorf("histogram %q bucket %d: cumulative count %d decreased", name, i, b.Count)
		}
		prevLE, prevCum = b.LE, b.Count
	}
	if prevCum > h.Count {
		return fmt.Errorf("histogram %q: bucket series %d exceeds count %d", name, prevCum, h.Count)
	}
	if h.Count > 0 {
		if h.Min > h.Max {
			return fmt.Errorf("histogram %q: min %v > max %v", name, h.Min, h.Max)
		}
		if h.P50 > h.P99 {
			return fmt.Errorf("histogram %q: p50 %v > p99 %v", name, h.P50, h.P99)
		}
	}
	return nil
}

// ValidateMetricsJSON checks that data is a well-formed lubtd-metrics/2
// document: strict top-level key set, correct schema string, every
// required counter, gauge and histogram present, counters non-negative,
// the gauges inside their structural ranges, and every histogram's
// cumulative bucket series monotone. It backs the ci.sh lubtd-smoke
// gate the way experiments.ValidateBenchJSON backs the bench smoke.
func ValidateMetricsJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc struct {
		Schema     string                         `json:"schema"`
		Counters   map[string]int64               `json:"counters"`
		Gauges     map[string]int64               `json:"gauges"`
		Histograms map[string]metricsHistogramDoc `json:"histograms"`
	}
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("metrics json: %w", err)
	}
	if doc.Schema != obs.MetricsSchema {
		return fmt.Errorf("metrics json: schema %q, want %q", doc.Schema, obs.MetricsSchema)
	}
	for _, name := range requiredCounters {
		v, ok := doc.Counters[name]
		if !ok {
			return fmt.Errorf("metrics json: missing counter %q", name)
		}
		if v < 0 {
			return fmt.Errorf("metrics json: counter %q = %d is negative", name, v)
		}
	}
	for _, name := range requiredGauges {
		if _, ok := doc.Gauges[name]; !ok {
			return fmt.Errorf("metrics json: missing gauge %q", name)
		}
	}
	if doc.Gauges["workers"] < 1 {
		return fmt.Errorf("metrics json: workers gauge = %d, want ≥ 1", doc.Gauges["workers"])
	}
	if doc.Gauges["cache_capacity"] < 1 {
		return fmt.Errorf("metrics json: cache_capacity gauge = %d, want ≥ 1", doc.Gauges["cache_capacity"])
	}
	if doc.Gauges["inflight"] < 0 || doc.Gauges["cache_size"] < 0 {
		return fmt.Errorf("metrics json: negative inflight/cache_size gauge")
	}
	if doc.Gauges["cache_size"] > doc.Gauges["cache_capacity"] {
		return fmt.Errorf("metrics json: cache_size %d exceeds cache_capacity %d",
			doc.Gauges["cache_size"], doc.Gauges["cache_capacity"])
	}
	if doc.Gauges["build_info"] != 1 {
		return fmt.Errorf("metrics json: build_info gauge = %d, want 1", doc.Gauges["build_info"])
	}
	if doc.Gauges["uptime_seconds"] < 0 {
		return fmt.Errorf("metrics json: negative uptime_seconds gauge")
	}
	for _, name := range requiredHistograms {
		h, ok := doc.Histograms[name]
		if !ok {
			return fmt.Errorf("metrics json: missing histogram %q", name)
		}
		if err := validateHistogramDoc(name, h); err != nil {
			return fmt.Errorf("metrics json: %w", err)
		}
	}
	for name, h := range doc.Histograms {
		if err := validateHistogramDoc(name, h); err != nil {
			return fmt.Errorf("metrics json: %w", err)
		}
	}
	return nil
}

// ValidatePromText checks that data is a well-formed Prometheus text
// exposition of the lubtd registry: every line is a comment or a
// `name[{labels}] value` sample, every required counter/gauge/histogram
// appears under its `lubtd_` name, each TYPE is declared before its
// samples, and every histogram's `_bucket` series is cumulative,
// monotone and ends at le="+Inf" agreeing with `_count`. It backs the
// ci.sh prom-scrape gate.
func ValidatePromText(data []byte) error {
	types := map[string]string{}
	values := map[string]float64{} // bare (unlabeled) samples
	type bucket struct {
		le  float64
		cum float64
	}
	buckets := map[string][]bucket{}
	labeled := map[string]bool{} // names seen with a non-le label set

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") {
				parts := strings.Fields(line)
				if len(parts) != 4 {
					return fmt.Errorf("prom text line %d: malformed TYPE comment %q", lineNo, line)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("prom text line %d: unknown type %q", lineNo, parts[3])
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("prom text line %d: no sample value in %q", lineNo, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := parsePromValue(valStr)
		if err != nil {
			return fmt.Errorf("prom text line %d: %v", lineNo, err)
		}
		name := key
		labels := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return fmt.Errorf("prom text line %d: unterminated label set in %q", lineNo, line)
			}
			name, labels = key[:i], key[i+1:len(key)-1]
		}
		if !promNameOK(name) {
			return fmt.Errorf("prom text line %d: illegal metric name %q", lineNo, name)
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && strings.HasPrefix(labels, `le="`) {
			leStr := strings.TrimSuffix(strings.TrimPrefix(labels, `le="`), `"`)
			le, err := parsePromValue(leStr)
			if err != nil {
				return fmt.Errorf("prom text line %d: bad le %q", lineNo, leStr)
			}
			buckets[base] = append(buckets[base], bucket{le: le, cum: val})
			continue
		}
		if labels != "" {
			labeled[name] = true
			continue
		}
		values[name] = val
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("prom text: %w", err)
	}

	for _, name := range requiredCounters {
		pn := "lubtd_" + name
		if types[pn] != "counter" {
			return fmt.Errorf("prom text: %s not declared as counter", pn)
		}
		if v, ok := values[pn]; !ok || v < 0 {
			return fmt.Errorf("prom text: counter %s missing or negative", pn)
		}
	}
	for _, name := range requiredGauges {
		pn := "lubtd_" + name
		if types[pn] != "gauge" {
			return fmt.Errorf("prom text: %s not declared as gauge", pn)
		}
		if _, ok := values[pn]; !ok && !labeled[pn] {
			return fmt.Errorf("prom text: gauge %s missing", pn)
		}
	}
	for _, name := range requiredHistograms {
		pn := "lubtd_" + name
		if types[pn] != "histogram" {
			return fmt.Errorf("prom text: %s not declared as histogram", pn)
		}
		bs := buckets[pn]
		if len(bs) == 0 {
			return fmt.Errorf("prom text: histogram %s has no _bucket series", pn)
		}
		prevLE := math.Inf(-1)
		prevCum := -1.0
		for i, b := range bs {
			if b.le <= prevLE {
				return fmt.Errorf("prom text: %s_bucket boundary %v not increasing (entry %d)", pn, b.le, i)
			}
			if b.cum < prevCum {
				return fmt.Errorf("prom text: %s_bucket cumulative count decreased at le=%v", pn, b.le)
			}
			prevLE, prevCum = b.le, b.cum
		}
		if !math.IsInf(bs[len(bs)-1].le, 1) {
			return fmt.Errorf("prom text: %s_bucket series does not end at le=\"+Inf\"", pn)
		}
		count, ok := values[pn+"_count"]
		if !ok {
			return fmt.Errorf("prom text: missing %s_count", pn)
		}
		if bs[len(bs)-1].cum != count {
			return fmt.Errorf("prom text: %s +Inf bucket %v != _count %v", pn, bs[len(bs)-1].cum, count)
		}
		if _, ok := values[pn+"_sum"]; !ok {
			return fmt.Errorf("prom text: missing %s_sum", pn)
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func promNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidateFlightJSON checks that data is a well-formed lubtd-flight/1
// document: strict key set, correct schema, entries within capacity,
// legal routes/outcomes/statuses, and every embedded trace a
// lubt-trace/1 document. It backs the ci.sh flight-scrape gate.
func ValidateFlightJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc struct {
		Schema   string `json:"schema"`
		Capacity int    `json:"capacity"`
		Dropped  uint64 `json:"dropped"`
		Entries  []struct {
			ID          string `json:"id"`
			Route       string `json:"route"`
			Outcome     string `json:"outcome"`
			Status      int    `json:"status"`
			StartUnixUS int64  `json:"start_unix_us"`
			DurUS       int64  `json:"dur_us"`
			Trace       *struct {
				Schema string          `json:"schema"`
				Root   json.RawMessage `json:"root"`
			} `json:"trace"`
		} `json:"entries"`
	}
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("flight json: %w", err)
	}
	if doc.Schema != obs.FlightSchema {
		return fmt.Errorf("flight json: schema %q, want %q", doc.Schema, obs.FlightSchema)
	}
	if doc.Capacity < 1 {
		return fmt.Errorf("flight json: capacity %d, want ≥ 1", doc.Capacity)
	}
	if len(doc.Entries) > doc.Capacity {
		return fmt.Errorf("flight json: %d entries exceed capacity %d", len(doc.Entries), doc.Capacity)
	}
	for i, e := range doc.Entries {
		if e.ID == "" {
			return fmt.Errorf("flight json: entry %d has no id", i)
		}
		if e.Route != "/solve" && e.Route != "/eco" {
			return fmt.Errorf("flight json: entry %d route %q is not a solver route", i, e.Route)
		}
		switch e.Outcome {
		case "cold", "warm_hit", "warm_eco", "error":
		default:
			return fmt.Errorf("flight json: entry %d outcome %q unknown", i, e.Outcome)
		}
		if e.Status < 100 || e.Status > 599 {
			return fmt.Errorf("flight json: entry %d status %d out of range", i, e.Status)
		}
		if e.DurUS < 0 {
			return fmt.Errorf("flight json: entry %d negative duration", i)
		}
		if e.Trace != nil {
			if e.Trace.Schema != obs.TraceSchema {
				return fmt.Errorf("flight json: entry %d trace schema %q, want %q", i, e.Trace.Schema, obs.TraceSchema)
			}
			if len(e.Trace.Root) == 0 {
				return fmt.Errorf("flight json: entry %d trace has no root span", i)
			}
		}
	}
	return nil
}
