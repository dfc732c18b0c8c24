package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lubt/internal/experiments"
	"lubt/internal/wkld"
)

// treeWire is the slice of TreeJSON the tests need (lubt.Tree has no
// UnmarshalJSON; responses decode into this instead).
type treeWire struct {
	NumSinks   int       `json:"num_sinks"`
	Parent     []int     `json:"parent"`
	SinkDelays []float64 `json:"sink_delays"`
	Cost       float64   `json:"cost"`
	MaxDelay   float64   `json:"max_delay"`
}

type solveWire struct {
	Key        string          `json:"key"`
	Cache      string          `json:"cache"`
	Pivots     int             `json:"pivots"`
	ColdPivots int             `json:"cold_pivots"`
	Rounds     int             `json:"rounds"`
	Restages   int             `json:"restages"`
	Cost       float64         `json:"cost"`
	Radius     float64         `json:"radius"`
	Tree       *treeWire       `json:"tree"`
	Trace      json.RawMessage `json:"trace"`
}

type errorWire struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %s body: %v", path, err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decodeSolve(t *testing.T, rr *httptest.ResponseRecorder) solveWire {
	t.Helper()
	if rr.Code != 200 {
		t.Fatalf("status %d, body %s", rr.Code, rr.Body.String())
	}
	var out solveWire
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding solve response: %v", err)
	}
	return out
}

func decodeError(t *testing.T, body io.Reader, status, wantStatus int, wantCode string) errorWire {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d", status, wantStatus)
	}
	var out errorWire
	if err := json.NewDecoder(body).Decode(&out); err != nil {
		t.Fatalf("decoding error response: %v", err)
	}
	if out.Error != wantCode {
		t.Fatalf("error code %q, want %q (detail: %s)", out.Error, wantCode, out.Detail)
	}
	return out
}

// solveReq builds a uniform-window request for a workload benchmark.
func solveReq(b *wkld.Benchmark, lower, upper float64) *SolveRequest {
	sinks := make([]PointJSON, len(b.Sinks))
	for i, p := range b.Sinks {
		sinks[i] = PointJSON{X: p.X, Y: p.Y}
	}
	src := PointJSON{X: b.Source.X, Y: b.Source.Y}
	return &SolveRequest{Sinks: sinks, Source: &src, LowerAll: lower, UpperAll: upper}
}

// coldBaseline runs an unconstrained bypass solve and returns the tight
// window the BenchRecords methodology uses (0.1·radius below max delay).
func coldBaseline(t *testing.T, srv *Server, b *wkld.Benchmark) (l, u, radius float64) {
	t.Helper()
	req := solveReq(b, 0, 0)
	req.Cold = true
	resp := decodeSolve(t, postJSON(t, srv, "/solve", req))
	if resp.Cache != "bypass" {
		t.Fatalf("cold baseline served %q, want bypass", resp.Cache)
	}
	u = resp.Tree.MaxDelay
	l = math.Max(0, u-0.1*resp.Radius)
	return l, u, resp.Radius
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["status"] != "ok" {
		t.Fatalf("body %s (err %v)", rr.Body.String(), err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	cases := []struct{ method, path, allow string }{
		{http.MethodGet, "/solve", "POST"},
		{http.MethodGet, "/eco", "POST"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, nil)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		decodeError(t, rr.Body, rr.Code, 405, "method_not_allowed")
		if got := rr.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

func TestSolveBadRequests(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	b := wkld.Custom("bad8", 8, 1)
	post := func(body any) *httptest.ResponseRecorder { return postJSON(t, srv, "/solve", body) }

	t.Run("unknown field", func(t *testing.T) {
		rr := post(map[string]any{"sinks": []PointJSON{{X: 1, Y: 1}}, "lowerr": 3})
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
	t.Run("no sinks", func(t *testing.T) {
		rr := post(&SolveRequest{})
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
	t.Run("empty window", func(t *testing.T) {
		req := solveReq(b, 5000, 10) // lower > upper
		rr := post(req)
		decodeError(t, rr.Body, rr.Code, 422, "bad_window")
	})
	t.Run("nan window", func(t *testing.T) {
		// JSON cannot carry a NaN literal, but a normalized request over a
		// degenerate zero-radius instance produces one below the decoder
		// (+Inf upper × 0 radius); bounds() must reject it as 422.
		req := solveReq(b, 0, 0)
		req.Lower = []float64{math.NaN()}
		req.Upper = []float64{9000}
		if _, herr := req.bounds(1, 0); herr == nil {
			t.Fatal("NaN lower accepted")
		} else if herr.status != 422 || herr.code != "bad_window" {
			t.Fatalf("NaN lower: got %d %q, want 422 bad_window", herr.status, herr.code)
		}
		nan := &SolveRequest{Normalized: true, UpperAll: math.NaN()}
		if _, herr := nan.bounds(1, 1); herr == nil {
			t.Fatal("NaN upper accepted")
		} else if herr.status != 422 || herr.code != "bad_window" {
			t.Fatalf("NaN upper: got %d %q, want 422 bad_window", herr.status, herr.code)
		}
	})
	t.Run("nan location", func(t *testing.T) {
		// JSON cannot carry NaN either; below the decoder the facade's
		// coordinate rule (lubt.ErrNotFinite) rejects a NaN sink or source.
		for name, req := range map[string]*SolveRequest{
			"sink":   {Sinks: []PointJSON{{X: math.NaN(), Y: 1}, {X: 2, Y: 3}}},
			"source": {Sinks: []PointJSON{{X: 1, Y: 1}, {X: 2, Y: 3}}, Source: &PointJSON{X: 0, Y: math.NaN()}},
		} {
			_, _, _, _, herr := srv.buildInstance(req)
			if herr == nil || herr.status != 400 || herr.code != "bad_request" || !strings.Contains(herr.detail, "not finite") {
				t.Errorf("NaN %s: got %+v, want 400 bad_request naming the coordinate", name, herr)
			}
		}
	})
	t.Run("window length", func(t *testing.T) {
		req := solveReq(b, 0, 0)
		req.Lower = []float64{1, 2, 3} // 8 sinks
		rr := post(req)
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
	t.Run("unknown topology", func(t *testing.T) {
		req := solveReq(b, 0, 0)
		req.Topology = &TopologySpec{Type: "hilbert"}
		rr := post(req)
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
	t.Run("unknown pricing", func(t *testing.T) {
		// "pricing" is not a request field: like any unknown field, it
		// is rejected.
		rr := post(map[string]any{"sinks": solveReq(b, 0, 0).Sinks, "pricing": "devex"})
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
	t.Run("weights length", func(t *testing.T) {
		req := solveReq(b, 0, 0)
		req.Weights = []float64{1}
		rr := post(req)
		decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	})
}

func TestEcoUnknownKey(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	rr := postJSON(t, srv, "/eco", &EcoRequest{Key: "t:deadbeef"})
	decodeError(t, rr.Body, rr.Code, 404, "unknown_key")
	rr = postJSON(t, srv, "/eco", &EcoRequest{})
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
}

// TestSolveInfeasible pins the 422 mapping on a genuinely infeasible
// instance: a Fig. 1-style chain topology where a non-leaf sink must
// arrive exactly at the radius, forcing its child past it.
func TestSolveInfeasible(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	req := &SolveRequest{
		Sinks:      []PointJSON{{X: 10, Y: 0}, {X: 20, Y: 0}},
		Source:     &PointJSON{X: 0, Y: 0},
		Topology:   &TopologySpec{Type: "custom", Parent: []int{-1, 0, 1}},
		Normalized: true,
		LowerAll:   1, UpperAll: 1, // every sink exactly at the radius
	}
	rr := postJSON(t, srv, "/solve", req)
	decodeError(t, rr.Body, rr.Code, 422, "infeasible")
	if got := srv.Metrics().Counter("infeasible_total"); got != 1 {
		t.Fatalf("infeasible_total = %d, want 1", got)
	}
	// A failed cold solve must not park a dead entry in the cache.
	if n := srv.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after an infeasible cold solve, want 0", n)
	}
}

// TestServeWarmEndToEnd is the tentpole acceptance test, over a real
// HTTP round trip: a cold solve on prim1-s followed by an /eco retighten
// on the same key must be served from the warm session in under 25% of
// the cold pivot count (the WarmPivotDivisor budget shared with the
// lubtbench ECO gate), with the cache counters to prove where each
// request was served from.
func TestServeWarmEndToEnd(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpPost := func(path string, body any) *http.Response {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	decode := func(resp *http.Response) solveWire {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
		var out solveWire
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out
	}

	b := wkld.MustGenerate("prim1-s")
	// Unconstrained bypass to learn the window, as in BenchRecords.
	base := solveReq(b, 0, 0)
	base.Cold = true
	baseResp := decode(httpPost("/solve", base))
	radius := baseResp.Radius
	u := baseResp.Tree.MaxDelay
	l := math.Max(0, u-0.1*radius)

	cold := decode(httpPost("/solve", solveReq(b, l, u)))
	if cold.Cache != "miss" {
		t.Fatalf("first keyed solve served %q, want miss", cold.Cache)
	}
	if cold.Pivots != cold.ColdPivots || cold.Pivots <= 0 {
		t.Fatalf("miss pivots %d / cold %d, want equal and positive", cold.Pivots, cold.ColdPivots)
	}

	// Retighten sink 0 past its routed delay — the lubtbench ECO probe,
	// through the service.
	newL := cold.Tree.SinkDelays[0] + 0.05*radius
	warm := decode(httpPost("/eco", &EcoRequest{
		Key:       cold.Key,
		Retighten: []WindowEdit{{Sink: 0, Lower: newL, Upper: math.Max(u, newL)}},
	}))
	if warm.Cache != "hit" {
		t.Fatalf("eco served %q, want hit", warm.Cache)
	}
	if warm.Restages != 1 {
		t.Fatalf("eco applied %d restages, want 1", warm.Restages)
	}
	if warm.ColdPivots != cold.Pivots {
		t.Fatalf("eco cold_pivots %d, want the miss's %d", warm.ColdPivots, cold.Pivots)
	}
	if err := experiments.CheckWarmPivots("serve e2e: prim1-s", warm.Pivots, warm.ColdPivots); err != nil {
		t.Fatal(err)
	}

	// The metrics document must validate and tell the same story.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	doc, _ := io.ReadAll(mresp.Body)
	if err := ValidateMetricsJSON(doc); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if hits, misses, bypass := m.Counter("cache_hits"), m.Counter("cache_misses"), m.Counter("cache_bypass"); hits != 1 || misses != 1 || bypass != 1 {
		t.Fatalf("cache_hits=%d cache_misses=%d cache_bypass=%d, want 1/1/1", hits, misses, bypass)
	}
	if warmTotal, coldTotal := m.Counter("warm_pivots_total"), m.Counter("cold_pivots_total"); warmTotal != int64(warm.Pivots) || coldTotal < int64(cold.Pivots) {
		t.Fatalf("warm_pivots_total=%d cold_pivots_total=%d, want %d and ≥ %d",
			warmTotal, coldTotal, warm.Pivots, cold.Pivots)
	}

	// The solve-latency and pivot histograms must be populated, split by
	// outcome: two cold requests (bypass + miss) and one warm /eco.
	if got := m.Histogram("solve_seconds_cold").Count(); got != 2 {
		t.Errorf("solve_seconds_cold count = %d, want 2", got)
	}
	if got := m.Histogram("solve_pivots_cold").Count(); got != 2 {
		t.Errorf("solve_pivots_cold count = %d, want 2", got)
	}
	if got := m.Histogram("solve_seconds_warm_eco").Count(); got != 1 {
		t.Errorf("solve_seconds_warm_eco count = %d, want 1", got)
	}
	if got := m.Histogram("solve_pivots_warm_eco").Quantile(1); got != float64(warm.Pivots) {
		t.Errorf("warm_eco pivot max = %v, want %d", got, warm.Pivots)
	}
	if got := m.Histogram("restages_warm_eco").Sum(); got != 1 {
		t.Errorf("restages_warm_eco sum = %v, want 1", got)
	}
	if got := m.Histogram("queue_wait_seconds").Count(); got != 3 {
		t.Errorf("queue_wait_seconds count = %d, want 3", got)
	}
	if got := m.Histogram("build_seconds").Count(); got != 2 {
		t.Errorf("build_seconds count = %d, want 2", got)
	}

	// The Prometheus exposition of the same state must validate.
	presp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET /metrics?format=prom: %v", err)
	}
	defer presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	prom, _ := io.ReadAll(presp.Body)
	if err := ValidatePromText(prom); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(prom, []byte(`lubtd_solve_seconds_cold_count 2`)) {
		t.Errorf("prom exposition missing cold histogram count:\n%s", prom)
	}

	// The flight recorder must hold all four requests, oldest first.
	fresp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	defer fresp.Body.Close()
	flight, _ := io.ReadAll(fresp.Body)
	if err := ValidateFlightJSON(flight); err != nil {
		t.Fatal(err)
	}
	var fdoc struct {
		Entries []struct {
			ID      string `json:"id"`
			Route   string `json:"route"`
			Outcome string `json:"outcome"`
			Status  int    `json:"status"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(flight, &fdoc); err != nil {
		t.Fatal(err)
	}
	if len(fdoc.Entries) != 3 {
		t.Fatalf("flight holds %d entries, want 3", len(fdoc.Entries))
	}
	wantFlights := []struct{ route, outcome string }{
		{"/solve", "cold"}, {"/solve", "cold"}, {"/eco", "warm_eco"},
	}
	for i, want := range wantFlights {
		e := fdoc.Entries[i]
		if e.Route != want.route || e.Outcome != want.outcome || e.Status != 200 || e.ID == "" {
			t.Errorf("flight entry %d = %+v, want %s %s 200", i, e, want.route, want.outcome)
		}
	}
}

// TestSolveWarmHitRestagesWindows covers the /solve warm path: a second
// request on the same key with different windows is diffed and restaged,
// not re-solved cold.
func TestSolveWarmHitRestagesWindows(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	b := wkld.Custom("warm24", 24, 7)
	l, u, radius := coldBaseline(t, srv, b)

	cold := decodeSolve(t, postJSON(t, srv, "/solve", solveReq(b, l, u)))
	if cold.Cache != "miss" {
		t.Fatalf("first keyed solve served %q, want miss", cold.Cache)
	}
	warm := decodeSolve(t, postJSON(t, srv, "/solve", solveReq(b, math.Max(0, l-0.02*radius), u*1.02)))
	if warm.Cache != "hit" {
		t.Fatalf("second solve served %q, want hit", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Fatalf("key changed across windows: %s vs %s", warm.Key, cold.Key)
	}
	if warm.Restages == 0 {
		t.Fatal("warm hit with changed windows applied no restages")
	}
	if warm.Pivots >= cold.Pivots && cold.Pivots > 0 {
		t.Fatalf("warm hit took %d pivots, cold took %d — basis not reused", warm.Pivots, cold.Pivots)
	}
}

func TestTraceCapture(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	b := wkld.Custom("trace12", 12, 3)
	req := solveReq(b, 0, 0)
	req.Trace = true
	resp := decodeSolve(t, postJSON(t, srv, "/solve", req))
	if len(resp.Trace) == 0 {
		t.Fatal("trace requested but response carries none")
	}
	var trace struct {
		Schema string `json:"schema"`
		Root   struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(resp.Trace, &trace); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if trace.Schema != "lubt-trace/1" {
		t.Fatalf("trace schema %q", trace.Schema)
	}
	if trace.Root.Name != "serve-solve" {
		t.Fatalf("trace root %q", trace.Root.Name)
	}
	got := map[string]bool{}
	for _, c := range trace.Root.Children {
		got[c.Name] = true
	}
	for _, want := range []string{"queue-wait", "build", "solve"} {
		if !got[want] {
			t.Errorf("trace missing span %q (have %v)", want, trace.Root.Children)
		}
	}
	// Untraced requests must not pay for span capture.
	plain := decodeSolve(t, postJSON(t, srv, "/solve", solveReq(b, 0, 0)))
	if len(plain.Trace) != 0 {
		t.Fatal("trace emitted without being requested")
	}
}

// TestAPIDocRoutes gates the operator's manual: every route the server
// registers must be documented in docs/API.md.
func TestAPIDocRoutes(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist and document the service: %v", err)
	}
	for _, route := range Routes() {
		if !strings.Contains(string(doc), "`"+route+"`") {
			t.Errorf("docs/API.md does not document route `%s`", route)
		}
	}
	// The metric names are part of the wire contract too.
	names := append(append([]string{}, requiredCounters...), requiredGauges...)
	names = append(names, requiredHistograms...)
	for _, name := range names {
		if !strings.Contains(string(doc), name) {
			t.Errorf("docs/API.md does not document metric %q", name)
		}
	}
}

// TestMetricsJSONFile validates a metrics document captured from a live
// daemon — the ci.sh lubtd smoke sets LUBTD_METRICS_JSON to the file it
// scraped after one cold and one warm request.
func TestMetricsJSONFile(t *testing.T) {
	path := os.Getenv("LUBTD_METRICS_JSON")
	if path == "" {
		t.Skip("LUBTD_METRICS_JSON not set (ci.sh smoke hook)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetricsJSON(data); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// The smoke sends a solve and a warm eco on the same key; the scrape
	// must show the warm path was actually taken.
	if doc.Counters["cache_hits"] < 1 {
		t.Fatalf("live daemon served no cache hits: %s", data)
	}
	if doc.Counters["cache_misses"] < 1 {
		t.Fatalf("live daemon served no cache misses: %s", data)
	}
}

func TestValidateMetricsJSON(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	var buf bytes.Buffer
	if err := srv.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetricsJSON(buf.Bytes()); err != nil {
		t.Fatalf("fresh server metrics must validate: %v", err)
	}
	bad := []struct {
		name string
		doc  string
	}{
		{"schema", `{"schema":"lubtd-metrics/9","counters":{},"gauges":{}}`},
		{"old major version", `{"schema":"lubtd-metrics/1","counters":{},"gauges":{}}`},
		{"missing counter", `{"schema":"lubtd-metrics/2","counters":{},"gauges":{},"histograms":{}}`},
		{"unknown key", `{"schema":"lubtd-metrics/2","counters":{},"gauges":{},"histograms":{},"extra":1}`},
		{"not json", `nope`},
	}
	for _, c := range bad {
		if err := ValidateMetricsJSON([]byte(c.doc)); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestRequestKey(t *testing.T) {
	sinks := []PointJSON{{X: 1, Y: 2}, {X: 3, Y: 4}}
	mk := func(req *SolveRequest) string {
		srv := New(Config{})
		defer srv.Close()
		_, s, src, parent, herr := srv.buildInstance(req)
		if herr != nil {
			t.Fatalf("build: %v", herr)
		}
		return requestKey(s, src, parent)
	}
	base := mk(&SolveRequest{Sinks: sinks})
	if base == "" || !strings.HasPrefix(base, "t:") {
		t.Fatalf("key %q", base)
	}
	if again := mk(&SolveRequest{Sinks: sinks}); again != base {
		t.Fatalf("key not deterministic: %s vs %s", again, base)
	}
	// Windows and weights are warm-absorbable: same key.
	if k := mk(&SolveRequest{Sinks: sinks, LowerAll: 10, UpperAll: 500, Weights: []float64{0, 2, 2}}); k != base {
		t.Fatalf("windows/weights changed the key: %s vs %s", k, base)
	}
	// Geometry and topology are structural: different keys.
	if k := mk(&SolveRequest{Sinks: []PointJSON{{X: 1, Y: 2}, {X: 3, Y: 5}}}); k == base {
		t.Fatal("moved sink kept the key")
	}
	if k := mk(&SolveRequest{Sinks: sinks, Source: &PointJSON{X: 9, Y: 9}}); k == base {
		t.Fatal("moved source kept the key")
	}
	// The key hashes the RESOLVED topology, not the generator name: on
	// two sinks both generators give the same star and must share a key...
	if k := mk(&SolveRequest{Sinks: sinks, Topology: &TopologySpec{Type: "balanced"}}); k != base {
		t.Fatal("identical resolved topologies got different keys")
	}
	// ...while an explicitly different parent vector gets its own key.
	chain := mk(&SolveRequest{Sinks: sinks, Topology: &TopologySpec{Type: "custom", Parent: []int{-1, 0, 1}}})
	if chain == base {
		t.Fatal("different resolved topology kept the key")
	}
}

// TestMetricsFormats covers the /metrics format switch: default JSON,
// format=prom text exposition, anything else a 400.
func TestMetricsFormats(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr
	}
	rr := get("/metrics")
	if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("JSON view: status %d, content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if err := ValidateMetricsJSON(rr.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	rr = get("/metrics?format=prom")
	if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("prom view: status %d, content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if err := ValidatePromText(rr.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	rr = get("/metrics?format=xml")
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
}

// TestFlightRingBound: with a small configured ring, the /debug/flight
// view holds only the last N requests and reports the overflow.
func TestFlightRingBound(t *testing.T) {
	srv := New(Config{FlightSize: 2})
	defer srv.Close()
	b := wkld.Custom("flight6", 6, 2)
	for i := 0; i < 3; i++ {
		req := solveReq(b, 0, 0)
		req.Cold = true
		decodeSolve(t, postJSON(t, srv, "/solve", req))
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if err := ValidateFlightJSON(rr.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int    `json:"capacity"`
		Dropped  uint64 `json:"dropped"`
		Entries  []struct {
			ID string `json:"id"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 2 || doc.Dropped != 1 || len(doc.Entries) != 2 {
		t.Fatalf("capacity=%d dropped=%d entries=%d, want 2/1/2",
			doc.Capacity, doc.Dropped, len(doc.Entries))
	}
	if doc.Entries[0].ID != "r000002" || doc.Entries[1].ID != "r000003" {
		t.Fatalf("ring kept %s, %s — want the last two requests",
			doc.Entries[0].ID, doc.Entries[1].ID)
	}
}

// TestPprofGating: /debug/pprof/ is mounted only when EnablePprof is
// set.
func TestPprofGating(t *testing.T) {
	off := New(Config{})
	defer off.Close()
	rr := httptest.NewRecorder()
	off.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rr.Code != 404 {
		t.Fatalf("pprof disabled: status %d, want 404", rr.Code)
	}

	on := New(Config{EnablePprof: true})
	defer on.Close()
	rr = httptest.NewRecorder()
	on.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "goroutine") {
		t.Fatalf("pprof enabled: status %d, body %.120s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	on.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rr.Code != 200 {
		t.Fatalf("pprof cmdline: status %d", rr.Code)
	}
}

// TestAccessLogAndSlowSolve: every solver request writes an access-log
// line whose id matches the X-Request-Id header, and a request over the
// SlowSolve budget adds a Warn line carrying the full span tree.
func TestAccessLogAndSlowSolve(t *testing.T) {
	var logBuf bytes.Buffer
	srv := New(Config{
		SlowSolve: time.Nanosecond, // everything is over budget
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	defer srv.Close()
	b := wkld.Custom("slow8", 8, 4)
	req := solveReq(b, 0, 0)
	req.Cold = true
	rr := postJSON(t, srv, "/solve", req)
	decodeSolve(t, rr)
	reqID := rr.Header().Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id header on a solver response")
	}

	var access, slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "request":
			access = rec
		case "slow solve":
			slow = rec
		}
	}
	if access == nil {
		t.Fatal("no access-log line written")
	}
	if access["id"] != reqID || access["route"] != "/solve" ||
		access["outcome"] != "cold" || access["status"] != 200.0 {
		t.Fatalf("access log fields wrong: %v", access)
	}
	if slow == nil {
		t.Fatal("no slow-solve line written")
	}
	if slow["id"] != reqID {
		t.Fatalf("slow-solve id %v, want %s", slow["id"], reqID)
	}
	traceStr, _ := slow["trace"].(string)
	var trace struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal([]byte(traceStr), &trace); err != nil || trace.Schema != "lubt-trace/1" {
		t.Fatalf("slow-solve trace not a lubt-trace/1 document: %v (%.120s)", err, traceStr)
	}
}

// TestValidatePromText covers the validator's rejection paths with
// hand-built bad expositions.
func TestValidatePromText(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	var good bytes.Buffer
	if err := srv.Metrics().WriteProm(&good); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePromText(good.Bytes()); err != nil {
		t.Fatalf("fresh server exposition must validate: %v", err)
	}
	text := good.String()
	bad := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"no value", text + "lubtd_orphan\n"},
		{"non-monotone bucket", strings.Replace(text,
			`lubtd_queue_wait_seconds_bucket{le="+Inf"} 0`,
			"lubtd_queue_wait_seconds_bucket{le=\"0.5\"} 5\nlubtd_queue_wait_seconds_bucket{le=\"1\"} 3\nlubtd_queue_wait_seconds_bucket{le=\"+Inf\"} 3", 1)},
		{"count mismatch", strings.Replace(text, "lubtd_queue_wait_seconds_count 0", "lubtd_queue_wait_seconds_count 9", 1)},
		{"missing histogram", strings.ReplaceAll(text, "lubtd_build_seconds", "lubtd_other_seconds")},
	}
	for _, c := range bad {
		if err := ValidatePromText([]byte(c.doc)); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

// TestValidateFlightJSON covers the flight validator's rejection paths.
func TestValidateFlightJSON(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"schema", `{"schema":"lubtd-flight/9","capacity":2,"dropped":0,"entries":[]}`},
		{"unknown key", `{"schema":"lubtd-flight/1","capacity":2,"dropped":0,"entries":[],"x":1}`},
		{"over capacity", `{"schema":"lubtd-flight/1","capacity":1,"dropped":0,"entries":[
			{"id":"a","route":"/solve","outcome":"cold","status":200,"start_unix_us":1,"dur_us":1},
			{"id":"b","route":"/solve","outcome":"cold","status":200,"start_unix_us":2,"dur_us":1}]}`},
		{"bad route", `{"schema":"lubtd-flight/1","capacity":2,"dropped":0,"entries":[
			{"id":"a","route":"/metrics","outcome":"cold","status":200,"start_unix_us":1,"dur_us":1}]}`},
		{"bad outcome", `{"schema":"lubtd-flight/1","capacity":2,"dropped":0,"entries":[
			{"id":"a","route":"/solve","outcome":"tepid","status":200,"start_unix_us":1,"dur_us":1}]}`},
		{"not json", `nope`},
	}
	for _, c := range bad {
		if err := ValidateFlightJSON([]byte(c.doc)); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

// TestPromTextFile validates a Prometheus exposition captured from a
// live daemon — the ci.sh lubtd smoke sets LUBTD_PROM_TEXT to the file
// it scraped after the warm /eco call.
func TestPromTextFile(t *testing.T) {
	path := os.Getenv("LUBTD_PROM_TEXT")
	if path == "" {
		t.Skip("LUBTD_PROM_TEXT not set (ci.sh smoke hook)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePromText(data); err != nil {
		t.Fatal(err)
	}
	// The smoke's cold solve and warm eco must show up in the histograms.
	for _, want := range []string{
		"lubtd_solve_seconds_cold_count 1",
		"lubtd_solve_seconds_warm_eco_count 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("live exposition missing %q", want)
		}
	}
}

// TestFlightJSONFile validates a flight dump captured from a live
// daemon — the ci.sh lubtd smoke sets LUBTD_FLIGHT_JSON to the file it
// scraped after the warm /eco call; the ring must hold both requests.
func TestFlightJSONFile(t *testing.T) {
	path := os.Getenv("LUBTD_FLIGHT_JSON")
	if path == "" {
		t.Skip("LUBTD_FLIGHT_JSON not set (ci.sh smoke hook)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSON(data); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entries []struct {
			Route   string `json:"route"`
			Outcome string `json:"outcome"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	routes := map[string]bool{}
	for _, e := range doc.Entries {
		routes[e.Route+":"+e.Outcome] = true
	}
	if !routes["/solve:cold"] || !routes["/eco:warm_eco"] {
		t.Fatalf("flight ring missing the smoke's requests: %s", data)
	}
}

func TestQueueOverload(t *testing.T) {
	// A request whose client disappears while queued is dropped with 503;
	// exercised via a pre-canceled context rather than actual saturation.
	srv := New(Config{Workers: 1})
	defer srv.Close()
	srv.sem <- struct{}{} // occupy the only worker slot
	defer func() { <-srv.sem }()
	b := wkld.Custom("q4", 4, 1)
	buf, _ := json.Marshal(solveReq(b, 0, 0))
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(buf))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req.WithContext(ctx))
	decodeError(t, rr.Body, rr.Code, 503, "unavailable")
}

// TestEcoBadWindow pins the /eco half of the window validation: a
// malformed retighten window (lower above a finite upper) must be
// rejected as 422 bad_window at request decoding — before it reaches
// the cached warm engine — and the session must stay usable afterwards.
func TestEcoBadWindow(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	b := wkld.Custom("badwin16", 16, 3)
	l, u, _ := coldBaseline(t, srv, b)
	cold := decodeSolve(t, postJSON(t, srv, "/solve", solveReq(b, l, u)))
	if cold.Cache != "miss" {
		t.Fatalf("first keyed solve served %q, want miss", cold.Cache)
	}
	rr := postJSON(t, srv, "/eco", &EcoRequest{
		Key:       cold.Key,
		Retighten: []WindowEdit{{Sink: 1, Lower: u, Upper: 0.25 * u}},
	})
	decodeError(t, rr.Body, rr.Code, 422, "bad_window")
	again := decodeSolve(t, postJSON(t, srv, "/eco", &EcoRequest{Key: cold.Key}))
	if again.Cache != "hit" {
		t.Fatalf("session unusable after rejected window: served %q", again.Cache)
	}
}

// TestWriteJSONEncodeFailure: a value with no JSON form (an infinity)
// answers 500 with a JSON "internal" error, not the requested status
// over an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, 200, map[string]float64{"cost": math.Inf(1)})
	e := decodeError(t, rr.Body, rr.Code, 500, "internal")
	if !strings.Contains(e.Detail, "encoding the response") {
		t.Fatalf("detail %q does not name the encoding", e.Detail)
	}
	rr = httptest.NewRecorder()
	writeJSON(rr, 201, map[string]float64{"cost": 1})
	if rr.Code != 201 || strings.TrimSpace(rr.Body.String()) != `{"cost":1}` {
		t.Fatalf("status %d body %q, want 201 {\"cost\":1}", rr.Code, rr.Body)
	}
}

// TestOverflowingRequestsRejected: coordinates whose bounding box
// overflows float64, and windows whose optimum does, answer 400 on the
// cold path, on a warm hit and on /eco — never a 5xx or a success over
// an empty body — and the server keeps serving.
func TestOverflowingRequestsRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	far := &SolveRequest{Sinks: []PointJSON{{1e308, 1e308}, {-1e308, -1e308}}}
	rr := postJSON(t, srv, "/solve", far)
	if e := decodeError(t, rr.Body, rr.Code, 400, "bad_request"); !strings.Contains(e.Detail, "not finite") {
		t.Fatalf("detail %q does not name the overflow", e.Detail)
	}
	near := &SolveRequest{Sinks: []PointJSON{{0, 0}, {1, 1}}, Topology: &TopologySpec{Type: "balanced"}}
	over := *near
	over.LowerAll, over.UpperAll = 1e308, 1e308
	rr = postJSON(t, srv, "/solve", &over)
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	cold := decodeSolve(t, postJSON(t, srv, "/solve", near))
	rr = postJSON(t, srv, "/solve", &over) // a warm hit on the cached net
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	cold = decodeSolve(t, postJSON(t, srv, "/solve", near))
	rr = postJSON(t, srv, "/eco", &EcoRequest{Key: cold.Key, Retighten: []WindowEdit{
		{Sink: 0, Lower: 1e308, Upper: 1e308}, {Sink: 1, Lower: 1e308, Upper: 1e308}}})
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	if again := decodeSolve(t, postJSON(t, srv, "/solve", near)); again.Cost != cold.Cost {
		t.Fatalf("cost %g after the rejected requests, %g before", again.Cost, cold.Cost)
	}
}

// TestUnheldWindowRejected: on three sinks and the source at one point,
// the window [1575, 1e20] coarsens the LP's tolerance past its lower
// side; the solve stalls (lubt.ErrStalled) instead of answering a
// zero-cost tree that breaks its windows — 400 cold, on a warm hit and
// on /eco.
func TestUnheldWindowRejected(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	p := PointJSON{X: 5, Y: 5}
	unheld := &SolveRequest{Sinks: []PointJSON{p, p, p}, Source: &p,
		Topology: &TopologySpec{Type: "balanced"}, LowerAll: 1575, UpperAll: 1e20}
	rr := postJSON(t, srv, "/solve", unheld)
	if e := decodeError(t, rr.Body, rr.Code, 400, "bad_request"); !strings.Contains(e.Detail, "stalled") {
		t.Fatalf("cold: detail %q does not report the stall", e.Detail)
	}
	free := *unheld
	free.LowerAll, free.UpperAll = 0, 0
	decodeSolve(t, postJSON(t, srv, "/solve", &free)) // caches the net
	rr = postJSON(t, srv, "/solve", unheld)           // a warm hit on it
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
	cold := decodeSolve(t, postJSON(t, srv, "/solve", &free)) // the failed hit dropped the entry
	rr = postJSON(t, srv, "/eco", &EcoRequest{Key: cold.Key, Retighten: []WindowEdit{{Sink: 0, Lower: 1575, Upper: 1e20}}})
	decodeError(t, rr.Body, rr.Code, 400, "bad_request")
}
