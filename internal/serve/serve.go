package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"lubt"
	"lubt/internal/obs"
)

// DefaultCacheSize is the warm-session LRU capacity when Config leaves
// it zero.
const DefaultCacheSize = 64

// DefaultFlightSize is the flight-recorder ring capacity when Config
// leaves it zero.
const DefaultFlightSize = 64

// maxBodyBytes bounds a request body (custom instances with tens of
// thousands of sinks fit comfortably; unbounded bodies do not).
const maxBodyBytes = 64 << 20

// Cache outcomes as recorded in histograms, flight entries and pprof
// labels. "cold" covers both cache misses and explicit bypasses (the
// work done is the same full solve); requests that error before an
// outcome is committed record as "error".
const (
	outcomeCold    = "cold"
	outcomeWarmHit = "warm_hit"
	outcomeWarmEco = "warm_eco"
	outcomeError   = "error"
)

// Config tunes a Server.
type Config struct {
	// Workers caps concurrent solves; 0 means GOMAXPROCS. Requests
	// beyond the cap queue; a request whose client goes away while
	// queued is dropped with 503.
	Workers int
	// CacheSize bounds the warm-basis session cache (LRU entries);
	// 0 means DefaultCacheSize.
	CacheSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints expose process internals and
	// belong behind an operator's explicit flag.
	EnablePprof bool
	// FlightSize bounds the flight-recorder ring (last N completed
	// solver requests); 0 means DefaultFlightSize.
	FlightSize int
	// SlowSolve, when positive, logs any /solve or /eco request that
	// takes at least this long at Warn level with its full span tree.
	SlowSolve time.Duration
	// Logger receives access logs and slow-solve reports; nil discards.
	Logger *slog.Logger
}

// solveHists groups the per-outcome histograms (restages is nil for the
// cold outcome — nothing is restaged on a cold solve).
type solveHists struct {
	seconds  *obs.Histogram
	pivots   *obs.Histogram
	restages *obs.Histogram
}

// Server is the lubtd HTTP service: JSON solve requests over the public
// lubt facade, a bounded worker pool, and the keyed warm-basis cache
// that turns repeat solves on a topology into warm dual re-solves.
// Construct with New; it implements http.Handler.
type Server struct {
	workers   int
	metrics   *obs.Metrics
	cache     *cache
	mux       *http.ServeMux
	sem       chan struct{}
	log       *slog.Logger
	flight    *obs.FlightRecorder
	start     time.Time
	slowSolve time.Duration
	reqSeq    atomic.Uint64

	hQueueWait *obs.Histogram
	hBuild     *obs.Histogram
	hOutcome   map[string]solveHists
}

// Routes lists every HTTP route the server can register. docs/API.md
// must document each one — TestAPIDocRoutes gates that. /debug/pprof/
// is only mounted when Config.EnablePprof is set.
func Routes() []string {
	return []string{"/solve", "/eco", "/metrics", "/healthz", "/debug/flight", "/debug/pprof/"}
}

// New builds a Server. Every required metric name — counters, gauges
// and histograms — is pre-seeded so /metrics validates before the first
// request.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	flightSize := cfg.FlightSize
	if flightSize <= 0 {
		flightSize = DefaultFlightSize
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := obs.NewMetrics()
	s := &Server{
		workers:   workers,
		metrics:   m,
		cache:     newCache(size, m),
		sem:       make(chan struct{}, workers),
		log:       logger,
		flight:    obs.NewFlightRecorder(flightSize),
		start:     time.Now(),
		slowSolve: cfg.SlowSolve,
	}
	m.SetGauge("workers", int64(workers))
	m.SetGauge("inflight", 0)
	m.SetGauge("uptime_seconds", 0)
	m.SetInfo("build_info",
		obs.InfoLabel{Key: "go_version", Value: runtime.Version()},
		obs.InfoLabel{Key: "revision", Value: vcsRevision()})
	for _, name := range requiredCounters {
		m.Add(name, 0)
	}
	s.hQueueWait = m.Histogram("queue_wait_seconds")
	s.hBuild = m.Histogram("build_seconds")
	s.hOutcome = map[string]solveHists{
		outcomeCold: {
			seconds: m.Histogram("solve_seconds_cold"),
			pivots:  m.Histogram("solve_pivots_cold"),
		},
		outcomeWarmHit: {
			seconds:  m.Histogram("solve_seconds_warm_hit"),
			pivots:   m.Histogram("solve_pivots_warm_hit"),
			restages: m.Histogram("restages_warm_hit"),
		},
		outcomeWarmEco: {
			seconds:  m.Histogram("solve_seconds_warm_eco"),
			pivots:   m.Histogram("solve_pivots_warm_eco"),
			restages: m.Histogram("restages_warm_eco"),
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.instrumentSolver("/solve", s.handleSolve))
	mux.HandleFunc("/eco", s.instrumentSolver("/eco", s.handleEco))
	mux.HandleFunc("/metrics", s.instrument(s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("/debug/flight", s.instrument(s.handleFlight))
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	s.mux = mux
	return s
}

// vcsRevision returns the VCS commit baked into the binary by the go
// tool, or "unknown" (tests and `go run` builds carry no stamp).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's registry (the /metrics source) for
// in-process consumers and tests.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Flight exposes the flight recorder (the /debug/flight source) for
// in-process consumers — cmd/lubtd dumps it on SIGQUIT.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// CacheLen reports the number of warm sessions currently held.
func (s *Server) CacheLen() int { return s.cache.len() }

// Close releases every cached warm session. Call after the HTTP server
// has drained (http.Server.Shutdown); in-use sessions are closed as
// their requests finish.
func (s *Server) Close() { s.cache.closeAll() }

// reqState is the per-request observability context threaded through
// the solver handlers: the request id correlating access log, flight
// entry and trace; the always-on tracer; and the cache outcome once a
// path commits to one.
type reqState struct {
	id      string
	route   string
	start   time.Time
	tr      *obs.Tracer
	outcome string
}

// statusWriter captures the status code written by a handler for the
// access log and flight entry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument counts the request and converts handler panics into 500s —
// a daemon must not die because one request hit an engine invariant.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Inc("requests_total")
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Inc("solve_errors")
				writeError(w, &httpError{status: 500, code: "internal", detail: "panic while serving request"})
			}
		}()
		h(w, r)
	}
}

// instrumentSolver is instrument plus the full per-request
// observability for the solver routes: request id (echoed as
// X-Request-Id), pprof labels segmenting profiles by route and request,
// the always-on flight-recorder entry, the access log, and the
// slow-solve report.
func (s *Server) instrumentSolver(route string, h func(http.ResponseWriter, *http.Request, *reqState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Inc("requests_total")
		st := &reqState{id: fmt.Sprintf("r%06d", s.reqSeq.Add(1)), route: route, start: time.Now()}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", st.id)
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Inc("solve_errors")
				writeError(sw, &httpError{status: 500, code: "internal", detail: "panic while serving request"})
			}
			s.finishRequest(sw, st)
		}()
		pprof.Do(r.Context(), pprof.Labels("lubt_route", route, "lubt_req", st.id), func(ctx context.Context) {
			h(sw, r.WithContext(ctx), st)
		})
	}
}

// finishRequest completes a solver request's observability: closes the
// trace, records the flight entry, writes the access log line, and
// reports over-budget requests with their full span tree.
func (s *Server) finishRequest(sw *statusWriter, st *reqState) {
	st.tr.Close()
	dur := time.Since(st.start)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	outcome := st.outcome
	if outcome == "" {
		outcome = outcomeError
	}
	s.flight.Record(obs.FlightEntry{
		ID: st.id, Route: st.route, Outcome: outcome, Status: status,
		Start: st.start, Duration: dur, Root: st.tr.Root(),
	})
	durMS := float64(dur) / float64(time.Millisecond)
	s.log.Info("request",
		slog.String("id", st.id), slog.String("route", st.route),
		slog.Int("status", status), slog.String("outcome", outcome),
		slog.Float64("dur_ms", durMS))
	if s.slowSolve > 0 && dur >= s.slowSolve && st.tr.Enabled() {
		attrs := []any{
			slog.String("id", st.id), slog.String("route", st.route),
			slog.Float64("dur_ms", durMS),
			slog.Float64("threshold_ms", float64(s.slowSolve)/float64(time.Millisecond)),
		}
		var buf bytes.Buffer
		if err := st.tr.WriteJSON(&buf); err == nil {
			var compact bytes.Buffer
			if json.Compact(&compact, buf.Bytes()) == nil {
				attrs = append(attrs, slog.String("trace", compact.String()))
			}
		}
		s.log.Warn("slow solve", attrs...)
	}
}

// labelOutcome layers the lubt_cache outcome label onto the current
// span's pprof labels, so CPU profiles segment cold vs warm work. The
// label lives until the span ends (End restores the parent's labels).
func labelOutcome(sp *obs.Span, outcome string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(sp.Context(), pprof.Labels("lubt_cache", outcome)))
}

// writeJSON answers with v as JSON under status. It encodes before it
// writes the status, so a value that does not encode (a NaN or an
// infinity has no JSON form) becomes a 500 with an "internal" error body
// instead of a success status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = 500
		body, _ = json.Marshal(ErrorResponse{Error: "internal", Detail: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.status, ErrorResponse{Error: e.code, Detail: e.detail})
}

// requirePost rejects non-POST methods with a JSON 405.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, &httpError{status: 405, code: "method_not_allowed", detail: r.Method + " not allowed; POST"})
		return false
	}
	return true
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, &httpError{status: 405, code: "method_not_allowed", detail: r.Method + " not allowed; GET"})
		return false
	}
	return true
}

// acquireSlot blocks until a worker slot frees up or the client goes
// away. Callers pair it with releaseSlot.
func (s *Server) acquireSlot(r *http.Request) *httpError {
	select {
	case s.sem <- struct{}{}:
		s.metrics.AddGauge("inflight", 1)
		return nil
	case <-r.Context().Done():
		return &httpError{status: 503, code: "unavailable", detail: "request canceled while queued for a worker"}
	}
}

func (s *Server) releaseSlot() {
	<-s.sem
	s.metrics.AddGauge("inflight", -1)
}

// decodeStrict parses a JSON body rejecting unknown fields (catching
// client-side typos like "lowerr") and trailing garbage.
func decodeStrict(r *http.Request, w http.ResponseWriter, v any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	return nil
}

// attachTrace closes the request tracer and embeds its lubt-trace/1
// document in the response.
func attachTrace(resp *SolveResponse, tr *obs.Tracer) {
	if !tr.Enabled() {
		return
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err == nil {
		resp.Trace = json.RawMessage(buf.Bytes())
	}
}

// countError folds an error response into the stats spine.
func (s *Server) countError(herr *httpError) {
	s.metrics.Inc("solve_errors")
	if herr.code == "infeasible" {
		s.metrics.Inc("infeasible_total")
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, st *reqState) {
	if !requirePost(w, r) {
		return
	}
	s.metrics.Inc("solve_requests")
	var req SolveRequest
	if herr := decodeStrict(r, w, &req); herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	// The tracer is always on for solver routes — it feeds the flight
	// recorder and the slow-solve report; the response only carries the
	// trace when the client asked for it.
	st.tr = obs.NewTracerCtx(r.Context(), "serve-solve")
	qStart := time.Now()
	sp := st.tr.Start("queue-wait")
	if herr := s.acquireSlot(r); herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	defer s.releaseSlot()
	sp.End()
	s.hQueueWait.ObserveDuration(time.Since(qStart))
	resp, herr := s.solve(&req, st)
	if herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	if req.Trace {
		attachTrace(resp, st.tr)
	}
	writeJSON(w, 200, resp)
}

// buildInstance assembles the lubt.Instance and resolved topology for a
// solve request.
func (s *Server) buildInstance(req *SolveRequest) (inst *lubt.Instance, sinks []lubt.Point, source *lubt.Point, parent []int, herr *httpError) {
	if len(req.Sinks) == 0 {
		return nil, nil, nil, nil, badRequest("request needs at least one sink")
	}
	sinks = make([]lubt.Point, len(req.Sinks))
	for i, p := range req.Sinks {
		sinks[i] = lubt.Point{X: p.X, Y: p.Y}
	}
	inst, err := lubt.NewInstance(sinks)
	if err != nil {
		return nil, nil, nil, nil, badRequest("%v", err)
	}
	if req.Source != nil {
		// A non-finite sink or source is lubt.ErrNotFinite from
		// lubt.NewInstance or the topology method: a 400 either way.
		source = &lubt.Point{X: req.Source.X, Y: req.Source.Y}
		inst.SetSource(*source)
	}
	spec := req.Topology
	typ := "skew"
	if spec != nil && spec.Type != "" {
		typ = spec.Type
	}
	switch typ {
	case "skew":
		if spec != nil && spec.Parent != nil {
			return nil, nil, nil, nil, badRequest("topology.parent is only valid with type \"custom\"")
		}
		bound := math.Inf(1)
		if spec != nil && spec.SkewBound != nil {
			bound = *spec.SkewBound
			if math.IsNaN(bound) || bound < 0 {
				return nil, nil, nil, nil, badRequest("topology.skew_bound %g must be ≥ 0", bound)
			}
			if req.Normalized && !math.IsInf(bound, 1) {
				bound *= inst.Radius()
			}
		}
		if err := inst.UseSkewGuidedTopology(bound); err != nil {
			return nil, nil, nil, nil, badRequest("building skew-guided topology: %v", err)
		}
	case "balanced":
		if spec.Parent != nil || spec.SkewBound != nil {
			return nil, nil, nil, nil, badRequest("topology type \"balanced\" takes no parent or skew_bound")
		}
		if err := inst.UseBalancedTopology(); err != nil {
			return nil, nil, nil, nil, badRequest("building balanced topology: %v", err)
		}
	case "custom":
		if spec.SkewBound != nil {
			return nil, nil, nil, nil, badRequest("topology type \"custom\" takes no skew_bound")
		}
		if len(spec.Parent) == 0 {
			return nil, nil, nil, nil, badRequest("topology type \"custom\" needs a parent vector")
		}
		if err := inst.UseCustomTopology(spec.Parent); err != nil {
			return nil, nil, nil, nil, badRequest("custom topology: %v", err)
		}
	default:
		return nil, nil, nil, nil, badRequest("unknown topology type %q (skew, balanced or custom)", typ)
	}
	return inst, sinks, source, inst.Topology(), nil
}

// mapSolveErr translates a facade solve error: infeasible windows are
// the client's 422; anything else surfaces as a 400 with the facade's
// validation message.
func mapSolveErr(err error) *httpError {
	if errors.Is(err, lubt.ErrInfeasible) {
		return &httpError{status: 422, code: "infeasible", detail: err.Error()}
	}
	return badRequest("%v", err)
}

// solve runs one /solve request end to end: build, key, then the cold,
// warm or bypass path.
func (s *Server) solve(req *SolveRequest, st *reqState) (*SolveResponse, *httpError) {
	tr := st.tr
	bStart := time.Now()
	sp := tr.Start("build")
	inst, sinks, source, parent, herr := s.buildInstance(req)
	if herr != nil {
		sp.End()
		return nil, herr
	}
	radius := inst.Radius()
	b, herr := req.bounds(len(sinks), radius)
	if herr != nil {
		sp.End()
		return nil, herr
	}
	if req.Weights != nil {
		if len(req.Weights) != len(parent) {
			sp.End()
			return nil, badRequest("weights has %d entries for %d nodes in the resolved topology", len(req.Weights), len(parent))
		}
		for k := 1; k < len(req.Weights); k++ {
			if w := req.Weights[k]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				sp.End()
				return nil, badRequest("weight %d = %g must be finite and ≥ 0", k, w)
			}
		}
	}
	key := requestKey(sinks, source, parent)
	sp.SetInt("nodes", len(parent))
	sp.End()
	s.hBuild.ObserveDuration(time.Since(bStart))

	opts := &lubt.Options{Weights: req.Weights}
	if req.Cold {
		return s.solveBypass(inst, b, opts, key, radius, "bypass", st)
	}
	for attempt := 0; attempt < 2; attempt++ {
		e, _ := s.cache.acquire(key)
		e.mu.Lock()
		if e.closed {
			// Raced an eviction between acquire and lock; re-acquire
			// once, then give up on caching this request.
			e.mu.Unlock()
			continue
		}
		if e.solved == nil {
			resp, herr := s.solveColdFill(e, inst, b, opts, req, key, radius, st)
			e.mu.Unlock()
			return resp, herr
		}
		resp, herr := s.solveWarmHit(e, b, req.Weights, len(parent), key, st)
		e.mu.Unlock()
		return resp, herr
	}
	return s.solveBypass(inst, b, opts, key, radius, "bypass", st)
}

// solveBypass is the uncached cold path (explicit Cold requests, or a
// request that twice raced cache evictions).
func (s *Server) solveBypass(inst *lubt.Instance, b lubt.Bounds, opts *lubt.Options, key string, radius float64, state string, st *reqState) (*SolveResponse, *httpError) {
	st.outcome = outcomeCold
	start := time.Now()
	sp := st.tr.Start("solve")
	sp.SetString("cache", state)
	labelOutcome(sp, outcomeCold)
	tree, err := inst.Solve(b, opts)
	sp.End()
	if err != nil {
		return nil, mapSolveErr(err)
	}
	pivots := tree.Stats.LPIterations
	s.metrics.Inc("cache_bypass")
	s.metrics.Add("cold_pivots_total", int64(pivots))
	oh := s.hOutcome[outcomeCold]
	oh.seconds.ObserveDuration(time.Since(start))
	oh.pivots.Observe(float64(pivots))
	return &SolveResponse{
		Key: key, Cache: state,
		Pivots: pivots, ColdPivots: pivots,
		Rounds: tree.Stats.Rounds,
		Cost:   tree.Cost, Radius: radius, Tree: tree,
	}, nil
}

// solveColdFill owns a pending cache entry: run the cold solve, park
// the warm session in the entry. Caller holds e.mu.
func (s *Server) solveColdFill(e *entry, inst *lubt.Instance, b lubt.Bounds, opts *lubt.Options, req *SolveRequest, key string, radius float64, st *reqState) (*SolveResponse, *httpError) {
	st.outcome = outcomeCold
	start := time.Now()
	sp := st.tr.Start("solve")
	sp.SetString("cache", "miss")
	labelOutcome(sp, outcomeCold)
	solved, err := inst.SolveECO(b, opts)
	if err != nil {
		sp.End()
		// Do not cache a failed solve; requests queued on this entry
		// fall back to their own cold attempts.
		s.cache.remove(e)
		e.closeLocked()
		return nil, mapSolveErr(err)
	}
	e.solved = solved
	if req.Weights != nil {
		e.weights = append([]float64(nil), req.Weights...)
	}
	tree := solved.Tree()
	e.coldPivots = tree.Stats.LPIterations
	e.radius = radius
	sp.SetInt("pivots", e.coldPivots)
	sp.End()
	s.metrics.Inc("cache_misses")
	s.metrics.Add("cold_pivots_total", int64(e.coldPivots))
	oh := s.hOutcome[outcomeCold]
	oh.seconds.ObserveDuration(time.Since(start))
	oh.pivots.Observe(float64(e.coldPivots))
	return &SolveResponse{
		Key: key, Cache: "miss",
		Pivots: e.coldPivots, ColdPivots: e.coldPivots,
		Rounds: tree.Stats.Rounds,
		Cost:   tree.Cost, Radius: radius, Tree: tree,
	}, nil
}

// solveWarmHit restages a cached session to the requested windows and
// weights and re-solves warm from its kept basis. Caller holds e.mu.
func (s *Server) solveWarmHit(e *entry, b lubt.Bounds, weights []float64, nodes int, key string, st *reqState) (*SolveResponse, *httpError) {
	st.outcome = outcomeWarmHit
	start := time.Now()
	sp := st.tr.Start("resolve")
	sp.SetString("cache", "hit")
	labelOutcome(sp, outcomeWarmHit)
	edits := 0
	cur := e.solved.Bounds()
	for i := range b.Lower {
		if cur.Lower[i] == b.Lower[i] && cur.Upper[i] == b.Upper[i] {
			continue
		}
		if err := e.solved.Retighten(i, b.Lower[i], b.Upper[i]); err != nil {
			sp.End()
			return nil, badRequest("%v", err)
		}
		edits++
	}
	for k := 1; k < nodes; k++ {
		want, have := 1.0, 1.0
		if weights != nil {
			want = weights[k]
		}
		if e.weights != nil {
			have = e.weights[k]
		}
		if want == have {
			continue
		}
		if err := e.solved.Reweight(k, want); err != nil {
			sp.End()
			return nil, badRequest("%v", err)
		}
		edits++
	}
	if weights == nil {
		e.weights = nil
	} else {
		e.weights = append(e.weights[:0], weights...)
	}
	resp, herr := s.resolveLocked(e, key, edits, outcomeWarmHit, start, sp)
	sp.End()
	return resp, herr
}

// resolveLocked re-solves a staged session and assembles the response —
// the shared tail of the warm-hit and /eco paths. Caller holds e.mu and
// owns the span.
func (s *Server) resolveLocked(e *entry, key string, edits int, outcome string, start time.Time, sp *obs.Span) (*SolveResponse, *httpError) {
	tree, err := e.solved.Resolve()
	if err != nil {
		if errors.Is(err, lubt.ErrInfeasible) {
			// The session survives an infeasible window set (the facade
			// contract); keep the entry for the client's relaxed retry.
			s.metrics.Inc("cache_hits")
			return nil, &httpError{status: 422, code: "infeasible", detail: err.Error()}
		}
		s.cache.remove(e)
		e.closeLocked()
		if errors.Is(err, lubt.ErrNotFinite) || errors.Is(err, lubt.ErrStalled) {
			// Windows whose optimum overflows float64, or too large for the
			// LP to resolve the net: the client's input, as on the cold path.
			return nil, badRequest("%v", err)
		}
		return nil, &httpError{status: 500, code: "internal", detail: err.Error()}
	}
	pivots := e.solved.ResolvePivots()
	sp.SetInt("pivots", pivots)
	sp.SetInt("edits", edits)
	s.metrics.Inc("cache_hits")
	s.metrics.Add("warm_pivots_total", int64(pivots))
	s.metrics.Add("restages_total", int64(edits))
	oh := s.hOutcome[outcome]
	oh.seconds.ObserveDuration(time.Since(start))
	oh.pivots.Observe(float64(pivots))
	oh.restages.Observe(float64(edits))
	return &SolveResponse{
		Key: key, Cache: "hit",
		Pivots: pivots, ColdPivots: e.coldPivots,
		Rounds: tree.Stats.Rounds, Restages: edits,
		Cost: tree.Cost, Radius: e.radius, Tree: tree,
	}, nil
}

func (s *Server) handleEco(w http.ResponseWriter, r *http.Request, st *reqState) {
	if !requirePost(w, r) {
		return
	}
	s.metrics.Inc("eco_requests")
	var req EcoRequest
	if herr := decodeStrict(r, w, &req); herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	if req.Key == "" {
		herr := badRequest("eco request needs the key of a previous /solve")
		s.countError(herr)
		writeError(w, herr)
		return
	}
	st.tr = obs.NewTracerCtx(r.Context(), "serve-eco")
	qStart := time.Now()
	sp := st.tr.Start("queue-wait")
	if herr := s.acquireSlot(r); herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	defer s.releaseSlot()
	sp.End()
	s.hQueueWait.ObserveDuration(time.Since(qStart))
	resp, herr := s.eco(&req, st)
	if herr != nil {
		s.countError(herr)
		writeError(w, herr)
		return
	}
	if req.Trace {
		attachTrace(resp, st.tr)
	}
	writeJSON(w, 200, resp)
}

// eco applies targeted edits to a cached warm session. Edits apply in
// order; on a rejected edit the earlier ones remain staged (the facade
// contract — the next Resolve picks them up).
func (s *Server) eco(req *EcoRequest, st *reqState) (*SolveResponse, *httpError) {
	unknown := &httpError{status: 404, code: "unknown_key",
		detail: "no warm session for key " + req.Key + " (evicted or never solved); POST /solve first"}
	e := s.cache.lookup(req.Key)
	if e == nil {
		return nil, unknown
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.solved == nil {
		return nil, unknown
	}
	st.outcome = outcomeWarmEco
	start := time.Now()
	sp := st.tr.Start("resolve")
	defer sp.End()
	sp.SetString("cache", "hit")
	labelOutcome(sp, outcomeWarmEco)
	edits := 0
	for _, edit := range req.Retighten {
		l, u := edit.window()
		if math.IsNaN(l) || math.IsNaN(u) || l > u {
			return nil, badWindow("sink %d window [%g, %g] is empty or not a number", edit.Sink, l, u)
		}
		if err := e.solved.Retighten(edit.Sink, l, u); err != nil {
			return nil, badRequest("%v", err)
		}
		edits++
	}
	if len(req.Reweight) > 0 && e.weights == nil {
		// Materialize the unit vector so the diff bookkeeping of later
		// /solve hits on this key stays exact.
		e.weights = make([]float64, len(e.solved.Tree().Parent))
		for k := 1; k < len(e.weights); k++ {
			e.weights[k] = 1
		}
	}
	for _, edit := range req.Reweight {
		if math.IsNaN(edit.Weight) || math.IsInf(edit.Weight, 0) {
			return nil, badRequest("edge %d weight %g is not finite", edit.Edge, edit.Weight)
		}
		if err := e.solved.Reweight(edit.Edge, edit.Weight); err != nil {
			return nil, badRequest("%v", err)
		}
		e.weights[edit.Edge] = edit.Weight
		edits++
	}
	return s.resolveLocked(e, req.Key, edits, outcomeWarmEco, start, sp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s.metrics.SetGauge("uptime_seconds", int64(time.Since(s.start)/time.Second))
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = s.metrics.WriteJSON(w)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WriteProm(w)
	default:
		writeError(w, badRequest("unknown format %q (json or prom)", format))
	}
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.flight.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, 200, map[string]string{"status": "ok"})
}
