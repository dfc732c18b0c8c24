// Package serve is the lubtd HTTP service: a JSON front end over the
// public lubt facade that amortizes LP work across requests.
//
// The interesting part is the keyed warm-basis cache. A solve request is
// split into what fixes the LP's structure (sink/source geometry and the
// resolved topology — hashed into a canonical topology key) and what a restageable engine absorbs in place (delay windows,
// edge weights). Requests sharing a key are routed to one held-open
// lubt.Solved session: the first pays the cold solve, every later one is
// diffed against the session's staged state, restaged with
// Retighten/Reweight, and re-solved warm from the kept basis — a
// handful of dual pivots instead of a cold solve. /eco edits a cached
// session directly by key.
//
// Sessions are single-threaded by contract, so each cache entry carries
// a mutex serializing all use of its session; concurrent requests on one
// key queue and re-solve one after another, each warm from the basis the
// previous one left behind. The cache is a bounded LRU — evicted
// sessions are closed once their in-flight request (if any) finishes.
// Solves run under a bounded worker pool (GOMAXPROCS slots by default).
//
// Telemetry: /metrics serves the lubtd-metrics/2 document (counters,
// gauges, and latency/pivot histograms split by cache outcome — cold,
// warm_hit, warm_eco) that ValidateMetricsJSON checks in the ci.sh
// smoke, and the same registry as a Prometheus text exposition under
// ?format=prom (ValidatePromText). Every /solve and /eco request runs
// under an always-on tracer feeding a bounded flight-recorder ring
// (/debug/flight, lubtd-flight/1, ValidateFlightJSON) and gets a
// request id correlating the X-Request-Id header, the slog access log,
// the flight entry and any slow-solve report (Config.SlowSolve).
// Profiles segment by route, request and cache outcome via pprof labels
// (lubt_route, lubt_req, lubt_cache); net/http/pprof mounts under
// /debug/pprof/ when Config.EnablePprof is set.
//
// The wire contract — routes, schemas, error codes, metric names — is
// documented in docs/API.md; the serving architecture (request
// lifecycle, cache keying, when a request falls off the warm path) in
// DESIGN.md §7.
package serve
