#!/bin/sh
# Tier-1 verification gate: formatting, package docs, vet, build, then
# the full test suite under the race detector (the separation oracle and
# the experiments harness are the concurrent parts), the bench module's
# own vet and tests, a short fuzz run and the bench/daemon smokes. Run
# from the repo root; see README "Install / build".
set -eu

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== package docs"
missing=""
for dir in internal/*/; do
	[ -d "$dir" ] || continue
	if ! ls "$dir"*.go >/dev/null 2>&1; then
		continue # no Go package here
	fi
	if [ ! -f "${dir}doc.go" ]; then
		missing="$missing $dir"
	fi
done
if [ -n "$missing" ]; then
	echo "ci: internal packages missing doc.go:$missing" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== bench module (vet + tests)"
# bench/ is its own Go module (it imports lubt/internal/... through a
# replace directive), so the root build and tests above never compile
# it. Vetting and testing it here catches a program change that breaks
# the benchmark's build or its pinned r6-s record (TestPinR6S).
(cd bench && go vet ./... && go test ./...)

echo "== fuzz (sparse LU vs the dense reference)"
# FuzzSparseLU factors decoded matrices with linalg.SparseLU and the dense
# reference LU. SparseLU orders for sparsity, so pivots, fill and roundoff
# differ; it must give the reference's singular verdict unless the matrix
# is near-singular (a pivot below 1e-9 in either factorization), report
# ErrSingular on an exactly singular one (a dependent column, a zero row
# or column), and keep both solves' normwise backward error within
# 1e-12. Its seed corpus under internal/linalg/testdata/fuzz already ran
# with the race step above.
go test -run '^$' -fuzz FuzzSparseLU -fuzztime 10s ./internal/linalg

echo "== fuzz (warm revised engine edits vs cold simplex)"
# FuzzRevisedEdits runs decoded scripts of row additions, restaging edits
# (bounds, costs, row replacements and deletions) and solves on one warm
# lp.Revised with its per-pivot sparse-state check on, and requires each
# solve to match a cold Simplex solve of the same LP in status and
# objective; its seed corpus under internal/lp/testdata/fuzz already ran
# with the race step above.
go test -run '^$' -fuzz FuzzRevisedEdits -fuzztime 10s ./internal/lp

echo "== fuzz (separation oracle vs the brute-force pair scan)"
# FuzzSeparationOracle decodes small instances (random topologies with
# Steiner nodes, non-leaf sinks and high degree, an optional source,
# every delay-window shape, a random edge vector) and requires the block
# oracle to report the brute-force scan's violated pairs and worst
# violation without its window arm, and to drop only pairs its block
# witnesses dominate with it; its seed corpus under
# internal/core/testdata/fuzz already ran with the race step above.
go test -run '^$' -fuzz FuzzSeparationOracle -fuzztime 10s ./internal/core

echo "== fuzz (baseline router vs its full-rescan reference)"
# FuzzRoute decodes nets (uniform sinks, integer-grid ties, coincident
# sinks; skew bound 0, finite or +Inf; with or without a source) and
# requires bst.Route's pruned nearest-neighbour scan to build the same
# parent array and bit-identical edge lengths as the full rescan kept
# in internal/bst's tests; its seeds already ran with the race step.
go test -run '^$' -fuzz FuzzRoute -fuzztime 10s ./internal/bst

echo "== bench smoke (lubt-bench/4 JSON + ECO gate + baseline)"
# Each reference bench is run through `lubtbench -json` (the revised
# row plus its single-sink ECO probe), then the emitted record is
# schema-validated (TestBenchJSONFile) and passed through the
# warm-restart gate (TestBenchJSONEcoGate): re-solving after a
# single-sink retighten must take fewer than 25% of the cold solve's
# pivots. r4-s is the degenerate-tie-heavy instance.
# TestBenchJSONMatchesBaseline then requires every deterministic counter
# of the record to equal the committed BENCH_<bench>.json at the repo
# root, so a change that moves pivots must re-pin the baselines.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for bench in prim1-s r4-s; do
	go run ./cmd/lubtbench -json -bench "$bench" -repeats 1 -outdir "$tmp"
	bench_json="$tmp/BENCH_$bench.json"
	if [ ! -s "$bench_json" ]; then
		echo "ci: lubtbench -json produced no output for $bench" >&2
		exit 1
	fi
	if ! grep -q '"schema": "lubt-bench/4"' "$bench_json"; then
		echo "ci: $bench_json missing lubt-bench/4 schema marker" >&2
		exit 1
	fi
	LUBT_BENCH_JSON="$bench_json" go test -run 'TestBenchJSONFile|TestBenchJSONEcoGate|TestBenchJSONMatchesBaseline' ./internal/experiments
done

echo "== scale smoke (r6-class: window-arm pruning + subtree decomposition gate)"
# r6-s (2500 sinks) crosses the scale threshold, so `lubtbench -json`
# switches to the sector-partitioned baseline and the ablation lineup:
# "revised" under the auto setting (parallel subtree decomposition)
# against "revised-monolithic" with decomposition off; both prune with
# the separation oracle's window arm. The emitted record is
# schema-validated and passed through experiments.CheckPresolveGate
# (TestBenchJSONPresolveGate): the window arm must prune a nonzero
# number of candidate rows, the decomposed peak row count must not
# exceed the monolithic one, and the two optima must agree to
# 1e-6·radius. The monolithic row is the long pole here — it is the
# ~6x-slower solve decomposition exists to avoid (about 2 s against
# 0.3 s for the decomposed row on a 2-vCPU Xeon VM). The record must also
# match the committed BENCH_r6-s.json baseline
# (TestBenchJSONMatchesBaseline).
go run ./cmd/lubtbench -json -bench r6-s -repeats 1 -outdir "$tmp"
scale_json="$tmp/BENCH_r6-s.json"
if [ ! -s "$scale_json" ]; then
	echo "ci: lubtbench -json produced no output for r6-s" >&2
	exit 1
fi
for key in presolve_pruned_rows subtrees peak_rows; do
	if ! grep -q "\"$key\"" "$scale_json"; then
		echo "ci: $scale_json missing lubt-bench/4 key $key" >&2
		exit 1
	fi
done
LUBT_BENCH_JSON="$scale_json" go test -run 'TestBenchJSONFile|TestBenchJSONPresolveGate|TestBenchJSONMatchesBaseline' ./internal/experiments

echo "== lubtd smoke (live daemon: cold solve, warm eco, lubtd-metrics/2 + prom + flight scrape)"
# Start the daemon on an ephemeral port, send one cold /solve and one
# warm /eco on the returned key, then scrape /metrics (JSON and
# ?format=prom) and /debug/flight and validate all three documents the
# same way the bench smoke validates lubt-bench/4 records
# (TestMetricsJSONFile also asserts cache_hits >= 1 — the warm path was
# actually taken; TestPromTextFile that the cold and warm-eco latency
# histograms were populated; TestFlightJSONFile that the flight ring
# holds both requests). TestAPIDocRoutes gates that docs/API.md
# documents every registered route and metric name.
go build -o "$tmp/lubtd" ./cmd/lubtd
"$tmp/lubtd" -addr 127.0.0.1:18080 -workers 2 -cache 4 >"$tmp/lubtd.log" 2>&1 &
lubtd_pid=$!
trap 'kill "$lubtd_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
for i in $(seq 1 50); do
	if curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
curl -sf http://127.0.0.1:18080/healthz >/dev/null || {
	echo "ci: lubtd never became healthy" >&2
	cat "$tmp/lubtd.log" >&2
	exit 1
}
cat >"$tmp/solve.json" <<'EOF'
{
  "sinks": [{"x": 120, "y": 400}, {"x": 610, "y": 220}, {"x": 350, "y": 700},
            {"x": 80, "y": 90}, {"x": 520, "y": 530}, {"x": 260, "y": 310}],
  "source": {"x": 0, "y": 0},
  "normalized": true,
  "lower_all": 0.9
}
EOF
curl -sf -o "$tmp/solve_out.json" --data-binary @"$tmp/solve.json" http://127.0.0.1:18080/solve || {
	echo "ci: lubtd /solve failed" >&2
	cat "$tmp/lubtd.log" >&2
	exit 1
}
key=$(sed -n 's/.*"key": *"\([^"]*\)".*/\1/p' "$tmp/solve_out.json" | head -1)
if [ -z "$key" ]; then
	echo "ci: lubtd /solve response carries no key" >&2
	cat "$tmp/solve_out.json" >&2
	exit 1
fi
printf '{"key": "%s", "retighten": [{"sink": 0, "lower": 0, "upper": 0}]}' "$key" >"$tmp/eco.json"
curl -sf -o "$tmp/eco_out.json" --data-binary @"$tmp/eco.json" http://127.0.0.1:18080/eco || {
	echo "ci: lubtd /eco failed" >&2
	cat "$tmp/lubtd.log" >&2
	exit 1
}
grep -q '"cache": *"hit"' "$tmp/eco_out.json" || {
	echo "ci: lubtd /eco was not served from the warm session" >&2
	cat "$tmp/eco_out.json" >&2
	exit 1
}
curl -sf -o "$tmp/metrics.json" http://127.0.0.1:18080/metrics
curl -sf -o "$tmp/metrics.prom" 'http://127.0.0.1:18080/metrics?format=prom'
curl -sf -o "$tmp/flight.json" http://127.0.0.1:18080/debug/flight
kill "$lubtd_pid"
wait "$lubtd_pid" 2>/dev/null || true
trap 'rm -rf "$tmp"' EXIT
LUBTD_METRICS_JSON="$tmp/metrics.json" LUBTD_PROM_TEXT="$tmp/metrics.prom" LUBTD_FLIGHT_JSON="$tmp/flight.json" \
	go test -run 'TestMetricsJSONFile|TestPromTextFile|TestFlightJSONFile|TestAPIDocRoutes' ./internal/serve

echo "ci: ok"
