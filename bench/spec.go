package main

// metricSpec describes one reported metric. The end-to-end and per-layer
// tables below must match BENCHMARK.json entry for entry; the smoke test
// checks that they do.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a per-layer count that repeats exactly for a given
	// seed; -compare flags any change to it.
	exact exactness
}

type exactness int

const (
	notExact exactness = iota
	// exactOnClock: exact on the clock workloads only. Their ops run one
	// after another; a serve workload's two clients reach the cache in an
	// order thread timing decides, and a warm answer may differ from a
	// cold one in the last digits.
	exactOnClock
	// exactEverywhere: exact on every workload.
	exactEverywhere
)

// endToEnd is what a user of the library or the daemon sees and what
// repeats within its bound across runs on different seeds. Every workload
// reports all of them in an untraced run. setup_s has the widest bound:
// it is a time, and the host moves times most (bench/README.md).
var endToEnd = []metricSpec{
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is measured by the traced run. A metric of a layer a workload
// does not reach reads 0 there. The timings a user sees come first: on a
// shared host their spread across seeds on clock-mid read 8–19% even at
// reference speed (bench/README.md), too wide for a 10% bound.
var perLayer = []metricSpec{
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms/op", better: "lower"},
	{name: "failed_frac", unit: "fraction", better: "lower"},
	{name: "wirelength_sum", unit: "length", better: "lower", exact: exactOnClock},
	{name: "replaced_nets", unit: "count", better: "lower", exact: exactEverywhere},
	{name: "bst.route_ms", unit: "ms", better: "lower"},
	{name: "lubt.solve_ms", unit: "ms", better: "lower"},
	{name: "lubt.verify_ms", unit: "ms", better: "lower"},
	{name: "core.rounds", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "core.steiner_rows", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "core.sep_ms", unit: "ms", better: "lower"},
	{name: "core.rowgen_ms", unit: "ms", better: "lower"},
	{name: "core.presolve_pruned_rows", unit: "count/op", better: "higher", exact: exactOnClock},
	{name: "core.subtrees", unit: "count/op", better: "higher", exact: exactOnClock},
	{name: "core.peak_rows", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "lp.pivots", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "lp.bound_flips", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "lp.refactorizations", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "lp.resets", unit: "count/op", better: "lower", exact: exactOnClock},
	{name: "lp.solve_ms", unit: "ms", better: "lower"},
	{name: "lp.us_per_pivot", unit: "us", better: "lower"},
	{name: "lp.us_per_pivot_m150", unit: "us", better: "lower"},
	{name: "lp.us_per_pivot_m300", unit: "us", better: "lower"},
	{name: "lp.us_per_pivot_m475", unit: "us", better: "lower"},
	{name: "lp.refactorize_ms", unit: "ms", better: "lower"},
	{name: "embed.place_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "serve.build_ms", unit: "ms", better: "lower"},
	{name: "serve.solve_cold_ms", unit: "ms", better: "lower"},
	{name: "serve.resolve_hit_ms", unit: "ms", better: "lower"},
	{name: "serve.resolve_eco_ms", unit: "ms", better: "lower"},
	{name: "serve.other_ms", unit: "ms", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.evictions", unit: "count/op", better: "lower"},
	{name: "serve.warm_pivot_ratio", unit: "ratio", better: "lower"},
	{name: "serve.restages_per_hit", unit: "count/hit", better: "lower"},
	{name: "runtime.alloc_mb_per_op", unit: "MB/op", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count/op", better: "lower"},
	{name: "obs.trace_overhead_frac", unit: "fraction", better: "lower"},
}

// specOf looks a metric up in both tables.
func specOf(name string) (metricSpec, bool) {
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
