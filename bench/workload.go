package main

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// procs pins GOMAXPROCS for every workload, so machines with more cores
// measure the parallelism the workloads were sized on: two processors,
// which is what the library's parallel separation oracle, the subtree
// decomposition and lubtd's worker pool get by default on such a host.
const procs = 2

// workload is one set of inputs the benchmark runs: a clock-routing op
// sequence or a lubtd traffic mix. BENCHMARK.json and bench/README.md give
// the reason each exists.
type workload struct {
	name  string
	clock *clockConfig
	serve *serveConfig
}

var workloads = []workload{
	{name: "clock-mid", clock: &clockConfig{
		sizes: []int{150, 300, 475}, widths: []float64{0.05, 0.1, 0.5}, warmup: 3, prefix: 9}},
	{name: "clock-scale", clock: &clockConfig{
		sizes: []int{2500}, widths: []float64{0.1}, scale: true, warmup: 1, prefix: 2}},
	{name: "serve-warm", serve: &serveConfig{
		workers: 2, cacheSize: 16, nets: 8, sinks: 150, ecoFrac: 0.2, prefix: 200}},
	{name: "serve-churn", serve: &serveConfig{
		workers: 1, cacheSize: 8, nets: 48, sinks: 150, prefix: 200}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is how one workload run is measured.
type plan struct {
	seed     int64
	deadline time.Time // when the run, set-up included, should be over
	trace    bool
	setups   int // set-up repetitions; setup_s is their median
	maxOps   int // caps the ops of the timed phase (≤ 0: none); the smoke test sets it
}

// result is one measured run: how many ops ran and failed, and every
// metric the run measured by name.
type result struct {
	attempted, failed int
	replaced          int     // generated nets replaced because the topology generator panicked
	firstErr          error   // the first failure, when failed > 0
	hostScale         float64 // the mean factor that brought the timed sweeps to the reference host
	metrics           map[string]float64
	spans             []*span
}

func (w workload) run(p plan, epoch time.Time) (*result, error) {
	if w.clock != nil {
		return w.clock.run(p, epoch)
	}
	return w.serve.run(p, epoch)
}

// puller hands out op indices 0, 1, 2, … to the clients of a timed
// phase's sweeps. The phase ends once limit indices went out (≤ 0: no
// limit) or when, at a multiple of unit, the next unit would end past until
// (zero: never) if it took as long as the last one; the first unit always
// goes out. Ending on whole units keeps a workload's op mix the same
// however many ops a run gets through. A sweep ends at the first op
// boundary past its end; the next sweep carries on where it ended. Safe
// for concurrent clients; every index handed out is run to completion.
type puller struct {
	mu        sync.Mutex
	next      int
	limit     int
	unit      int
	until     time.Time
	sweepEnd  time.Time
	inSweep   int // indices handed out in this sweep
	unitStart time.Time
	lastUnit  time.Duration
	done      bool
}

// startSweep begins a sweep that ends at end.
func (p *puller) startSweep(end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweepEnd, p.inSweep = end, 0
}

func (p *puller) pull() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done || (p.limit > 0 && p.next >= p.limit) {
		p.done = true
		return 0, false
	}
	now := time.Now()
	if p.inSweep > 0 && !now.Before(p.sweepEnd) {
		return 0, false
	}
	if p.next%p.unit == 0 && !p.until.IsZero() {
		if p.next > 0 {
			p.lastUnit = now.Sub(p.unitStart)
			if now.Add(p.lastUnit).After(p.until) {
				p.done = true
				return 0, false
			}
		}
		p.unitStart = now
	}
	p.inSweep++
	p.next++
	return p.next - 1, true
}

// opSeed derives op i's input seed from the run seed, so an op's inputs
// depend on (seed, i) alone.
func opSeed(seed int64, i int) int64 {
	return int64(mix(mix(uint64(seed))^uint64(i)) >> 1)
}

// netSeed seeds the net of op i, or its k-th replacement.
func netSeed(seed int64, i, k int) int64 {
	s := opSeed(seed, i)
	if k > 0 {
		s = opSeed(s, k)
	}
	return s
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// segmentLen is the longest a sweep of the timed phase runs before the
// host's speed is measured again. The speed can change within a second
// (see hostScale); replayed on a record of the host's slow spells,
// measuring every 1.6 s instead of every 0.2–0.8 s doubled the spread of
// 30-s means.
const segmentLen = 500 * time.Millisecond

// segment is one sweep of the timed phase.
type segment struct {
	lat       []time.Duration // per op, as measured
	wall, cpu time.Duration
	u0, u1    usage
	scale     float64 // the mean hostScale before and after the sweep
	peakRSSMB float64 // the process's peak resident set during the sweep
}

// timedPhase is what runTimed measured: the untraced sweeps over ops and,
// in a traced run, the traced replay of the same ops.
type timedPhase[T any] struct {
	segs      []segment
	ops       []T // the untraced ops in index order
	replay    []segment
	tracedOps []T
}

// runTimed runs the timed phase until p.deadline: sweeps over consecutive
// ops, each at most about segmentLen long, with the host's speed measured
// before each and after the last. A traced run sweeps for half the time
// left, then replays the same ops traced. sweep runs the ops pull hands
// out and returns them with their latencies.
func runTimed[T any](p plan, unit int, sweep func(pull func() (int, bool), traced bool) ([]T, []time.Duration)) (*timedPhase[T], error) {
	budget := time.Until(p.deadline)
	if p.trace {
		budget /= 2
	}
	scale := hostScale()
	sweeps := func(pl *puller, traced bool) (ops []T, segs []segment, err error) {
		for {
			pl.startSweep(time.Now().Add(segmentLen))
			resetPeakRSS()
			u0, start := readUsage(), time.Now()
			got, lat := sweep(pl.pull, traced)
			if len(got) == 0 {
				return ops, segs, nil
			}
			s := segment{lat: lat, wall: time.Since(start), u0: u0, u1: readUsage()}
			s.cpu = s.u1.cpu - s.u0.cpu
			if s.peakRSSMB, err = peakRSSMB(); err != nil {
				return nil, nil, err
			}
			after := hostScale()
			s.scale, scale = (scale+after)/2, after
			ops, segs = append(ops, got...), append(segs, s)
		}
	}
	tp := &timedPhase[T]{}
	var err error
	tp.ops, tp.segs, err = sweeps(&puller{limit: p.maxOps, unit: unit, until: time.Now().Add(budget)}, false)
	if err != nil {
		return nil, err
	}
	if len(tp.ops) == 0 {
		return nil, errors.New("no op ran")
	}
	if p.trace {
		if tp.tracedOps, tp.replay, err = sweeps(&puller{limit: len(tp.ops), unit: 1}, true); err != nil {
			return nil, err
		}
	}
	return tp, nil
}

// opScales returns the scale of each op's sweep, the ops of segs in order.
func opScales(segs []segment) []float64 {
	var out []float64
	for _, s := range segs {
		for range s.lat {
			out = append(out, s.scale)
		}
	}
	return out
}

// timeSetups runs set-up p.setups times and returns how long each took at
// reference speed, the host's speed measured before and after each.
func timeSetups(p plan, setup func() error) ([]time.Duration, error) {
	var out []time.Duration
	scale := hostScale()
	for r := 0; r < p.setups; r++ {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		after := hostScale()
		out = append(out, time.Duration(float64(d)*(scale+after)/2))
		scale = after
	}
	return out, nil
}

// newResult starts a run's result from its set-up times and timed phase,
// with the metrics every workload measures the same way: the timings a
// user sees, at reference speed, and the median over the sweeps of the
// process's peak resident set during each (a whole run's peak rests on
// its single largest op and read twice as spread across seeds); in a
// traced run also the runtime and tracing metrics.
func newResult[T any](setups []time.Duration, tp *timedPhase[T]) *result {
	res := &result{attempted: len(tp.ops) + len(tp.tracedOps)}
	var n int
	var wall, cpu float64
	var lat, rss []float64
	for _, s := range tp.segs {
		n += len(s.lat)
		rss = append(rss, s.peakRSSMB)
		wall += s.wall.Seconds() * s.scale
		cpu += ms(s.cpu) * s.scale
		for _, d := range s.lat {
			lat = append(lat, ms(d)*s.scale)
		}
		res.hostScale += s.scale / float64(len(tp.segs))
	}
	slices.Sort(lat)
	slices.Sort(rss)
	m := map[string]float64{
		"throughput_ops_s": float64(n) / wall,
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"latency_p99_ms":   quantile(lat, 0.99),
		"cpu_ms_per_op":    cpu / float64(n),
		"peak_rss_mb":      quantile(rss, 0.5),
		"setup_s":          quantile(msOf(setups), 0.5) / 1e3,
	}
	res.metrics = m
	if tp.tracedOps == nil {
		return res
	}
	// Per sweep, so that the benchmark's own work between sweeps is left
	// out.
	var alloc uint64
	var gcs uint32
	for _, s := range tp.segs {
		alloc += s.u1.allocBytes - s.u0.allocBytes
		gcs += s.u1.gcCycles - s.u0.gcCycles
	}
	m["runtime.alloc_mb_per_op"] = float64(alloc) / (1 << 20) / float64(n)
	m["runtime.gc_cycles_per_op"] = float64(gcs) / float64(n)
	var traced float64
	for _, s := range tp.replay {
		for _, d := range s.lat {
			traced += ms(d) * s.scale
		}
	}
	var untraced float64
	for _, v := range lat {
		untraced += v
	}
	m["obs.trace_overhead_frac"] = traced/untraced - 1
	return res
}
