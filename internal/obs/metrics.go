package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// MetricsSchema identifies the JSON layout emitted by Metrics.WriteJSON;
// bump it when the document's key set changes (new counter, gauge or
// histogram names do not count — the name sets are append-only by
// design). /2 added the `histograms` section.
const MetricsSchema = "lubtd-metrics/2"

// InfoLabel is one key/value identity label of an info gauge (see
// Metrics.SetInfo).
type InfoLabel struct {
	Key, Value string
}

// Metrics is a concurrency-safe registry of named monotone counters,
// free-running gauges and log-linear histograms — the serving-side
// companion of the per-solve lp.Stats spine. Counters only ever increase
// (requests, cache hits, pivot totals); gauges hold a current value
// (in-flight solves, cache size); histograms hold latency/count
// distributions (Histogram). A nil *Metrics is the disabled registry:
// every write is a no-op and every read returns zero, mirroring the nil
// *Tracer contract.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]int64
	gauges     map[string]int64
	histograms map[string]*Histogram
	infos      map[string][]InfoLabel
}

// NewMetrics returns an empty enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]int64),
		gauges:     make(map[string]int64),
		histograms: make(map[string]*Histogram),
		infos:      make(map[string][]InfoLabel),
	}
}

// Add increments counter name by delta. Counters are monotone: a
// negative delta panics (it indicates a bookkeeping bug, not load).
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("obs: negative delta %d for counter %q", delta, name))
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Inc is Add(name, 1).
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Counter returns the current value of a counter (0 if never written).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge sets gauge name to v.
func (m *Metrics) SetGauge(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// AddGauge moves gauge name by delta (either sign); use for in-flight
// style up/down tracking.
func (m *Metrics) AddGauge(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] += delta
	m.mu.Unlock()
}

// Gauge returns the current value of a gauge (0 if never written).
func (m *Metrics) Gauge(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// SetInfo declares name as an info gauge: a constant-1 gauge whose
// payload is its identity labels (the Prometheus build_info idiom). The
// JSON document carries the constant under gauges; the text exposition
// renders the labels. Labels are copied.
func (m *Metrics) SetInfo(name string, labels ...InfoLabel) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = 1
	m.infos[name] = append([]InfoLabel(nil), labels...)
	m.mu.Unlock()
}

// Info returns the identity labels of an info gauge (nil if name was
// never declared with SetInfo).
func (m *Metrics) Info(name string) []InfoLabel {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]InfoLabel(nil), m.infos[name]...)
}

// Histogram returns the named histogram, creating it on first sight.
// Callers on hot paths should hold on to the returned pointer — Observe
// on a *Histogram is lock-free, the name lookup is not. Returns nil (the
// disabled histogram) on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = NewHistogram()
		m.histograms[name] = h
	}
	return h
}

// Snapshot returns independent copies of the counter and gauge maps —
// a consistent point-in-time view (both maps are copied under one lock).
func (m *Metrics) Snapshot() (counters, gauges map[string]int64) {
	counters = map[string]int64{}
	gauges = map[string]int64{}
	if m == nil {
		return counters, gauges
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		counters[k] = v
	}
	for k, v := range m.gauges {
		gauges[k] = v
	}
	return counters, gauges
}

// histogramRefs copies the name → histogram map (the histograms
// themselves are shared — their reads are atomic).
func (m *Metrics) histogramRefs() map[string]*Histogram {
	refs := map[string]*Histogram{}
	if m == nil {
		return refs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, h := range m.histograms {
		refs[k] = h
	}
	return refs
}

// metricsJSON is the serialized registry (schema lubtd-metrics/2).
type metricsJSON struct {
	Schema     string                   `json:"schema"`
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]histogramJSON `json:"histograms"`
}

// histogramJSON is one histogram in the lubtd-metrics/2 document:
// scalar summaries plus the sparse cumulative bucket series. Only
// finite boundaries are emitted (JSON has no infinity literal); the
// series total is `count`. p50/p99 are Quantile estimates — within the
// 6.25% log-linear bucket bound of the true sample quantiles.
type histogramJSON struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	Buckets []bucketJSON `json:"buckets"`
}

type bucketJSON struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

func histToJSON(h *Histogram) histogramJSON {
	snap := h.Snapshot()
	out := histogramJSON{
		Count:   snap.Count,
		Sum:     snap.Sum,
		Min:     snap.Min,
		Max:     snap.Max,
		P50:     h.Quantile(0.5),
		P99:     h.Quantile(0.99),
		Buckets: []bucketJSON{},
	}
	for _, b := range snap.Buckets {
		if math.IsInf(b.LE, 1) {
			continue
		}
		out.Buckets = append(out.Buckets, bucketJSON{LE: b.LE, Count: b.Count})
	}
	return out
}

// WriteJSON writes the registry as an indented lubtd-metrics/2 document
// (encoding/json sorts the map keys, so output is deterministic for a
// given state). Calling it on a nil registry is an error: the caller
// asked to emit metrics that were never recorded.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		return fmt.Errorf("obs: WriteJSON on a disabled metrics registry")
	}
	counters, gauges := m.Snapshot()
	hists := map[string]histogramJSON{}
	for name, h := range m.histogramRefs() {
		hists[name] = histToJSON(h)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(metricsJSON{Schema: MetricsSchema, Counters: counters, Gauges: gauges, Histograms: hists})
}
