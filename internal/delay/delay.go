package delay

import (
	"fmt"
	"math"

	"lubt/internal/topology"
)

// Linear evaluates the linear delay model: the delay of each node is the
// sum of edge lengths on its root path. It is topology.Delays re-exported
// under the model's name so call sites read uniformly.
func Linear(t *topology.Tree, e []float64) []float64 {
	return t.Delays(e)
}

// SinkStats summarizes the sink delays of a tree: minimum, maximum and
// skew (max − min, §2 of the paper).
type SinkStats struct {
	Min, Max, Skew float64
}

// Stats computes SinkStats from per-node delays.
func Stats(t *topology.Tree, delays []float64) SinkStats {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 1; i <= t.NumSinks; i++ {
		lo = math.Min(lo, delays[i])
		hi = math.Max(hi, delays[i])
	}
	return SinkStats{Min: lo, Max: hi, Skew: hi - lo}
}

// Elmore is the distributed RC delay model of Eq. 12. Rw and Cw are the
// wire resistance and capacitance per unit length; SinkCap[i] is the load
// capacitance of sink i (indexed by sink id; entry 0 unused, and a nil
// slice means zero loads).
type Elmore struct {
	Rw, Cw  float64
	SinkCap []float64
}

// Validate checks the model for a net of numSinks sinks: r_w and c_w are
// finite and ≥ 0, and SinkCap is nil or has exactly numSinks+1 entries
// whose entries 1…numSinks are finite and ≥ 0. Callers add their own
// requirements on top, such as nonzero or positive r_w and c_w.
func (m Elmore) Validate(numSinks int) error {
	if !finiteNonNeg(m.Rw) || !finiteNonNeg(m.Cw) {
		return fmt.Errorf("delay: Elmore r_w %g and c_w %g must be finite and ≥ 0", m.Rw, m.Cw)
	}
	if m.SinkCap == nil {
		return nil
	}
	if len(m.SinkCap) != numSinks+1 {
		return fmt.Errorf("delay: %d sink-load entries for %d sinks, want %d (entry 0 unused)",
			len(m.SinkCap), numSinks, numSinks+1)
	}
	for i := 1; i <= numSinks; i++ {
		if !finiteNonNeg(m.SinkCap[i]) {
			return fmt.Errorf("delay: sink %d load %g must be finite and ≥ 0", i, m.SinkCap[i])
		}
	}
	return nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// sinkCap returns the load of sink i.
func (m Elmore) sinkCap(i int) float64 {
	if m.SinkCap == nil || i >= len(m.SinkCap) {
		return 0
	}
	return m.SinkCap[i]
}

// SubtreeCaps returns C_k for every node: the total sink + wire
// capacitance of the subtree rooted at k, excluding edge e_k itself (the
// half term of Eq. 12 accounts for it).
func (m Elmore) SubtreeCaps(t *topology.Tree, e []float64) []float64 {
	c := make([]float64, t.N())
	for _, k := range t.Postorder() {
		if t.IsSink(k) {
			c[k] += m.sinkCap(k)
		}
		for _, ch := range t.Children(k) {
			c[k] += m.Cw*e[ch] + c[ch]
		}
	}
	return c
}

// Delays evaluates the Elmore delay at every node:
//
//	delay(s_j) = Σ_{e_k ∈ path(s0,s_j)} r_w e_k (c_w e_k / 2 + C_k).
func (m Elmore) Delays(t *topology.Tree, e []float64) []float64 {
	c := m.SubtreeCaps(t, e)
	d := make([]float64, t.N())
	for _, k := range t.Preorder() {
		if k == 0 {
			continue
		}
		d[k] = d[t.Parent[k]] + m.Rw*e[k]*(m.Cw*e[k]/2+c[k])
	}
	return d
}

// Gradient returns ∂delay(sink)/∂e_x for every edge x, used by the SLP
// solver. Two effects contribute: an edge on the sink's own root path has
// the direct derivative r_w(c_w e_x + C_x); and every edge x adds wire
// capacitance c_w e_x to the load of each of its ancestor edges, so edges
// on the common prefix of path(s0,sink) and path(s0,parent(x)) contribute
// r_w c_w Σ e_k over that prefix.
func (m Elmore) Gradient(t *topology.Tree, e []float64, sink int) []float64 {
	if !t.IsSink(sink) && sink != 0 {
		panic(fmt.Sprintf("delay: Gradient target %d is not a sink", sink))
	}
	c := m.SubtreeCaps(t, e)
	lin := t.Delays(e) // prefix sums of raw edge lengths
	onPath := make([]bool, t.N())
	for _, k := range t.PathToRoot(sink) {
		onPath[k] = true
	}
	g := make([]float64, t.N())
	for x := 1; x < t.N(); x++ {
		if onPath[x] {
			g[x] += m.Rw * (m.Cw*e[x] + c[x])
		}
		// Common prefix of the two root paths ends at LCA(sink, parent(x)).
		anc := t.LCA(sink, t.Parent[x])
		g[x] += m.Rw * m.Cw * lin[anc]
	}
	return g
}
