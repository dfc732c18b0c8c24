package bst

import (
	"errors"
	"fmt"
	"math"

	"lubt/internal/delay"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/topology"
)

// Result is a routed bounded-skew tree.
type Result struct {
	Tree *topology.Tree
	// E holds the constructed edge lengths (indexed by edge/child node).
	E []float64
	// Cost is the total wirelength Σ e_k.
	Cost float64
	// Delays holds linear delays per node.
	Delays []float64
	// Stats summarizes sink delays; Stats.Skew ≤ the requested bound.
	Stats delay.SinkStats
	// Placement is the DME embedding of the tree.
	Placement *embed.Placement
}

// Route builds a bounded-skew tree over the sinks with the given skew
// budget (may be math.Inf(1) for an unconstrained Steiner-style topology).
// sinks[i] is the location of sink i+1; source, when non-nil, is the fixed
// root location.
func Route(sinks []geom.Point, skewBound float64, source *geom.Point) (*Result, error) {
	m := len(sinks)
	if m == 0 {
		return nil, errors.New("bst: no sinks")
	}
	if skewBound < 0 {
		return nil, fmt.Errorf("bst: negative skew bound %g", skewBound)
	}
	if m == 1 && source == nil {
		return nil, errors.New("bst: a single sink needs a source location")
	}

	type cluster struct {
		node   int // temp node id
		mr     geom.Octagon
		lo, hi float64
		alive  bool
	}
	// Temp ids: sinks 1…m, internals m+1…2m−1 (the last internal is the
	// top). Index clusters by a dense slice.
	clusters := make([]cluster, 1, 2*m)
	for i, p := range sinks {
		clusters = append(clusters, cluster{node: i + 1, mr: geom.OctFromPoint(p), alive: true})
	}
	parent := make([]int, 2*m) // temp parent per node id
	eTmp := make([]float64, 2*m)
	for i := range parent {
		parent[i] = -1
	}

	// mergeSum returns the minimal added wirelength S = ea+eb for joining
	// clusters a and b under the skew budget: all the pair scan ranks by.
	mergeSum := func(a, b *cluster) float64 {
		s := a.mr.Dist(b.mr)
		if !math.IsInf(skewBound, 1) {
			s = max(s, a.hi-b.lo-skewBound, b.hi-a.lo-skewBound)
		}
		return s
	}
	// mergeSplit returns a's share ea of the merge sum s, computed once
	// per merge for the chosen pair.
	mergeSplit := func(a, b *cluster, s float64) float64 {
		// Feasible ea range at sum s, from the two cross-skew constraints.
		loEa, hiEa := 0.0, s
		if !math.IsInf(skewBound, 1) {
			loEa = max(loEa, (s-skewBound-a.lo+b.hi)/2)
			hiEa = min(hiEa, (s+skewBound+b.lo-a.hi)/2)
		}
		// Aim at aligning the interval centers, clamped into the feasible
		// range (for skew bound 0 the range is the single balance point).
		balanced := (s + (b.lo+b.hi)/2 - (a.lo+a.hi)/2) / 2
		return min(max(balanced, loEa), hiEa)
	}

	alive := make([]int, 0, m) // indices into clusters
	for i := 1; i <= m; i++ {
		alive = append(alive, i)
	}
	// Lazily-maintained nearest neighbour per cluster index.
	nn := make([]int, 2*m)
	nnCost := make([]float64, 2*m)
	for i := range nn {
		nn[i] = -1
	}
	refresh := func(ci int) {
		nn[ci] = -1
		nnCost[ci] = math.Inf(1)
		for _, cj := range alive {
			if cj == ci {
				continue
			}
			if s := mergeSum(&clusters[ci], &clusters[cj]); s < nnCost[ci] {
				nn[ci], nnCost[ci] = cj, s
			}
		}
	}

	nextNode := m + 1
	for len(alive) > 1 {
		bi := -1
		for _, ci := range alive {
			if nn[ci] < 0 || !clusters[nn[ci]].alive {
				refresh(ci)
			}
			if bi < 0 || nnCost[ci] < nnCost[bi] {
				bi = ci
			}
		}
		bj := nn[bi]
		a, b := &clusters[bi], &clusters[bj]
		s := mergeSum(a, b)
		// When the skew bound binds exactly, the split can round to just
		// outside [0, s] (−2.3e-13 seen); a wire length must not go
		// negative.
		ea := min(max(mergeSplit(a, b, s), 0), s)
		eb := s - ea
		merged := cluster{
			node:  nextNode,
			mr:    a.mr.Expand(ea).Intersect(b.mr.Expand(eb)),
			lo:    min(a.lo+ea, b.lo+eb),
			hi:    max(a.hi+ea, b.hi+eb),
			alive: true,
		}
		if merged.mr.Empty() {
			return nil, fmt.Errorf("bst: internal error: empty merge region joining %d and %d", a.node, b.node)
		}
		parent[a.node] = nextNode
		parent[b.node] = nextNode
		eTmp[a.node] = ea
		eTmp[b.node] = eb
		nextNode++
		a.alive = false
		b.alive = false
		// Replace the two clusters in the alive set with the merged one.
		out := alive[:0]
		for _, ci := range alive {
			if ci != bi && ci != bj {
				out = append(out, ci)
			}
		}
		clusters = append(clusters, merged)
		alive = append(out, len(clusters)-1)
		nn[len(clusters)-1] = -1
	}

	top := clusters[alive[0]]
	var tree *topology.Tree
	var e []float64
	var err error
	if source != nil {
		// Node 0 is the source; the top cluster hangs below it.
		parent[0] = -1
		parent[top.node] = 0
		eTmp[top.node] = top.mr.DistPoint(*source)
		tree, err = topology.New(parent[:nextNode], m)
		if err != nil {
			return nil, fmt.Errorf("bst: %w", err)
		}
		e = eTmp[:nextNode]
	} else {
		// The top internal node (always the max id) becomes node 0.
		n := nextNode - 1
		pArr := make([]int, n)
		e = make([]float64, n)
		newID := func(i int) int {
			if i == top.node {
				return 0
			}
			return i
		}
		pArr[0] = -1
		for i := 1; i < nextNode; i++ {
			if i == top.node {
				continue
			}
			pArr[newID(i)] = newID(parent[i])
			e[newID(i)] = eTmp[i]
		}
		tree, err = topology.New(pArr, m)
		if err != nil {
			return nil, fmt.Errorf("bst: %w", err)
		}
	}

	sinkLoc := make([]geom.Point, m+1)
	copy(sinkLoc[1:], sinks)
	pl, err := embed.Place(tree, sinkLoc, source, e, nil)
	if err != nil {
		return nil, fmt.Errorf("bst: constructed lengths failed to embed: %w", err)
	}
	delays := tree.Delays(e)
	res := &Result{
		Tree:      tree,
		E:         e,
		Delays:    delays,
		Stats:     delay.Stats(tree, delays),
		Placement: pl,
	}
	for k := 1; k < tree.N(); k++ {
		res.Cost += e[k]
	}
	return res, nil
}
