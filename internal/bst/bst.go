package bst

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

	g := newMerger(sinks, skewBound)
	// alive lists the live cluster indices in ascending (mr.ULo, index)
	// order; pos[ci] is ci's place in it, and hiMax[p] is the largest
	// mr.UHi among alive[0…p].
	alive := make([]int, 0, m)
	for i := 1; i <= m; i++ {
		alive = append(alive, i)
	}
	pos := make([]int, 2*m)
	hiMax := make([]float64, 0, m)
	byULo := func(a, b int) int {
		if c := cmp.Compare(g.clusters[a].mr.ULo, g.clusters[b].mr.ULo); c != 0 {
			return c
		}
		return a - b
	}
	reindex := func() {
		hiMax = hiMax[:0]
		top := math.Inf(-1)
		for p, ci := range alive {
			pos[ci] = p
			top = max(top, g.clusters[ci].mr.UHi)
			hiMax = append(hiMax, top)
		}
	}
	slices.SortFunc(alive, byULo)
	reindex()
	// Lazily-maintained nearest neighbour per cluster index.
	nn := make([]int, 2*m)
	nnCost := make([]float64, 2*m)
	for i := range nn {
		nn[i] = -1
	}
	// refresh finds ci's nearest neighbour, ties to the smaller index. The
	// u-gap, the second term of Octagon.Dist, bounds mergeSum from below
	// (the skew terms only raise it), and it grows with the distance from
	// ci in the ULo order: to the right the gap is lo_j − hi_i, and to the
	// left it is at least lo_i − hiMax. Each scan stops where that bound
	// exceeds the best sum found, so no skipped cluster could have matched
	// it. The left bound needs lo_j − hi_i ≤ 0, which holds when
	// lo_i ≤ hi_i; a region that rounding left inverted scans in full.
	refresh := func(ci int) {
		c := &g.clusters[ci]
		best, arg := math.Inf(1), -1
		consider := func(cj int) {
			if s := g.mergeSum(c, &g.clusters[cj]); s < best || (s == best && cj < arg) {
				best, arg = s, cj
			}
		}
		p := pos[ci]
		for q := p + 1; q < len(alive); q++ {
			if g.clusters[alive[q]].mr.ULo-c.mr.UHi > best {
				break
			}
			consider(alive[q])
		}
		prune := c.mr.ULo <= c.mr.UHi
		for q := p - 1; q >= 0; q-- {
			if prune && c.mr.ULo-hiMax[q] > best {
				break
			}
			consider(alive[q])
		}
		nn[ci], nnCost[ci] = arg, best
	}

	for len(alive) > 1 {
		bi := -1
		for _, ci := range alive {
			if nn[ci] < 0 || !g.clusters[nn[ci]].alive {
				refresh(ci)
			}
			if bi < 0 || nnCost[ci] < nnCost[bi] || (nnCost[ci] == nnCost[bi] && ci < bi) {
				bi = ci
			}
		}
		bj := nn[bi]
		ci, err := g.merge(bi, bj)
		if err != nil {
			return nil, err
		}
		// Replace the two clusters in the alive order with the merged one,
		// which sorts after every live cluster of equal ULo (its index is
		// the largest).
		out := alive[:0]
		for _, cj := range alive {
			if cj != bi && cj != bj {
				out = append(out, cj)
			}
		}
		at, _ := slices.BinarySearchFunc(out, ci, byULo)
		alive = slices.Insert(out, at, ci)
		reindex()
		nn[ci] = -1
	}
	return g.finish(alive[0], sinks, source)
}

// cluster is a subtree under construction: its temporary node id, its
// merge region, and the min and max path length from the region down to
// its sinks.
type cluster struct {
	node   int
	mr     geom.Octagon
	lo, hi float64
	alive  bool
}

// merger holds the state of the greedy merge: the clusters (index 0
// unused, sinks at 1…m, merged clusters appended), and the temporary
// parent and wire length of every node id. Temp ids are sinks 1…m and
// internals m+1…2m−1; the last internal is the top.
type merger struct {
	m        int
	skew     float64
	clusters []cluster
	parent   []int
	e        []float64
	next     int // the next free temp id
}

func newMerger(sinks []geom.Point, skewBound float64) *merger {
	m := len(sinks)
	g := &merger{
		m:        m,
		skew:     skewBound,
		clusters: make([]cluster, 1, 2*m),
		parent:   make([]int, 2*m),
		e:        make([]float64, 2*m),
		next:     m + 1,
	}
	for i, p := range sinks {
		g.clusters = append(g.clusters, cluster{node: i + 1, mr: geom.OctFromPoint(p), alive: true})
	}
	for i := range g.parent {
		g.parent[i] = -1
	}
	return g
}

// mergeSum returns the minimal added wirelength S = ea+eb for joining
// clusters a and b under the skew budget: all the nearest-neighbour
// search ranks by.
func (g *merger) mergeSum(a, b *cluster) float64 {
	s := a.mr.Dist(b.mr)
	if !math.IsInf(g.skew, 1) {
		s = max(s, a.hi-b.lo-g.skew, b.hi-a.lo-g.skew)
	}
	return s
}

// mergeSplit returns a's share ea of the merge sum s, computed once per
// merge for the chosen pair.
func (g *merger) mergeSplit(a, b *cluster, s float64) float64 {
	// Feasible ea range at sum s, from the two cross-skew constraints.
	loEa, hiEa := 0.0, s
	if !math.IsInf(g.skew, 1) {
		loEa = max(loEa, (s-g.skew-a.lo+b.hi)/2)
		hiEa = min(hiEa, (s+g.skew+b.lo-a.hi)/2)
	}
	// Aim at aligning the interval centers, clamped into the feasible
	// range (for skew bound 0 the range is the single balance point).
	balanced := (s + (b.lo+b.hi)/2 - (a.lo+a.hi)/2) / 2
	return min(max(balanced, loEa), hiEa)
}

// merge joins the live clusters bi and bj under a new temp node and
// returns the new cluster's index.
func (g *merger) merge(bi, bj int) (int, error) {
	a, b := &g.clusters[bi], &g.clusters[bj]
	s := g.mergeSum(a, b)
	// When the skew bound binds exactly, the split can round to just
	// outside [0, s] (−2.3e-13 seen); a wire length must not go
	// negative.
	ea := min(max(g.mergeSplit(a, b, s), 0), s)
	eb := s - ea
	merged := cluster{
		node:  g.next,
		mr:    a.mr.Expand(ea).Intersect(b.mr.Expand(eb)),
		lo:    min(a.lo+ea, b.lo+eb),
		hi:    max(a.hi+ea, b.hi+eb),
		alive: true,
	}
	if merged.mr.Empty() {
		return 0, fmt.Errorf("bst: internal error: empty merge region joining %d and %d", a.node, b.node)
	}
	g.parent[a.node] = g.next
	g.parent[b.node] = g.next
	g.e[a.node] = ea
	g.e[b.node] = eb
	g.next++
	a.alive = false
	b.alive = false
	g.clusters = append(g.clusters, merged)
	return len(g.clusters) - 1, nil
}

// finish turns the merged clusters, whose last live one is the top,
// into the routed tree: it hangs the top below the source (or makes it
// the root), embeds the tree and sums up its delays and cost.
func (g *merger) finish(topIdx int, sinks []geom.Point, source *geom.Point) (*Result, error) {
	m := g.m
	parent, eTmp, nextNode := g.parent, g.e, g.next
	top := g.clusters[topIdx]
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
