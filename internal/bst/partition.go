package bst

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lubt/internal/delay"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/topology"
)

// RoutePartitioned builds a baseline routing tree at scale by splitting
// the sinks into contiguous angular sectors around the source, routing
// each sector independently with Route, and hanging every sector tree
// off a common source root. Greedy cluster merging is quadratic in the
// sink count, so sectoring divides the construction cost by roughly the
// sector count; it also yields a topology whose root has one branch per
// non-empty sector, which is exactly the shape the subtree decomposition
// in internal/core exploits.
//
// The skew bound is enforced per sector: each sector tree respects it,
// but sector top-edge lengths differ, so the merged tree's global skew
// may exceed the bound. That looseness is deliberate — in the EBF
// methodology the baseline only fixes the topology and the delay window;
// retightening the skew is the LP's job.
//
// The partition is deterministic: sinks are ordered by angle about the
// source (ties broken by sink index) and chunked into near-equal runs.
// Sector count is clamped to the sink count; sectors < 2 degenerates to
// a plain Route call.
func RoutePartitioned(sinks []geom.Point, skewBound float64, source geom.Point, sectors int) (*Result, error) {
	m := len(sinks)
	if sectors > m {
		sectors = m
	}
	if sectors < 2 {
		return Route(sinks, skewBound, &source)
	}

	angle := make([]float64, m)
	byAngle := make([]int, m) // 0-based sink indices
	for i, p := range sinks {
		angle[i] = math.Atan2(p.Y-source.Y, p.X-source.X)
		byAngle[i] = i
	}
	slices.SortStableFunc(byAngle, func(a, b int) int { return cmp.Compare(angle[a], angle[b]) })

	// Route each near-equal angular run. Sector s covers byAngle[lo:hi).
	type sector struct {
		members []int // 0-based global sink indices, angular order
		res     *Result
	}
	var secs []sector
	for s := 0; s < sectors; s++ {
		lo, hi := s*m/sectors, (s+1)*m/sectors
		if lo == hi {
			continue
		}
		secs = append(secs, sector{members: byAngle[lo:hi]})
	}
	for si := range secs {
		pts := make([]geom.Point, len(secs[si].members))
		for j, gi := range secs[si].members {
			pts[j] = sinks[gi]
		}
		res, err := Route(pts, skewBound, &source)
		if err != nil {
			return nil, fmt.Errorf("bst: sector %d: %w", si, err)
		}
		secs[si].res = res
	}

	// Merge: node 0 is the source, sinks keep their global ids 1…m, and
	// each sector's Steiner nodes are renumbered after them in sector
	// order. Every sector tree is rooted at its own source node 0 with
	// its top cluster as the single child; that child reattaches to the
	// merged root.
	n := 1 + m
	for _, sec := range secs {
		n += sec.res.Tree.N() - 1 - sec.res.Tree.NumSinks
	}
	parent := make([]int, n)
	e := make([]float64, n)
	parent[0] = -1
	nextSteiner := 1 + m
	for _, sec := range secs {
		st := sec.res.Tree
		mapID := make([]int, st.N())
		mapID[0] = 0
		for sub := 1; sub <= st.NumSinks; sub++ {
			mapID[sub] = sec.members[sub-1] + 1
		}
		for sub := st.NumSinks + 1; sub < st.N(); sub++ {
			mapID[sub] = nextSteiner
			nextSteiner++
		}
		for sub := 1; sub < st.N(); sub++ {
			g := mapID[sub]
			parent[g] = mapID[st.Parent[sub]]
			e[g] = sec.res.E[sub]
		}
	}
	tree, err := topology.New(parent, m)
	if err != nil {
		return nil, fmt.Errorf("bst: merged sector topology: %w", err)
	}
	// A root with one child per sector violates the paper's degree bound;
	// the Fig. 2 split hangs the extra sectors off a forced-zero Steiner
	// spine, which preserves every path length (and which the subtree
	// decomposition in internal/core sees through when collecting root
	// branches).
	tree, err = tree.SplitHighDegree()
	if err != nil {
		return nil, fmt.Errorf("bst: merged sector topology: %w", err)
	}
	for len(e) < tree.N() {
		e = append(e, 0)
	}

	sinkLoc := make([]geom.Point, m+1)
	copy(sinkLoc[1:], sinks)
	pl, err := embed.Place(tree, sinkLoc, &source, e, nil)
	if err != nil {
		return nil, fmt.Errorf("bst: partitioned lengths failed to embed: %w", err)
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
