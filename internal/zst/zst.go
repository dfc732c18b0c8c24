package zst

import (
	"errors"
	"fmt"
	"math"

	"lubt/internal/delay"
	"lubt/internal/embed"
	"lubt/internal/geom"
	"lubt/internal/topology"
)

// Result is a routed exact zero-skew tree.
type Result struct {
	Tree *topology.Tree
	// E holds the constructed edge lengths.
	E []float64
	// Cost is the total wirelength.
	Cost float64
	// Delay is the common Elmore source-sink delay.
	Delay float64
	// Delays holds the per-node Elmore delays (sinks all equal Delay).
	Delays []float64
	// Placement is the DME embedding.
	Placement *embed.Placement
}

// Route builds an exact zero-skew tree over the sinks under the Elmore
// model. sinks[i] is the location of sink i+1; source, when non-nil, is
// the fixed root location (connected by a final balanced... the source
// edge adds equal delay to every sink, so zero skew is preserved).
func Route(sinks []geom.Point, mdl delay.Elmore, source *geom.Point) (*Result, error) {
	m := len(sinks)
	if m == 0 {
		return nil, errors.New("zst: no sinks")
	}
	if err := mdl.Validate(m); err != nil {
		return nil, fmt.Errorf("zst: %w", err)
	}
	if mdl.Rw <= 0 || mdl.Cw <= 0 {
		return nil, fmt.Errorf("zst: Elmore model needs positive r_w and c_w (got %g, %g)", mdl.Rw, mdl.Cw)
	}
	if m == 1 && source == nil {
		return nil, errors.New("zst: a single sink needs a source location")
	}

	type cluster struct {
		node  int // temp node id
		ms    geom.TRR
		t     float64 // common Elmore delay from the merging segment
		c     float64 // subtree capacitance (sinks + wires below)
		alive bool
	}
	clusters := make([]cluster, 1, 2*m)
	for i, p := range sinks {
		clusters = append(clusters, cluster{
			node: i + 1, ms: geom.PointTRR(p), c: capOf(mdl, i+1), alive: true,
		})
	}
	parent := make([]int, 2*m)
	eTmp := make([]float64, 2*m)
	for i := range parent {
		parent[i] = -1
	}

	// balance returns the wire split (l1, l2) that equalizes delay when
	// joining clusters a, b across segment distance d, plus the merged
	// delay and the total wire spent.
	balance := func(a, b *cluster, d float64) (l1, l2, t float64) {
		if d > 0 {
			// Tapping point x ∈ [0,1] on the direct wire (Tsay's formula):
			// t1 + r x d (c x d/2 + C1) = t2 + r (1−x) d (c (1−x) d /2 + C2).
			x := (b.t - a.t + mdl.Rw*d*(b.c+mdl.Cw*d/2)) /
				(mdl.Rw * d * (a.c + b.c + mdl.Cw*d))
			if x >= 0 && x <= 1 {
				l1, l2 = x*d, (1-x)*d
				t = a.t + mdl.Rw*l1*(mdl.Cw*l1/2+a.c)
				return l1, l2, t
			}
			if x < 0 {
				// Side a is too slow even with the whole wire on b's side:
				// elongate b's wire beyond d.
				l1 = 0
				l2 = elongation(mdl, a.t-b.t, b.c)
				return l1, l2, a.t
			}
			// x > 1: side b too slow; elongate a's wire.
			l2 = 0
			l1 = elongation(mdl, b.t-a.t, a.c)
			return l1, l2, b.t
		}
		// Segments touch: pure elongation (or zero wire when balanced).
		switch {
		case a.t > b.t:
			return 0, elongation(mdl, a.t-b.t, b.c), a.t
		case b.t > a.t:
			return elongation(mdl, b.t-a.t, a.c), 0, b.t
		default:
			return 0, 0, a.t
		}
	}
	mergeCost := func(a, b *cluster) float64 {
		l1, l2, _ := balance(a, b, a.ms.Dist(b.ms))
		return l1 + l2
	}

	alive := make([]int, 0, m)
	for i := 1; i <= m; i++ {
		alive = append(alive, i)
	}
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
			if s := mergeCost(&clusters[ci], &clusters[cj]); s < nnCost[ci] {
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
		d := a.ms.Dist(b.ms)
		l1, l2, t := balance(a, b, d)
		ms := a.ms.Expand(l1).Intersect(b.ms.Expand(l2))
		if ms.Empty() {
			return nil, fmt.Errorf("zst: internal error: empty merging segment joining %d and %d", a.node, b.node)
		}
		merged := cluster{
			node:  nextNode,
			ms:    ms,
			t:     t,
			c:     a.c + b.c + mdl.Cw*(l1+l2),
			alive: true,
		}
		parent[a.node] = nextNode
		parent[b.node] = nextNode
		eTmp[a.node] = l1
		eTmp[b.node] = l2
		nextNode++
		a.alive = false
		b.alive = false
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
		parent[0] = -1
		parent[top.node] = 0
		eTmp[top.node] = top.ms.DistPoint(*source)
		tree, err = topology.New(parent[:nextNode], m)
		if err != nil {
			return nil, fmt.Errorf("zst: %w", err)
		}
		e = eTmp[:nextNode]
	} else {
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
			return nil, fmt.Errorf("zst: %w", err)
		}
	}

	sinkLoc := make([]geom.Point, m+1)
	copy(sinkLoc[1:], sinks)
	pl, err := embed.Place(tree, sinkLoc, source, e, nil)
	if err != nil {
		return nil, fmt.Errorf("zst: constructed lengths failed to embed: %w", err)
	}
	delays := mdl.Delays(tree, e)
	res := &Result{
		Tree:      tree,
		E:         e,
		Delays:    delays,
		Placement: pl,
		Delay:     delays[1],
	}
	for k := 1; k < tree.N(); k++ {
		res.Cost += e[k]
	}
	return res, nil
}

// elongation returns the wire length l solving
//
//	r l (c l / 2 + C) = Δt,  l ≥ 0,
//
// the snaking length that slows a subtree with load C by exactly Δt.
func elongation(mdl delay.Elmore, dt, c float64) float64 {
	if dt <= 0 {
		return 0
	}
	return (-c + math.Sqrt(c*c+2*mdl.Cw*dt/mdl.Rw)) / mdl.Cw
}

func capOf(mdl delay.Elmore, sink int) float64 {
	if mdl.SinkCap == nil || sink >= len(mdl.SinkCap) {
		return 0
	}
	return mdl.SinkCap[sink]
}
