package bst

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lubt/internal/geom"
)

// routeReference is Route with the nearest-neighbour search it had
// before the pruned scan: the alive clusters in ascending index order,
// and every refresh visiting every alive cluster. It is the reference
// TestRouteMatchesReference and FuzzRoute hold Route to.
func routeReference(sinks []geom.Point, skewBound float64, source *geom.Point) (*Result, error) {
	m := len(sinks)
	g := newMerger(sinks, skewBound)
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
			if s := g.mergeSum(&g.clusters[ci], &g.clusters[cj]); s < nnCost[ci] {
				nn[ci], nnCost[ci] = cj, s
			}
		}
	}
	for len(alive) > 1 {
		bi := -1
		for _, ci := range alive {
			if nn[ci] < 0 || !g.clusters[nn[ci]].alive {
				refresh(ci)
			}
			if bi < 0 || nnCost[ci] < nnCost[bi] {
				bi = ci
			}
		}
		bj := nn[bi]
		ci, err := g.merge(bi, bj)
		if err != nil {
			return nil, err
		}
		out := alive[:0]
		for _, cj := range alive {
			if cj != bi && cj != bj {
				out = append(out, cj)
			}
		}
		alive = append(out, ci)
		nn[ci] = -1
	}
	return g.finish(alive[0], sinks, source)
}

// routeNet decodes a net from d, which returns a number in [0, k): up to
// 40 sinks placed uniformly, on a small integer grid (ties in every
// distance) or uniformly with repeats of earlier sinks (coincident
// sinks); a skew bound of 0, a finite one or +Inf; and a source unless
// d says otherwise (always one for a single sink).
func routeNet(d func(k int) int) ([]geom.Point, float64, *geom.Point) {
	m := 1 + d(40)
	kind := d(3)
	uniform := func() geom.Point {
		return geom.Pt(float64(d(100000))/1000, float64(d(100000))/1000)
	}
	sinks := make([]geom.Point, m)
	for i := range sinks {
		switch {
		case kind == 1:
			sinks[i] = geom.Pt(float64(d(8)), float64(d(8)))
		case kind == 2 && i > 0 && d(3) == 0:
			sinks[i] = sinks[d(i)]
		default:
			sinks[i] = uniform()
		}
	}
	var skew float64
	switch d(3) {
	case 1:
		skew = float64(d(5000)) / 100
	case 2:
		skew = math.Inf(1)
	}
	var source *geom.Point
	if m == 1 || d(2) == 0 {
		s := uniform()
		if kind == 1 {
			s = geom.Pt(float64(d(8)), float64(d(8)))
		}
		source = &s
	}
	return sinks, skew, source
}

// checkRouteMatchesReference routes a net with Route and with
// routeReference and requires the same verdict, the same parent array
// and bit-identical edge lengths.
func checkRouteMatchesReference(t *testing.T, sinks []geom.Point, skew float64, source *geom.Point) {
	t.Helper()
	got, err := Route(sinks, skew, source)
	want, refErr := routeReference(sinks, skew, source)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("verdicts differ: Route %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	gp, wp := got.Tree.Parent, want.Tree.Parent
	if len(gp) != len(wp) {
		t.Fatalf("%d nodes, reference %d", len(gp), len(wp))
	}
	for v := range gp {
		if gp[v] != wp[v] {
			t.Fatalf("parent of node %d is %d, reference %d", v, gp[v], wp[v])
		}
	}
	for k := range got.E {
		if math.Float64bits(got.E[k]) != math.Float64bits(want.E[k]) {
			t.Fatalf("e[%d] = %v, reference %v", k, got.E[k], want.E[k])
		}
	}
}

// TestRouteMatchesReference holds the pruned nearest-neighbour scan to
// the full rescan on random nets of every shape routeNet decodes.
func TestRouteMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sinks, skew, source := routeNet(rng.Intn)
		checkRouteMatchesReference(t, sinks, skew, source)
	}
}

// FuzzRoute differentially tests Route against routeReference on nets
// decoded from fuzz input, two bytes per choice (zeros once the input
// runs out).
func FuzzRoute(f *testing.F) {
	f.Add([]byte{0, 20, 0, 1, 0, 1, 0, 2})
	f.Add([]byte{0, 39, 0, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := func(k int) int {
			if len(data) < 2 {
				return 0
			}
			v := binary.BigEndian.Uint16(data)
			data = data[2:]
			return int(v) % k
		}
		sinks, skew, source := routeNet(d)
		checkRouteMatchesReference(t, sinks, skew, source)
	})
}

// BenchmarkRoute times Route against the full-rescan reference on
// uniform nets of the clock workloads' sizes, with a source and a skew
// bound of a tenth of the die side.
func BenchmarkRoute(b *testing.B) {
	for _, m := range []int{150, 300, 475, 2500} {
		rng := rand.New(rand.NewSource(int64(m)))
		sinks := randSinks(rng, m)
		src := geom.Pt(50, 50)
		for _, v := range []struct {
			name  string
			route func([]geom.Point, float64, *geom.Point) (*Result, error)
		}{{"pruned", Route}, {"rescan", routeReference}} {
			b.Run(fmt.Sprintf("m%d/%s", m, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := v.route(sinks, 10, &src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
