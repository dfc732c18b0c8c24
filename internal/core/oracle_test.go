package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"lubt/internal/geom"
	"lubt/internal/topology"
)

// This file holds the brute-force references the separation oracle
// (presolve.go) and Verify are checked against — the O(m²) pair scans
// and the pairwise window-dominance test — and the fuzz target that
// compares them on random small instances.

// violatedPairsN is the brute-force reference oracle: it scans all
// fixed-point pairs for Steiner violations under edge lengths e and
// returns the worst `batch` of them. Path lengths use the O(1) LCA, so a
// scan is O(m²) — and embarrassingly parallel, so the sink-pair rows are
// striped across a worker pool (workers ≤ 0 means GOMAXPROCS). The result
// is deterministic for any worker count: the merged violations are sorted
// by amount with (i, j) as the tie-break before batching.
func violatedPairsN(in *Instance, e []float64, tol float64, batch, workers int) [][2]int {
	t := in.Tree
	d := t.Delays(e)
	m := t.NumSinks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if m < 64 {
		// Not enough pairs to amortize goroutine startup.
		workers = 1
	}
	if workers > m {
		workers = m
	}
	var vs []sepViol
	scan := func(start, stride int) []sepViol {
		var local []sepViol
		for i := 1 + start; i <= m; i += stride {
			for j := i + 1; j <= m; j++ {
				need := in.Dist(i, j)
				if need == 0 {
					continue
				}
				if pl := t.PathLength(i, j, d); need-pl > tol {
					local = append(local, sepViol{[2]int{i, j}, need - pl})
				}
			}
		}
		return local
	}
	if workers <= 1 {
		vs = scan(0, 1)
	} else {
		locals := make([][]sepViol, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				locals[w] = scan(w, workers)
			}(w)
		}
		wg.Wait()
		for _, l := range locals {
			vs = append(vs, l...)
		}
	}
	if in.Source != nil {
		for i := 1; i <= m; i++ {
			if need := in.Dist(0, i); need-d[i] > tol {
				vs = append(vs, sepViol{[2]int{0, i}, need - d[i]})
			}
		}
	}
	sort.Slice(vs, func(a, b int) bool {
		if vs[a].amount != vs[b].amount {
			return vs[a].amount > vs[b].amount
		}
		if vs[a].pair[0] != vs[b].pair[0] {
			return vs[a].pair[0] < vs[b].pair[0]
		}
		return vs[a].pair[1] < vs[b].pair[1]
	})
	if len(vs) > batch {
		vs = vs[:batch]
	}
	out := make([][2]int, len(vs))
	for i, v := range vs {
		out[i] = v.pair
	}
	return out
}

// verifyLCA is the pairwise reference of Verify: checkBounds, then every
// sink pair in lexicographic order with the O(1) sparse-table LCA, so
// the first error is the lexicographically first violated pair.
func verifyLCA(in *Instance, b Bounds, e []float64, tol float64) error {
	t := in.Tree
	d := t.Delays(e)
	if err := checkBounds(in, b, e, d, tol); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	m := t.NumSinks
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			if pl, need := t.PathLength(i, j, d), in.Dist(i, j); !(pl >= need-tol) {
				return fmt.Errorf("core: Steiner constraint (%d,%d) violated: path %g < dist %g", i, j, pl, need)
			}
		}
	}
	return nil
}

// dominatesWindow is the pairwise reference of the window arm: row (i,j)
// is implied by the stated row (k,l) plus the delay windows, which
// requires both pairs to cross the same ordered child-subtree pair under
// their common LCA. The caller guarantees row (k,l) is (or will be)
// stated in the LP. Self-domination reports false — a tie must keep its
// witness.
func dominatesWindow(in *Instance, b Bounds, i, j, k, l int) bool {
	t := in.Tree
	if i > j {
		i, j = j, i
	}
	if k > l {
		k, l = l, k
	}
	if i == k && j == l {
		return false
	}
	v := t.LCA(i, j)
	if t.LCA(k, l) != v {
		return false
	}
	// Each pair must straddle the same two child subtrees of v. A pair
	// with an endpoint equal to v itself (a non-leaf sink) is degenerate:
	// its path-length formula loses the cancelling d_v term, so the
	// window argument does not apply.
	ci, cj := childToward(t, v, i), childToward(t, v, j)
	ck, cl := childToward(t, v, k), childToward(t, v, l)
	if ci == v || cj == v || ck == v || cl == v {
		return false
	}
	if !(ci == ck && cj == cl) && !(ci == cl && cj == ck) {
		return false
	}
	// The test is symmetric in (k,l), so no re-orientation is needed.
	lam, cu := enforcedWindowTerms(b, t.NumSinks)
	if math.IsInf(cu[k], 1) || math.IsInf(cu[l], 1) {
		return false
	}
	return in.Dist(i, j)-lam[i]-lam[j] <= in.Dist(k, l)-cu[k]-cu[l]
}

// childToward returns the child of v whose subtree contains x (v itself
// when x == v).
func childToward(t *topology.Tree, v, x int) int {
	if x == v {
		return v
	}
	for t.Parent[x] != v {
		x = t.Parent[x]
	}
	return x
}

// decodeOracleCase turns fuzz bytes into a small instance, its delay
// windows and an edge vector. Bytes past the end read as 0, so every
// input decodes. The layout, in order:
//
//   - m = 1 + b%12 sinks and b%13 Steiner nodes;
//   - a flag byte (bit 0: fixed source), then the source's x, y;
//   - one rank byte per node 1…n−1: nodes attach in (rank, id) order,
//     then one byte per node in that order picks its parent among the
//     root and the nodes attached before it — any rooted tree, with
//     non-leaf sinks, Steiner leaves and high degree;
//   - each sink's x, y as signed bytes;
//   - each sink's window: a kind byte (0 finite [l, l+δ], 1 one-sided —
//     a side byte, bit 0 set for [l, ∞), clear for [0, u] — then the
//     value, 2 l = u, 3 [0, ∞)) and its value bytes;
//   - each edge's length, a byte / 4.
//
// Every value is an integer or a quarter, so all distances, delays and
// window terms are exact in floating point.
func decodeOracleCase(data []byte) (*Instance, Bounds, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	coord := func() float64 { return float64(int8(next())) }
	m := 1 + next()%12
	n := 1 + m + next()%13
	var src *geom.Point
	if next()&1 == 1 {
		p := geom.Pt(coord(), coord())
		src = &p
	}
	rank := make([]int, n)
	order := make([]int, 0, n-1)
	for k := 1; k < n; k++ {
		rank[k] = next()
		order = append(order, k)
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] < rank[order[b]] })
	parent := make([]int, n)
	parent[0] = -1
	attached := []int{0}
	for _, k := range order {
		parent[k] = attached[next()%len(attached)]
		attached = append(attached, k)
	}
	in := &Instance{Tree: topology.MustNew(parent, m), SinkLoc: make([]geom.Point, m+1), Source: src}
	for i := 1; i <= m; i++ {
		in.SinkLoc[i] = geom.Pt(coord(), coord())
	}
	b := Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		switch next() % 4 {
		case 0:
			b.L[i] = float64(next())
			b.U[i] = b.L[i] + float64(next())
		case 1:
			if next()&1 == 1 {
				b.L[i], b.U[i] = float64(next()), math.Inf(1)
			} else {
				b.U[i] = float64(next())
			}
		case 2:
			b.L[i] = float64(next())
			b.U[i] = b.L[i]
		default:
			b.U[i] = math.Inf(1)
		}
	}
	e := make([]float64, n)
	for k := 1; k < n; k++ {
		e[k] = float64(next()) / 4
	}
	return in, b, e
}

// pairSet collects oracle output for membership tests.
func pairSet(pairs [][2]int) map[[2]int]bool {
	s := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		s[p] = true
	}
	return s
}

// witnessOf returns the witness of the cross block holding sink pair p.
func witnessOf(in *Instance, ps *presolve, p [2]int) ([2]int, bool) {
	t := in.Tree
	v := t.LCA(p[0], p[1])
	ci, cj := childToward(t, v, p[0]), childToward(t, v, p[1])
	for _, blk := range ps.blocks {
		if blk.v != v || blk.a == v || blk.wi < 0 {
			continue
		}
		if (blk.a == ci && blk.b == cj) || (blk.a == cj && blk.b == ci) {
			return [2]int{blk.wi, blk.wj}, true
		}
	}
	return [2]int{}, false
}

// checkVerifyMatchesLCA requires Verify to return what the pairwise
// reference verifyLCA returns: nil, or the same error text.
func checkVerifyMatchesLCA(t *testing.T, label string, in *Instance, b Bounds, e []float64, tol float64) {
	t.Helper()
	got, want := Verify(in, b, e, tol), verifyLCA(in, b, e, tol)
	switch {
	case (got == nil) != (want == nil):
		t.Errorf("%s: Verify = %v, the LCA reference = %v", label, got, want)
	case got != nil && got.Error() != want.Error():
		t.Errorf("%s: Verify = %q, the LCA reference = %q", label, got, want)
	}
}

// FuzzSeparationOracle checks the block oracle against the brute-force
// scan on decoded instances. Without the window arm it must report the
// scan's pairs and worst violation; with the arm, every violated pair it
// leaves out must be dominated by its block's witness, which must be a
// seed, or be a source row its sink's lower window implies. Pairs whose
// violation lies within 1e-9·R of the tolerance may go either way.
// Verify must return exactly what its LCA reference returns, once with
// the decoded windows and once with the windows relaxed to [0, ∞) and the
// source dropped: the decoded edges are non-negative, so there the pair
// scan decides.
func FuzzSeparationOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, b, e := decodeOracleCase(data)
		tree := in.Tree
		m := tree.NumSinks
		d := tree.Delays(e)
		r := math.Max(1, in.Radius())
		tol, margin := 1e-7*r, 1e-9*r

		checkVerifyMatchesLCA(t, "decoded windows", in, b, e, tol)
		free := *in
		free.Source = nil
		checkVerifyMatchesLCA(t, "open windows", &free, UniformBounds(m, 0, math.Inf(1)), e, tol)
		amount := func(p [2]int) float64 {
			if p[0] == 0 {
				return in.Dist(0, p[1]) - d[p[1]]
			}
			return in.Dist(p[0], p[1]) - tree.PathLength(p[0], p[1], d)
		}
		decided := func(p [2]int) bool { return math.Abs(amount(p)-tol) > margin }
		scan := pairSet(violatedPairsN(in, e, tol, 1<<30, 1))

		ps := newPresolve(in, nil)
		got := pairSet(ps.violatedPairs(d, tol, 1<<30, 0))
		for p := range scan {
			if !got[p] && decided(p) {
				t.Errorf("oracle misses %v (violation %g)", p, amount(p))
			}
		}
		for p := range got {
			if !scan[p] && decided(p) {
				t.Errorf("oracle reports %v (violation %g), the scan does not", p, amount(p))
			}
		}
		worst := 0.0
		for i := 1; i <= m; i++ {
			for j := i + 1; j <= m; j++ {
				worst = max(worst, amount([2]int{i, j}))
			}
			if in.Source != nil {
				worst = max(worst, amount([2]int{0, i}))
			}
		}
		if w := ps.worstViolation(d); math.Abs(w-worst) > margin {
			t.Errorf("worst violation %g, the scan's %g", w, worst)
		}

		pw := newPresolve(in, &b)
		seeds := pairSet(pw.seedPairs())
		gotW := pairSet(pw.violatedPairs(d, tol, 1<<30, 0))
		lam, _ := enforcedWindowTerms(b, m)
		for p := range scan {
			if gotW[p] || !decided(p) {
				continue
			}
			if p[0] == 0 {
				if lam[p[1]] < in.Dist(0, p[1]) {
					t.Errorf("window arm drops source row %v, which λ = %g does not imply", p, lam[p[1]])
				}
				continue
			}
			w, ok := witnessOf(in, pw, p)
			switch {
			case !ok:
				t.Errorf("window arm drops %v outside every witnessed cross block", p)
			case !seeds[w]:
				t.Errorf("window arm drops %v under witness %v, which is not a seed", p, w)
			case p != w && !dominatesWindow(in, b, p[0], p[1], w[0], w[1]):
				t.Errorf("window arm drops %v, which witness %v does not dominate", p, w)
			}
		}
		for p := range gotW {
			if !scan[p] && decided(p) {
				t.Errorf("window arm reports %v (violation %g), the scan does not", p, amount(p))
			}
		}
	})
}
