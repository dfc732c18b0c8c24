package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lubt/internal/bst"
	"lubt/internal/geom"
	"lubt/internal/topology"
	"lubt/internal/wkld"
)

// ebfNet is the EBF linear program of a benchmark net on the
// bounded-skew baseline topology with a fixed source: edge lengths e_k ≥ 0
// at unit cost, a delay window on every sink's source path, and the
// Steiner rows e(path(i, j)) ≥ dist(i, j), added round by round as the
// §4.6 loop does. It drives lp.Revised the way internal/core does, without
// importing it.
type ebfNet struct {
	tree     *topology.Tree
	loc      []geom.Point // loc[i] is sink i (1-based)
	src      geom.Point
	lo, hi   float64 // the sinks' delay window
	delayRow []int   // sink → tableau row of its window
	have     map[[2]int]bool
	// maxPivots is the most pivots one Solve took.
	maxPivots int
}

func newEBFNet(t *testing.T, name string) *ebfNet {
	t.Helper()
	b, err := wkld.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	radius := 0.0
	for _, s := range b.Sinks {
		radius = max(radius, geom.Dist(b.Source, s))
	}
	base, err := bst.Route(b.Sinks, 0.1*radius, &b.Source)
	if err != nil {
		t.Fatal(err)
	}
	hi := base.Stats.Max
	return &ebfNet{
		tree: base.Tree,
		loc:  append([]geom.Point{b.Source}, b.Sinks...),
		src:  b.Source,
		lo:   max(0, hi-0.1*radius),
		hi:   hi,
		have: map[[2]int]bool{},
	}
}

func pathTerms(edges []int) []Term {
	ts := make([]Term, len(edges))
	for q, k := range edges {
		ts[q] = Term{Var: k, Coef: 1}
	}
	return ts
}

// engine builds the engine with every sink's window as its first rows.
func (nt *ebfNet) engine() *Revised {
	n, m := nt.tree.N(), nt.tree.NumSinks
	costs := make([]float64, n)
	for k := 1; k < n; k++ {
		costs[k] = 1
	}
	rv := NewRevised(n, costs)
	rv.checkPivots = true
	nt.delayRow = make([]int, m+1)
	for i := 1; i <= m; i++ {
		nt.delayRow[i] = rv.TableauRows()
		lo, hi := nt.window(i)
		rv.AddRangedRow(pathTerms(nt.tree.PathToRoot(i)), lo, hi)
	}
	return rv
}

// window is sink i's delay window, raised to its source distance.
func (nt *ebfNet) window(i int) (lo, hi float64) {
	return max(nt.lo, geom.Dist(nt.src, nt.loc[i])), nt.hi
}

// solve re-solves, adding for every sink the Steiner row of its most
// violated pair at each optimum, until none is violated or the LP turns
// infeasible. It records the most pivots one Solve took in maxPivots.
func (nt *ebfNet) solve(t *testing.T, rv *Revised) *Solution {
	t.Helper()
	m := nt.tree.NumSinks
	for {
		before := rv.Iterations()
		sol, err := rv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		nt.maxPivots = max(nt.maxPivots, rv.Iterations()-before)
		if sol.Status != Optimal {
			return sol
		}
		d := nt.tree.Delays(sol.X)
		added := 0
		for i := 1; i <= m; i++ {
			worst, wj := 0.0, 0
			for j := 1; j <= m; j++ {
				if j == i || nt.have[[2]int{min(i, j), max(i, j)}] {
					continue
				}
				dist := geom.Dist(nt.loc[i], nt.loc[j])
				if v := dist - (d[i] + d[j] - 2*d[nt.tree.LCA(i, j)]); v > 1e-9*(1+dist) && v > worst {
					worst, wj = v, j
				}
			}
			if wj > 0 {
				rv.AddRow(pathTerms(nt.tree.Path(i, wj)), GE, geom.Dist(nt.loc[i], nt.loc[wj]))
				nt.have[[2]int{min(i, wj), max(i, wj)}] = true
				added++
			}
		}
		if added == 0 {
			return sol
		}
	}
}

// TestSparsePivotStateEBF runs the §4.6 loop on prim2-s and r4-s under
// Devex pricing with the per-pivot check of the sparse pivot state on
// (Revised.checkState panics on the first difference from a full
// recomputation). On r4-s a single Solve runs past refEach pivots, so
// the check also crosses the periodic refactorization inside a Solve.
func TestSparsePivotStateEBF(t *testing.T) {
	for _, name := range []string{"prim2-s", "r4-s"} {
		t.Run(name+"/devex", func(t *testing.T) {
			nt := newEBFNet(t, name)
			rv := nt.engine()
			if sol := nt.solve(t, rv); sol.Status != Optimal {
				t.Fatalf("status %v", sol.Status)
			}
			if rv.Iterations() == 0 {
				t.Fatal("no pivots: the check never ran")
			}
			if name == "r4-s" && nt.maxPivots <= rv.refEach {
				t.Fatalf("no Solve ran past refEach = %d pivots (most %d)", rv.refEach, nt.maxPivots)
			}
		})
	}
}

// TestSparsePivotStateECO checks the sparse pivot state across restaging
// edits between solves: window retightens (the same-pattern restage),
// reweights of basic and nonbasic edges, row deletions and revivals,
// pattern-changing row replacements and variable boxes.
func TestSparsePivotStateECO(t *testing.T) {
	t.Run("devex", func(t *testing.T) {
		nt := newEBFNet(t, "prim2-s")
		rv := nt.engine()
		nt.solve(t, rv)
		rng := rand.New(rand.NewSource(15))
		m, n := nt.tree.NumSinks, nt.tree.N()
		deleted := map[int]bool{}
		for step := 0; step < 24; step++ {
			i := 1 + rng.Intn(m)
			terms := pathTerms(nt.tree.PathToRoot(i))
			switch step % 6 {
			case 0: // retighten: same terms, narrower window
				lo, hi := nt.window(i)
				if !deleted[i] {
					rv.ReplaceRangedRow(nt.delayRow[i], terms, lo+0.3*(hi-lo), hi)
				}
			case 1: // reweight an edge (basic or not)
				rv.SetCost(1+rng.Intn(n-1), 0.5+rng.Float64())
			case 2: // relax a window away: delete its row
				if !deleted[i] {
					rv.DeleteRow(nt.delayRow[i])
					deleted[i] = true
				}
			case 3: // revive every deleted window
				for k := 1; k <= m; k++ {
					if deleted[k] {
						lo, hi := nt.window(k)
						rv.ReplaceRangedRow(nt.delayRow[k], pathTerms(nt.tree.PathToRoot(k)), lo, hi)
						delete(deleted, k)
					}
				}
			case 4: // a pattern change: the window on the parent's path
				if par := nt.tree.Parent[i]; par > 0 && !deleted[i] {
					rv.ReplaceRangedRow(nt.delayRow[i], pathTerms(nt.tree.PathToRoot(par)), 0, nt.hi)
				}
			case 5: // box an edge around its value, then restore the window
				k := 1 + rng.Intn(n-1)
				rv.SetVarBounds(k, 0, 2*rv.structVal(k)+1)
				if lo, hi := nt.window(i); !deleted[i] {
					rv.ReplaceRangedRow(nt.delayRow[i], terms, lo, hi)
				}
			}
			nt.solve(t, rv)
		}
		if rv.Stats().Restages == 0 || rv.Stats().RowReplacements == 0 {
			t.Fatalf("edits did not restage: %+v", rv.Stats())
		}
	})
}

// TestNoteInfeasibleMerge pins the in-place merge of the infeasible list:
// the result is ascending, free of repeats, and holds the old list plus
// exactly the new positions outside their box.
func TestNoteInfeasibleMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		rv := NewRevised(1, []float64{1})
		for k := 0; k < m; k++ {
			rv.AddRow([]Term{{0, 1}}, LE, 1)
		}
		var old []int32
		for p := 0; p < m; p++ {
			if rng.Intn(3) == 0 {
				old = append(old, int32(p))
			}
		}
		rv.infeas = slices.Clone(old)
		z := &rv.w
		z.reset(m)
		want := map[int32]bool{}
		for _, p := range old {
			want[p] = true
		}
		for p := 0; p < m; p++ {
			if rng.Intn(3) != 0 {
				continue
			}
			z.push(p)
			rv.xB[p] = 0
			if rng.Intn(2) == 0 {
				rv.xB[p] = -1 // below its slack's lower bound 0
				want[int32(p)] = true
			}
		}
		rv.noteInfeasible(z, 1e-9)
		if z.dense {
			continue // the full rescan path
		}
		var got []int32
		for p := range want {
			got = append(got, p)
		}
		slices.Sort(got)
		if !slices.Equal(rv.infeas, got) {
			t.Fatalf("trial %d: merged %v, want %v (old %v, step %v)", trial, rv.infeas, got, old, z.idx)
		}
	}
}

// TestSvecDenseFallback: a vector whose list would pass its share of the
// length turns dense, and reset then clears every entry it may have
// written and every bit it set; afterwards push dedupes by bit and sort
// lists across bit words in ascending order.
func TestSvecDenseFallback(t *testing.T) {
	var v svec
	n := 200
	x := v.reset(n)
	for i := 0; i < n; i += 2 {
		x[i] = 1
		v.push(i)
	}
	if !v.dense || v.n() != n || v.at(7) != 7 {
		t.Fatalf("dense %v n %d after %d pushes", v.dense, v.n(), n/2)
	}
	x = v.reset(n)
	for i, xi := range x {
		if xi != 0 {
			t.Fatalf("x[%d] = %g after reset", i, xi)
		}
	}
	for wi, w := range v.bits {
		if w != 0 {
			t.Fatalf("bit word %d = %#x after a dense reset", wi, w)
		}
	}
	x[5], x[3] = 2, 1
	v.push(5)
	v.push(3)
	v.push(5)
	v.push(130)
	v.sort()
	if v.dense || !slices.Equal(v.idx, []int32{3, 5, 130}) {
		t.Fatalf("sparse list %v (dense %v), want [3 5 130]", v.idx, v.dense)
	}
	if math.Abs(x[3]+x[5]-3) != 0 {
		t.Fatal("values moved")
	}
}
