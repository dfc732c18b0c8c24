package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// This file is the separation oracle of the §4.6 row generation, the
// one every solve uses: Solve, the ECO Session and the Elmore SLP. It
// groups the fixed-point Steiner rows into blocks whose worst violation
// has an exact O(1) bound, so a round skips every block that bound
// clears, and where the caller states fixed linear delay windows it
// prunes the rows those windows imply (the window arm).
//
// A sink pair (i,j) lies in exactly one block:
//
//   - a cross block (node v, ordered child-subtree pair (A,B)) when i ∈ A
//     and j ∈ B: the pair's LCA is v and pathlen(i,j) = d_i + d_j − 2·d_v;
//   - an ancestor block (sink v, child subtree C) when i = v is an
//     ancestor of j ∈ C, which only a topology with non-leaf sinks has:
//     pathlen(v,j) = d_j − d_v.
//
// The window arm is window dominance inside a cross block, where the
// shared d_v term cancels and the stated delay windows carry the
// implication. If row (k,l) is stated and the windows enforce
// d_k ≤ cu_k, d_l ≤ cu_l, then at every LP-feasible point
// 2·d_v ≤ cu_k + cu_l − dist(k,l), so with d_i ≥ λ_i, d_j ≥ λ_j,
//
//	pathlen(i,j) = d_i + d_j − 2·d_v
//	             ≥ λ_i + λ_j − cu_k − cu_l + dist(k,l),
//
// which meets dist(i,j) whenever
//
//	dist(i,j) − λ_i − λ_j ≤ dist(k,l) − cu_k − cu_l.
//
// Here cu_x is the sink's enforced (finite) upper window and λ_x the
// enforced lower window, or 0 — path lengths are non-negative — when the
// lower side is vacuous. The arm also drops every source row (0,i) that
// the sink's lower window implies (λ_i ≥ dist(0,i)). Ancestor blocks are
// never pruned: d_v does not cancel in their path length.
//
// Each cross block keeps the witness (k,l) maximizing dist(k,l) − cu_k −
// cu_l; without windows, or when one side of the block has no finite
// upper window, its witness is its farthest pair and it prunes nothing.
// The witness rows and the unpruned source rows are the seeds stated
// before the first round, so the window arm holds at every iterate, and
// every other pair of the block that passes the test above is never
// generated or priced. Only Solve passes its windows: the Session edits its
// windows and the SLP's windows are not linear, so they run without the
// arm. Because Manhattan distance is
// a max of four separable linear forms in the rotated coordinates
// u = x+y, v = x−y, the witness, the block-wide static maximum of
// dist − λ − λ, and the per-round exact bound on each block's worst
// violation all come from O(1) combinations of per-subtree extremes
// maintained in one O(n) bottom-up fold.

// psForms are the four rotated-coordinate linear forms whose pairwise
// maximum is the Manhattan distance: dist(k,l) = max_f form_f(k) +
// form_conj(f)(l), with conj(f) = f XOR 1.
const psForms = 4

// ext4 holds per-subtree maxima of the four forms, each shifted by a
// per-sink adjustment, with the achieving sink.
type ext4 struct {
	m   [psForms]float64
	arg [psForms]int
}

func emptyExt4() ext4 {
	var e ext4
	for f := 0; f < psForms; f++ {
		e.m[f] = math.Inf(-1)
		e.arg[f] = -1
	}
	return e
}

// fold widens e by o's extremes.
func (e *ext4) fold(o ext4) {
	for f := 0; f < psForms; f++ {
		if o.m[f] > e.m[f] {
			e.m[f] = o.m[f]
			e.arg[f] = o.arg[f]
		}
	}
}

// sinkExt4 builds the single-sink extreme record for sink s with the
// given per-sink adjustment (each form value is form(s) − adj).
func sinkExt4(u, v, adj float64, s int) ext4 {
	var e ext4
	e.m[0], e.m[1] = u-adj, -u-adj
	e.m[2], e.m[3] = v-adj, -v-adj
	for f := 0; f < psForms; f++ {
		e.arg[f] = s
	}
	return e
}

// maxCombo returns the exact maximum over pairs (k ∈ A, l ∈ B) of
// dist(k,l) − adj_k − adj_l given the adjusted extremes of the two
// subtrees, plus an achieving pair (−1s when either side is empty).
func maxCombo(a, b ext4) (best float64, argA, argB int) {
	best, argA, argB = math.Inf(-1), -1, -1
	for f := 0; f < psForms; f++ {
		if v := a.m[f] + b.m[f^1]; v > best {
			best, argA, argB = v, a.arg[f], b.arg[f^1]
		}
	}
	return best, argA, argB
}

// psBlock is one block of sink-pair rows: a cross block (node v,
// ordered child-subtree pair (a, b)), whose pairs share the LCA v so
// the window arm applies within it, or an ancestor block (a == v, a
// sink): the pairs (v, j) for every sink j in child subtree b.
type psBlock struct {
	v, a, b int
	// score is the witness objective dist(k,l) − cu_k − cu_l, or −Inf
	// when the window arm is off in this block; wi < wj is the witness
	// pair, the block's seed (−1s for an ancestor block).
	score  float64
	wi, wj int
	// allDominated marks a block whose static maximum of dist − λ − λ is ≤
	// score: every pair but the witness is dominated and the block is
	// skipped wholesale.
	allDominated bool
	// counted marks that the block's pruned-pair count has been folded
	// into the stats (set on the first scan, or at build time for
	// allDominated blocks). Written only by the block's striped owner.
	counted bool
}

// presolve is the separation oracle of one solve: immutable window
// terms and block structure plus the per-round dynamic extremes.
type presolve struct {
	in     *Instance
	lam    []float64 // enforced lower windows per sink (index 1…m); zero without the window arm
	uu, vv []float64 // rotated sink coordinates (index 1…m)

	order, lo, hi []int // DFS sink order and per-node spans
	post          []int // tree postorder

	blocks []psBlock
	// sourceImplied[i] marks source row (0,i) as implied by the sink's
	// enforced lower window (λ_i ≥ dist(0,i)); such rows are pruned. All
	// false without the window arm; nil without a source.
	sourceImplied []bool

	// pruned counts dominated rows never generated or priced: the
	// closed-form count of allDominated blocks and implied source rows,
	// plus per-pair counts folded in on each block's first scan.
	pruned int64

	dynExt []ext4 // per-node extremes of form − d, refolded each round
}

// enforcedWindowTerms lowers the stated bounds to the per-sink terms the
// window arm may rely on: cu is the enforced upper window (+Inf when
// none is stated) and λ the enforced lower window clamped at the
// structural floor 0.
func enforcedWindowTerms(b Bounds, m int) (lam, cu []float64) {
	lam = make([]float64, m+1)
	cu = make([]float64, m+1)
	for i := 1; i <= m; i++ {
		lo, hi, ok := delayWindow(b.L[i], b.U[i])
		if !ok {
			cu[i] = math.Inf(1)
			continue
		}
		cu[i] = hi // delayWindow keeps hi = U[i] (possibly +Inf)
		if !math.IsInf(lo, -1) && lo > 0 {
			lam[i] = lo
		}
	}
	return lam, cu
}

// newPresolve builds the oracle for one instance: the DFS spans, the
// blocks and their seeds, and — when the caller passes the delay windows
// it states as fixed linear rows — the window arm's witnesses, static
// prune decisions and implied-source-row marks. A nil windows runs
// without the arm. Cost is O(n) plus O(blocks).
func newPresolve(in *Instance, windows *Bounds) *presolve {
	t := in.Tree
	m := t.NumSinks
	ps := &presolve{in: in, lam: make([]float64, m+1)}
	ps.uu = make([]float64, m+1)
	ps.vv = make([]float64, m+1)
	for i := 1; i <= m; i++ {
		ps.uu[i], ps.vv[i] = in.SinkLoc[i].UV()
	}
	ps.order, ps.lo, ps.hi = t.SinkOrder()
	ps.post = t.Postorder()
	ps.dynExt = make([]ext4, t.N())

	// Per-subtree extremes: unadjusted for the farthest pairs and, under
	// the window arm, adjusted by cu for the witness scores and by λ for
	// the static block maxima.
	farExt := ps.foldExtremes(make([]ext4, t.N()), nil)
	cuExt, lamExt := farExt, farExt
	if windows != nil {
		var cu []float64
		ps.lam, cu = enforcedWindowTerms(*windows, m)
		cuExt = ps.foldExtremes(make([]ext4, t.N()), cu)
		lamExt = ps.foldExtremes(make([]ext4, t.N()), ps.lam)
	}

	for v := 0; v < t.N(); v++ {
		ch := t.Children(v)
		if t.IsSink(v) {
			for _, c := range ch {
				if ps.hi[c] > ps.lo[c] {
					ps.blocks = append(ps.blocks, psBlock{v: v, a: v, b: c, score: math.Inf(-1), wi: -1, wj: -1})
				}
			}
		}
		if len(ch) < 2 {
			continue
		}
		for a := 0; a < len(ch); a++ {
			for b := a + 1; b < len(ch); b++ {
				ca, cb := ch[a], ch[b]
				na := ps.hi[ca] - ps.lo[ca]
				nb := ps.hi[cb] - ps.lo[cb]
				if na == 0 || nb == 0 {
					continue
				}
				blk := psBlock{v: v, a: ca, b: cb, score: math.Inf(-1), wi: -1, wj: -1}
				score, wa, wb := maxCombo(cuExt[ca], cuExt[cb])
				if windows == nil || math.IsInf(score, -1) {
					// No window arm in this block: its seed is the
					// farthest pair and it prunes nothing.
					score = math.Inf(-1)
					_, wa, wb = maxCombo(farExt[ca], farExt[cb])
				}
				if wa >= 0 {
					blk.wi, blk.wj = min(wa, wb), max(wa, wb)
				}
				if !math.IsInf(score, -1) {
					blk.score = score
					staticMax, _, _ := maxCombo(lamExt[ca], lamExt[cb])
					if staticMax <= score {
						blk.allDominated = true
						blk.counted = true
						ps.pruned += int64(na)*int64(nb) - 1
					}
				}
				ps.blocks = append(ps.blocks, blk)
			}
		}
	}

	if in.Source != nil {
		ps.sourceImplied = make([]bool, m+1)
		for i := 1; i <= m && windows != nil; i++ {
			if ps.lam[i] >= in.Dist(0, i) {
				ps.sourceImplied[i] = true
				ps.pruned++
			}
		}
	}
	return ps
}

// seedPairs returns the rows to state before the first round: every
// block's witness (the window arm requires the witness row in the LP at
// every iterate) plus the source rows the arm does not imply.
func (ps *presolve) seedPairs() [][2]int {
	var pairs [][2]int
	for _, blk := range ps.blocks {
		if blk.wi >= 0 {
			pairs = append(pairs, [2]int{blk.wi, blk.wj})
		}
	}
	if ps.in.Source != nil {
		for i := 1; i <= ps.in.Tree.NumSinks; i++ {
			if !ps.sourceImplied[i] {
				pairs = append(pairs, [2]int{0, i})
			}
		}
	}
	return pairs
}

// prunedRows returns the cumulative dominated-row count.
func (ps *presolve) prunedRows() int { return int(ps.pruned) }

// foldExtremes fills ext[k], for every node k, with the maxima of the
// four forms minus adj over the sinks of k's subtree (adj nil means 0),
// bottom-up in one O(n) pass, and returns ext.
func (ps *presolve) foldExtremes(ext []ext4, adj []float64) []ext4 {
	t := ps.in.Tree
	for _, k := range ps.post {
		e := emptyExt4()
		if t.IsSink(k) {
			a := 0.0
			if adj != nil {
				a = adj[k]
			}
			e = sinkExt4(ps.uu[k], ps.vv[k], a, k)
		}
		for _, c := range t.Children(k) {
			e.fold(ext[c])
		}
		ext[k] = e
	}
	return ext
}

// bound returns the exact worst violation dist − pathlen over blk's
// pairs at delays d, in O(1) from dynExt folded at d:
// maxCombo(dyn[a], dyn[b]) + 2·d_v for a cross block and
// maxCombo(v alone, dyn[b]) + d_v for an ancestor block.
func (ps *presolve) bound(blk *psBlock, d []float64) float64 {
	v := blk.v
	if blk.a == v {
		best, _, _ := maxCombo(sinkExt4(ps.uu[v], ps.vv[v], 0, v), ps.dynExt[blk.b])
		return best + d[v]
	}
	best, _, _ := maxCombo(ps.dynExt[blk.a], ps.dynExt[blk.b])
	return best + 2*d[v]
}

// worstViolation returns the largest Steiner violation over every
// fixed-point pair at delays d, 0 when none is violated, in O(n) from
// the blocks' exact bounds; pruning plays no part.
func (ps *presolve) worstViolation(d []float64) float64 {
	ps.foldExtremes(ps.dynExt, d)
	worst := 0.0
	for bi := range ps.blocks {
		worst = max(worst, ps.bound(&ps.blocks[bi], d))
	}
	if ps.in.Source != nil {
		for i := 1; i <= ps.in.Tree.NumSinks; i++ {
			worst = max(worst, ps.in.Dist(0, i)-d[i])
		}
	}
	return worst
}

// sepViol is one violated Steiner pair found by the separation oracle.
type sepViol struct {
	pair   [2]int
	amount float64
}

// violatedPairs runs the separation oracle at delays d: it returns the
// worst `batch` violated pairs (violation > tol), sorted by violation
// with the pair as tie-break. It skips whole blocks whose exact bound
// clears the tolerance, and under the window arm it skips the pairs its
// witness dominates. Blocks are striped across the worker pool (workers
// ≤ 0 means GOMAXPROCS); the output is the same for any worker count,
// and each block has one owner per call, which is what lets the
// first-scan prune counting run without locks.
func (ps *presolve) violatedPairs(d []float64, tol float64, batch, workers int) [][2]int {
	t := ps.in.Tree
	m := t.NumSinks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if m < 64 || len(ps.blocks) == 0 {
		workers = 1
	}
	if workers > len(ps.blocks) && len(ps.blocks) > 0 {
		workers = len(ps.blocks)
	}
	ps.foldExtremes(ps.dynExt, d)

	var vs []sepViol
	var prunedNow int64
	scan := func(start, stride int) ([]sepViol, int64) {
		var local []sepViol
		var pruned int64
		for bi := start; bi < len(ps.blocks); bi += stride {
			blk := &ps.blocks[bi]
			if blk.allDominated {
				// Only the witness row can bind; it is already stated.
				continue
			}
			if ps.bound(blk, d) <= tol {
				continue // exact bound: no pair in this block is violated
			}
			if blk.a == blk.v {
				for _, j := range ps.order[ps.lo[blk.b]:ps.hi[blk.b]] {
					need := ps.in.Dist(blk.v, j)
					if need == 0 {
						continue
					}
					if viol := need - d[j] + d[blk.v]; viol > tol {
						local = append(local, sepViol{[2]int{min(blk.v, j), max(blk.v, j)}, viol})
					}
				}
				continue
			}
			count := !blk.counted
			if count {
				blk.counted = true
			}
			dv2 := 2 * d[blk.v]
			for _, i := range ps.order[ps.lo[blk.a]:ps.hi[blk.a]] {
				for _, j := range ps.order[ps.lo[blk.b]:ps.hi[blk.b]] {
					need := ps.in.Dist(i, j)
					if need == 0 {
						continue
					}
					pi, pj := i, j
					if pi > pj {
						pi, pj = pj, pi
					}
					if pi != blk.wi || pj != blk.wj {
						if need-ps.lam[pi]-ps.lam[pj] <= blk.score {
							if count {
								pruned++
							}
							continue // dominated by the witness row
						}
					}
					if viol := need - d[i] - d[j] + dv2; viol > tol {
						local = append(local, sepViol{[2]int{pi, pj}, viol})
					}
				}
			}
		}
		return local, pruned
	}
	if workers <= 1 {
		vs, prunedNow = scan(0, 1)
	} else {
		locals := make([][]sepViol, workers)
		counts := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				locals[w], counts[w] = scan(w, workers)
			}(w)
		}
		wg.Wait()
		for w := range locals {
			vs = append(vs, locals[w]...)
			prunedNow += counts[w]
		}
	}
	ps.pruned += prunedNow

	if ps.in.Source != nil {
		for i := 1; i <= m; i++ {
			if ps.sourceImplied[i] {
				continue
			}
			if need := ps.in.Dist(0, i); need-d[i] > tol {
				vs = append(vs, sepViol{[2]int{0, i}, need - d[i]})
			}
		}
	}
	// Each pair appears once, so the key is a strict order and any sort
	// gives the same batch.
	slices.SortFunc(vs, func(a, b sepViol) int {
		if c := cmp.Compare(b.amount, a.amount); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pair[0], b.pair[0]); c != 0 {
			return c
		}
		return cmp.Compare(a.pair[1], b.pair[1])
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
