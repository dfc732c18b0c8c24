package core

import (
	"fmt"
	"runtime"
	"sync"

	"lubt/internal/geom"
	"lubt/internal/topology"
)

// This file is the subtree-decomposition layer: partition the sinks by
// root branch of the resolved topology, solve each branch's bounded
// subproblem on its own engine in parallel, and merge. Exactness rests
// on the structure of the cross-branch Steiner rows: a pair (i, j) in
// different root branches has LCA 0 (where d_0 = 0), so its row reads
// d_i + d_j ≥ dist(i, j). With a fixed source every branch states the
// seeded source rows d_i ≥ dist(0, i), and the Manhattan triangle
// inequality gives dist(i, j) ≤ dist(0, i) + dist(0, j) ≤ d_i + d_j —
// every cross-branch row is implied, the objective is edge-separable,
// and the independent branch optima compose into the exact global
// optimum in one pass. A free source has no such rows, so the branches
// stay coupled and Options.decompose never decomposes it.

// branchProblem is one root branch lowered to a standalone instance:
// node 0 is the original root, sinks are renumbered 1…mb preserving
// relative order, and toOrig maps sub node ids back.
type branchProblem struct {
	in     *Instance
	b      Bounds
	toOrig []int
	res    *Result
}

// effectiveRootBranches collects the subtrees that hang off the root at
// delay zero: the root's own children, descending through forced-zero
// Steiner edges (the Fig. 2 degree-split spine, whose nodes sit at
// d = 0 just like the root, so their branches are exactly as independent
// as true root branches). Sink-less subtrees are skipped — they carry no
// rows and their edges stay at length zero in the merged solution.
func effectiveRootBranches(t *topology.Tree) []int {
	_, lo, hi := t.SinkOrder()
	var branches []int
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children(v) {
			switch {
			case t.ForcedZero[c] && t.IsSteiner(c):
				stack = append(stack, c)
			case hi[c] > lo[c]:
				branches = append(branches, c)
			}
		}
	}
	return branches
}

// buildBranch extracts the branch rooted at child c of the original
// root. Weights w is the original per-edge weight vector (nil = unit).
func buildBranch(in *Instance, bd Bounds, w []float64, c int) (*branchProblem, []float64, error) {
	t := in.Tree
	// DFS collects the subtree in deterministic preorder.
	var nodes []int
	stack := []int{c}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes = append(nodes, x)
		ch := t.Children(x)
		for k := len(ch) - 1; k >= 0; k-- {
			stack = append(stack, ch[k])
		}
	}
	var sinks, steiner []int
	for _, x := range nodes {
		if t.IsSink(x) {
			sinks = append(sinks, x)
		} else {
			steiner = append(steiner, x)
		}
	}
	// Sinks keep their relative id order so per-sink data maps monotonically.
	for i := 1; i < len(sinks); i++ {
		for j := i; j > 0 && sinks[j] < sinks[j-1]; j-- {
			sinks[j], sinks[j-1] = sinks[j-1], sinks[j]
		}
	}
	mb := len(sinks)
	if mb == 0 {
		return nil, nil, fmt.Errorf("core: root branch %d has no sinks", c)
	}
	nSub := 1 + len(nodes)
	toOrig := make([]int, nSub)
	toSub := make(map[int]int, nSub)
	toOrig[0] = 0
	toSub[0] = 0
	for i, s := range sinks {
		toOrig[1+i] = s
		toSub[s] = 1 + i
	}
	for i, s := range steiner {
		toOrig[1+mb+i] = s
		toSub[s] = 1 + mb + i
	}
	parent := make([]int, nSub)
	parent[0] = -1
	for sub := 1; sub < nSub; sub++ {
		orig := toOrig[sub]
		if orig == c {
			parent[sub] = 0
			continue
		}
		parent[sub] = toSub[t.Parent[orig]]
	}
	sub, err := topology.New(parent, mb)
	if err != nil {
		return nil, nil, fmt.Errorf("core: branch %d topology: %w", c, err)
	}
	for subID := 1; subID < nSub; subID++ {
		sub.ForcedZero[subID] = t.ForcedZero[toOrig[subID]]
	}
	bin := &Instance{Tree: sub, SinkLoc: make([]geom.Point, mb+1), Source: in.Source}
	bb := Bounds{L: make([]float64, mb+1), U: make([]float64, mb+1)}
	for i := 1; i <= mb; i++ {
		bin.SinkLoc[i] = in.SinkLoc[toOrig[i]]
		bb.L[i] = bd.L[toOrig[i]]
		bb.U[i] = bd.U[toOrig[i]]
	}
	var wSub []float64
	if w != nil {
		wSub = make([]float64, nSub)
		for subID := 1; subID < nSub; subID++ {
			wSub[subID] = w[toOrig[subID]]
		}
	}
	return &branchProblem{in: bin, b: bb, toOrig: toOrig}, wSub, nil
}

// solveDecomposed attempts the branch-parallel solve of a fixed-source
// instance. done == false means the topology has fewer than two root
// branches and the caller should run the monolithic path; when done is
// true, res/err is the final outcome.
func solveDecomposed(in *Instance, bd Bounds, opt *Options) (res *Result, done bool, err error) {
	t := in.Tree
	branches := effectiveRootBranches(t)
	if len(branches) < 2 {
		return nil, false, nil
	}
	// Instance and bounds were already validated by Solve.
	var wOrig []float64
	if opt != nil {
		wOrig = opt.Weights
	}
	probs := make([]*branchProblem, len(branches))
	wSubs := make([][]float64, len(branches))
	for i, c := range branches {
		probs[i], wSubs[i], err = buildBranch(in, bd, wOrig, c)
		if err != nil {
			return nil, true, err
		}
	}

	branchOpt := func(i int) *Options {
		o := &Options{}
		if opt != nil {
			*o = *opt
		}
		o.Tracer = nil // branch solves run concurrently; spans stay monolithic
		o.Decompose = "off"
		o.Weights = wSubs[i]
		return o
	}

	// The branch solves run in parallel, at most OracleWorkers at a time.
	workers := 0
	if opt != nil {
		workers = opt.OracleWorkers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(probs) {
		workers = len(probs)
	}
	errs := make([]error, len(probs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			probs[i].res, errs[i] = Solve(probs[i].in, probs[i].b, branchOpt(i))
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			// A branch states a subset of the true constraints: its
			// infeasibility (or any other failure) is the instance's.
			return nil, true, e
		}
	}
	return mergeBranches(in, probs), true, nil
}

// mergeBranches folds the per-branch results into one Result on the
// original topology, deterministically in branch order.
//
// Stats: counters sum via Merge, and Merge keeps the largest
// single-engine PeakRows — the decomposition's memory story. The other
// gauges are then overridden with whole-instance values: row counts
// (Steiner rows included) sum over the branches, NumericalResidual is
// the worst branch's and Subtrees the branch count. The branches run
// their rounds side by side, so Rounds is the longest branch's count
// and ViolatedByRound[r] sums the pairs the branches found violated in
// round r: len(ViolatedByRound) == Rounds, ending in 0.
func mergeBranches(in *Instance, probs []*branchProblem) *Result {
	t := in.Tree
	res := &Result{E: make([]float64, t.N())}
	var steiner, logical, tableau, lowered, ranged, nnz, rounds int
	var viol []int
	residual := 0.0
	for _, p := range probs {
		for subID := 1; subID < p.in.Tree.N(); subID++ {
			res.E[p.toOrig[subID]] = p.res.E[subID]
		}
		res.Cost += p.res.Cost
		st := p.res.Stats
		res.Stats.Merge(st)
		steiner += st.SteinerRows
		logical += st.LogicalRows
		tableau += st.TableauRows
		lowered += st.LoweredTableauRows
		ranged += st.RangedRows
		nnz += st.RowNonzeros
		residual = max(residual, st.NumericalResidual)
		rounds = max(rounds, st.Rounds)
		for r, v := range st.ViolatedByRound {
			if r == len(viol) {
				viol = append(viol, 0)
			}
			viol[r] += v
		}
	}
	res.Delays = t.Delays(res.E)
	res.Stats.SteinerRows = steiner
	res.Stats.LogicalRows = logical
	res.Stats.TableauRows = tableau
	res.Stats.LoweredTableauRows = lowered
	res.Stats.RangedRows = ranged
	res.Stats.RowNonzeros = nnz
	res.Stats.NumericalResidual = residual
	res.Stats.Rounds = rounds
	res.Stats.ViolatedByRound = viol
	res.Stats.Subtrees = len(probs)
	return res
}
