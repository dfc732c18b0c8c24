package lp

import (
	"fmt"
	"math"
	"slices"

	"lubt/internal/linalg"
	"lubt/internal/obs"
)

// devexWeightCap bounds the Devex reference weights: when the largest
// weight exceeds it the reference framework has drifted too far from the
// current basis and is reset (counted in Stats.DevexResets).
const devexWeightCap = 1e12

// Revised is a sparse revised dual-simplex engine for cutting planes: the
// warm realization of the §4.6 row-generation loop. It requires a
// non-negative objective, which makes the all-slack basis dual-feasible
// (no phase 1, ever), never materializes B⁻¹A, and is a
// *bounded-variable* (boxed) dual simplex: every structural and slack
// variable carries a box [lo, hi], nonbasic variables rest at either end,
// and the dual ratio test is two-sided with bound flips. It keeps
//
//   - the constraint rows in a CSR/CSC rowStore (each EBF row has
//     only O(tree depth) nonzeros). Every stored row is an equality
//     a·x + s = b with a boxed slack s ∈ [0, slackHi]: slackHi = ∞ gives a
//     plain ≤ row, a finite slackHi gives a ranged row l ≤ a·x ≤ b with
//     l = b − slackHi, and slackHi = 0 pins an equality — so EQ and delay
//     windows cost ONE tableau row instead of a split pair,
//   - the basis as a variable list plus a sparse LU factorization — via
//     internal/linalg — of the basis matrix's *structural core*: the t×t
//     block over basic non-slack variables, where t is bounded by the
//     variable count no matter how many rows have been generated, and
//   - a product-form eta file between periodic refactorizations.
//
// Each pivot costs one BTRAN, one sparse pricing pass and one FTRAN
// instead of a dense rows×columns tableau update, which is what makes
// warm re-solves scale to r4/r5-sized instances. The pivot loop is
// hypersparse: every work vector carries the list of its nonzeros (see
// svec) and leaving rows come from a list of the possibly infeasible
// positions, so a pivot costs the nonzeros of ρ's rows, nnz(w), that
// list, and t plus the L and U entries the core solves reach — not
// O(rows + columns).
// Results are bit-identical to full passes: sums run in ascending index
// order, leaving-row ties go to the smaller position, and the reduced
// costs a dual step does not touch are already dual-feasible (see the
// package doc, "Hypersparse pivot loop").
type Revised struct {
	tol   float64
	nVars int
	c     []float64 // structural costs, len nVars

	// Structural variable boxes and bound status. Default box is [0, +∞);
	// SetVarBounds tightens it (lo = hi fixes the variable, which then
	// never enters the basis). atUpperS marks nonbasic-at-upper.
	loS, hiS []float64
	atUpperS []bool

	rows *rowStore
	// Per-row slack box: slack of row k lives in [0, slackHi[k]].
	// +∞ = plain ≤ row, finite = ranged row, 0 = equality. atUpperK marks
	// the slack nonbasic at its upper bound (the row binding at its lower
	// side l = b − slackHi). deadK marks rows removed by DeleteRow: they
	// stay in the tableau as the vacuous 0·x + s = 0 so row indices remain
	// stable, but count for nothing.
	slackHi  []float64
	atUpperK []bool
	deadK    []bool

	// Basis state. Positions 0…m−1 (one per row); basisVar[p] holds a
	// variable id: structural j < nVars, or nVars+k for the slack of row k.
	basisVar    []int
	posOfStruct []int32 // structural var → basis position, or −1
	posOfSlack  []int32 // row → basis position of its slack, or −1

	// Factorized structural core of the basis B₀ *as of the last
	// refactorization*. Pivots taken since then live in the eta file, so
	// the base solves must use the baseVar snapshot, not basisVar. The
	// factorization is valid whenever coreCols is non-empty.
	lu       linalg.SparseLU
	core     linalg.CSC // the core gathered for factorization
	baseVar  []int      // basisVar snapshot at factorization time
	coreCols []int      // basis positions holding structural variables (in B₀)
	coreRows []int      // rows whose slack is nonbasic in B₀ (ascending)
	// rowOfCore maps a row to its index in coreRows, or to −1−p when the
	// row's slack is basic at position p of B₀.
	rowOfCore []int32
	coreOfVar []int32 // structural var → index in coreCols, or −1
	etas      []eta

	xB []float64 // basic variable values, by position
	y  []float64 // duals, by row
	dS []float64 // reduced costs of structural variables
	dK []float64 // reduced costs of slacks, by row

	// Work vectors reused across pivots (see svec).
	rho     svec        // BTRAN result ρ = B⁻ᵀe_r, by row
	alpha   svec        // pricing row α = ρᵀA over structural columns
	col     svec        // FTRAN right-hand side (entering column, bound flips), by row
	w       svec        // FTRAN result, by position
	acc     svec        // structural accumulator inside ftran0, by row
	pos     svec        // BTRAN intermediate, by position
	coreRhs []float64   // core-solve right-hand side, len ≥ t
	coreSol []float64   // core-solve result, len ≥ t
	xbPrev  []float64   // eta-replayed xB snapshot for the residual gauge
	cands   []ratioCand // two-sided ratio-test candidates
	refEach int         // pivots between refactorizations

	// infeas lists, ascending, the basis positions that may be primal
	// infeasible: a superset of those outside their box by more than the
	// feasibility tolerance. The leaving-row scan walks only this list.
	infeas []int32
	// sideStale is set when a restage left a nonbasic reduced cost on its
	// dual-infeasible side within tolerance; the next dual step then
	// clamps every nonbasic reduced cost, not only those it touches.
	sideStale bool

	// Devex leaving-row pricing state. gamma[p] is the reference weight of
	// basis position p, the Devex approximation of ‖B⁻ᵀe_p‖² relative to
	// the reference framework: the leaving row maximizes violation²/γ_p.
	// gamma resets to all-1 at every refactorization and reset, and on
	// overflow past devexWeightCap.
	gamma       []float64
	devexResets int

	maxIterOverride int  // test hook: when > 0, replaces the pivot budget
	checkPivots     bool // test hook: verify the sparse pivot state every pivot

	tr *obs.Tracer // span tracer; nil (the default) records nothing

	dirty          bool // rows/bounds changed since the last factorization
	justRefactored bool
	infeasible     bool
	solved         bool // a Solve has run (bound/row/cost edits now restage)
	iterations     int
	logicalRows    int
	rangedRows     int
	loweredRows    int
	boundFlips     int
	stats          Stats
}

// eta is one product-form basis update: the basis matrix gained column
// `w` (sparse, diagonal element diag) at position pos.
type eta struct {
	pos  int
	diag float64
	idx  []int32
	val  []float64
}

// ratioCand is one candidate of the two-sided dual ratio test: a nonbasic
// variable whose movement off its bound drives the leaving basic variable
// back toward its violated bound.
type ratioCand struct {
	id    int     // structural j, or nVars+k for the slack of row k
	alpha float64 // signed pricing value α of the candidate column
	ratio float64 // |d| / |α| ≥ 0, the dual step this candidate allows
	width float64 // box width hi − lo (may be +∞)
}

// svec is a work vector of the pivot loop: its values, plus the list of
// indices that may hold a nonzero. Every value off the list is zero.
// Producers leave the list ascending and free of duplicates, so a pass
// along it meets the nonzeros in the order a full pass would, and sums
// come out bit-identical. A list that would pass 1/sparseShare of the
// vector's length is dropped instead: the vector is then dense, and
// passes over it walk every index.
type svec struct {
	val   []float64
	idx   []int32
	dense bool
}

// sparseShare sets the list length past which a vector goes dense.
const sparseShare = 4

// reset empties v as a vector of length n and returns its values. It
// zeroes only what the last use wrote: the listed entries, or all of
// them when dense. Lengths never shrink over an engine's life (rows are
// never removed), so entries past the old length are still zero.
func (v *svec) reset(n int) []float64 {
	if v.dense {
		clear(v.val)
	} else {
		for _, i := range v.idx {
			v.val[i] = 0
		}
	}
	v.idx, v.dense = v.idx[:0], false
	if cap(v.val) < n {
		v.val = make([]float64, n, n+n/2+8)
	}
	v.val = v.val[:n]
	return v.val
}

// push lists index i; the caller saw a zero there and is about to write
// a nonzero. An index listed twice is dropped again by sort.
func (v *svec) push(i int) {
	if v.dense {
		return
	}
	if len(v.idx) >= len(v.val)/sparseShare+16 {
		v.dense = true
		return
	}
	v.idx = append(v.idx, int32(i))
}

// sort restores the list's order and drops repeated indices.
func (v *svec) sort() {
	if !v.dense {
		slices.Sort(v.idx)
		v.idx = slices.Compact(v.idx)
	}
}

// n is the number of indices a pass over v visits; at(q) is the q-th.
func (v *svec) n() int {
	if v.dense {
		return len(v.val)
	}
	return len(v.idx)
}

func (v *svec) at(q int) int {
	if v.dense {
		return q
	}
	return int(v.idx[q])
}

// NewRevised starts a revised dual-simplex engine over n variables
// (default box [0, ∞) each) with the given non-negative objective
// (length n; shorter is zero-padded). It panics on a negative cost, which
// would make the all-at-lower-bound point dual-infeasible.
func NewRevised(n int, objective []float64) *Revised {
	rv := &Revised{
		tol:      1e-9,
		nVars:    n,
		c:        make([]float64, n),
		loS:      make([]float64, n),
		hiS:      make([]float64, n),
		atUpperS: make([]bool, n),
		rows:     newRowStore(n),
		dS:       make([]float64, n),
		refEach:  64,
	}
	for j := range rv.hiS {
		rv.hiS[j] = math.Inf(1)
	}
	rv.posOfStruct = make([]int32, n)
	rv.coreOfVar = make([]int32, n)
	for j := range rv.posOfStruct {
		rv.posOfStruct[j] = -1
		rv.coreOfVar[j] = -1
	}
	for j, cost := range objective {
		if cost < 0 {
			panic(fmt.Sprintf("lp: Revised needs non-negative costs; var %d has %g", j, cost))
		}
		if j < n {
			rv.c[j] = cost
			rv.dS[j] = cost
		}
	}
	return rv
}

// SetVarBounds boxes structural variable j into [lo, hi] (lo = hi fixes
// it; the EBF loop uses this for forced-zero edges from degree splitting).
// Before the first Solve it is plain construction-time state. Afterwards
// it RESTAGES the warm engine: variable boxes appear in neither the basis
// matrix nor the objective, so the factorization, eta file and dual
// solution all survive the edit exactly. A basic variable keeps its
// position — if its value now violates the new box, the next Solve's
// pricing loop sees the violation and prices it out through the regular
// Devex framework. A nonbasic variable has its resting side
// re-picked from its reduced cost (d > 0 → lower, d < 0 → upper, a fixed
// box → lower) and the basic values are repaired with one FTRAN for the
// resting-value delta. A sticky Infeasible certificate is cleared: the
// edit may have restored feasibility. Panics for lo > hi, an out-of-range
// variable, or a restage to a fully free (both-infinite) box.
func (rv *Revised) SetVarBounds(j int, lo, hi float64) {
	if j < 0 || j >= rv.nVars {
		panic(fmt.Sprintf("lp: SetVarBounds on variable %d of %d", j, rv.nVars))
	}
	if lo > hi || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: SetVarBounds var %d with empty box [%g, %g]", j, lo, hi))
	}
	if rv.solved {
		rv.restageVarBounds(j, lo, hi)
		return
	}
	rv.loS[j] = lo
	rv.hiS[j] = hi
	rv.atUpperS[j] = false
	rv.dirty = true // warm-seeded basic values may assume the old box
}

// restSide picks the resting side for a nonbasic variable with reduced
// cost d and box [lo, hi], preferring the current side cur when d is
// within tolerance. A variable forced onto a side its reduced cost is
// dual-infeasible on (the preferred bound was infinite) marks the engine
// dirty when beyond tolerance, so refactorize can clamp — or reset — per
// its drift rules, and marks the sides stale when within it, so the next
// dual step clamps it.
func (rv *Revised) restSide(d, dTol, lo, hi float64, cur bool) (atUpper bool) {
	atUpper = cur
	switch {
	case lo == hi:
		atUpper = false
	case d > dTol:
		atUpper = false
	case d < -dTol:
		atUpper = true
	}
	if atUpper && math.IsInf(hi, 1) {
		atUpper = false
	}
	if !atUpper && math.IsInf(lo, -1) {
		atUpper = true
	}
	if lo != hi {
		if (atUpper && d > dTol) || (!atUpper && d < -dTol) {
			rv.dirty = true
		} else if (atUpper && d > 0) || (!atUpper && d < 0) {
			rv.sideStale = true
		}
	}
	return atUpper
}

// applyNonbasicDelta repairs the basic values after the resting value of
// nonbasic variable id moved by delta: xB ← xB − B⁻¹A_id·Δ, one FTRAN.
// When no valid factorization is on hand it marks the engine dirty
// instead — the next Solve recomputes xB wholesale.
func (rv *Revised) applyNonbasicDelta(id int, delta float64) {
	if delta == 0 || math.IsNaN(delta) {
		return
	}
	m := rv.rows.numRows()
	if m == 0 {
		return
	}
	if rv.dirty || len(rv.baseVar) != m {
		rv.dirty = true
		return
	}
	u := rv.col.reset(m)
	if id < rv.nVars {
		for _, ce := range rv.rows.col(id) {
			u[ce.row] = ce.coef * delta
			rv.col.push(int(ce.row))
		}
	} else {
		u[id-rv.nVars] = delta
		rv.col.push(id - rv.nVars)
	}
	if rv.col.n() == 0 {
		return
	}
	rv.ftran(&rv.col, &rv.w)
	rv.subtractXB(&rv.w)
}

// subtractXB applies xB ← xB − z along z's list.
func (rv *Revised) subtractXB(z *svec) {
	for q, n := 0, z.n(); q < n; q++ {
		p := z.at(q)
		rv.xB[p] -= z.val[p]
	}
}

// restageVarBounds is the between-Solve path of SetVarBounds: see its doc
// for the contract. Counted in Stats.Restages.
func (rv *Revised) restageVarBounds(j int, lo, hi float64) {
	rv.stats.Restages++
	rv.infeasible = false
	if rv.posOfStruct[j] >= 0 {
		rv.loS[j] = lo
		rv.hiS[j] = hi
		return
	}
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		panic(fmt.Sprintf("lp: SetVarBounds restaged var %d to a free (unbounded both sides) box", j))
	}
	oldRest := rv.structVal(j)
	rv.loS[j] = lo
	rv.hiS[j] = hi
	rv.atUpperS[j] = rv.restSide(rv.dS[j], rv.dualTol(), lo, hi, rv.atUpperS[j])
	rv.applyNonbasicDelta(j, rv.structVal(j)-oldRest)
}

// SetCost updates the objective coefficient of structural variable j.
// Before the first Solve it simply rewrites the cost. Afterwards it
// restages the warm engine: for a nonbasic variable the duals do not
// depend on c_j, so only its own reduced cost shifts by Δc — possibly
// flipping its resting side (one FTRAN). For a basic variable at position
// p the whole dual vector shifts, y ← y + Δc·B⁻ᵀe_p (one BTRAN), every
// nonbasic reduced cost is re-priced through one sparse pass, and
// side-violating nonbasic variables are flipped in one batched FTRAN —
// the same machinery the dual ratio test uses. Costs must stay
// non-negative (the all-slack dual-feasibility invariant); panics
// otherwise or for an out-of-range variable.
func (rv *Revised) SetCost(j int, cost float64) {
	if j < 0 || j >= rv.nVars {
		panic(fmt.Sprintf("lp: SetCost on variable %d of %d", j, rv.nVars))
	}
	if cost < 0 || math.IsNaN(cost) {
		panic(fmt.Sprintf("lp: Revised needs non-negative costs; var %d set to %g", j, cost))
	}
	delta := cost - rv.c[j]
	rv.c[j] = cost
	if !rv.solved {
		rv.dS[j] = cost // no pivots yet: y = 0, so d_j = c_j
		return
	}
	if delta == 0 {
		return
	}
	rv.stats.Restages++
	rv.infeasible = false
	m := rv.rows.numRows()
	p := int(rv.posOfStruct[j])
	if p < 0 {
		oldRest := rv.structVal(j)
		d := rv.dS[j] + delta
		rv.dS[j] = d
		if atU := rv.restSide(d, rv.dualTol(), rv.loS[j], rv.hiS[j], rv.atUpperS[j]); atU != rv.atUpperS[j] {
			rv.atUpperS[j] = atU
			rv.boundFlips++
		}
		rv.applyNonbasicDelta(j, rv.structVal(j)-oldRest)
		return
	}
	if rv.dirty || m == 0 || len(rv.baseVar) != m {
		rv.dirty = true
		return
	}
	// Basic: shift the duals by Δc·B⁻ᵀe_p and re-price. d_j itself stays 0
	// (ρ·A_j = 1 by definition of the basis), matching its basic status.
	rv.btranPos(p, &rv.rho)
	rv.priceRow()
	rho, alpha := rv.rho.val, rv.alpha.val
	for q, n := 0, rv.rho.n(); q < n; q++ {
		if k := rv.rho.at(q); rho[k] != 0 {
			rv.y[k] += delta * rho[k]
		}
	}
	dTol := rv.dualTol()
	flipRow := rv.col.reset(m)
	flips := 0
	for q, n := 0, rv.alpha.n(); q < n; q++ {
		jj := rv.alpha.at(q)
		if rv.posOfStruct[jj] >= 0 || alpha[jj] == 0 {
			continue
		}
		d := rv.dS[jj] - delta*alpha[jj]
		rv.dS[jj] = d
		atU := rv.restSide(d, dTol, rv.loS[jj], rv.hiS[jj], rv.atUpperS[jj])
		if atU == rv.atUpperS[jj] {
			continue
		}
		// restSide only flips onto a finite bound, so the traversal below is
		// finite whenever the box is sane; guard against a free box anyway.
		width := rv.hiS[jj] - rv.loS[jj]
		if math.IsInf(width, 1) {
			rv.dirty = true
			continue
		}
		rv.atUpperS[jj] = atU
		dv := width
		if !atU {
			dv = -width
		}
		for _, ce := range rv.rows.col(jj) {
			if flipRow[ce.row] == 0 {
				rv.col.push(int(ce.row))
			}
			flipRow[ce.row] += ce.coef * dv
		}
		flips++
	}
	for q, n := 0, rv.rho.n(); q < n; q++ {
		k := rv.rho.at(q)
		if rv.posOfSlack[k] >= 0 || rho[k] == 0 {
			continue
		}
		d := rv.dK[k] - delta*rho[k]
		rv.dK[k] = d
		atU := rv.restSide(d, dTol, 0, rv.slackHi[k], rv.atUpperK[k])
		if atU == rv.atUpperK[k] {
			continue
		}
		if math.IsInf(rv.slackHi[k], 1) {
			rv.dirty = true
			continue
		}
		rv.atUpperK[k] = atU
		dv := rv.slackHi[k]
		if !atU {
			dv = -dv
		}
		if flipRow[k] == 0 {
			rv.col.push(k)
		}
		flipRow[k] += dv
		flips++
	}
	if flips > 0 {
		rv.col.sort()
		rv.ftran(&rv.col, &rv.w)
		rv.subtractXB(&rv.w)
		rv.boundFlips += flips
	}
}

// NumRows returns the number of logical constraint rows added via AddRow
// or AddRangedRow (a ranged or EQ row counts once). TableauRows reports
// the engine-internal row count.
func (rv *Revised) NumRows() int { return rv.logicalRows }

// TableauRows returns the engine-internal row count. The boxed engine
// stores EQ and ranged rows as a single row with a fixed/boxed slack, so
// here they count once; compare against Stats().LoweredTableauRows for
// what the two-row lowering would cost.
func (rv *Revised) TableauRows() int { return rv.rows.numRows() }

// Iterations returns the cumulative dual-simplex pivot count (bound flips
// are not pivots and are counted separately in Stats).
func (rv *Revised) Iterations() int { return rv.iterations }

// Stats returns a snapshot of the engine's observability counters. Its
// gauges are sampled, so merging a snapshot into an accumulated record
// replaces stale gauge values even with 0.
func (rv *Revised) Stats() Stats {
	s := rv.stats
	s.LPIterations = rv.iterations
	s.LogicalRows = rv.logicalRows
	s.TableauRows = rv.rows.numRows()
	s.LoweredTableauRows = rv.loweredRows
	s.RangedRows = rv.rangedRows
	s.BoundFlips = rv.boundFlips
	s.RowNonzeros = rv.rows.nnz()
	s.ResetReasons = append([]string(nil), rv.stats.ResetReasons...)
	s.DevexResets = rv.devexResets
	if n := rv.rows.numRows(); n > 0 && len(rv.gamma) >= n {
		mn, mx := rv.gamma[0], rv.gamma[0]
		for _, g := range rv.gamma[1:n] {
			if g < mn {
				mn = g
			}
			if g > mx {
				mx = g
			}
		}
		s.WeightMin, s.WeightMax = mn, mx
	}
	return s
}

// SetTracer attaches a span tracer: each refactorization then records a
// "refactorize" span carrying the numerical-health gauges (basis size,
// fill-in, eta-file length, replay residual, reset reason). A nil tracer
// (the default) records nothing at zero cost.
func (rv *Revised) SetTracer(tr *obs.Tracer) { rv.tr = tr }

// grow returns (*buf)[:n], reallocating the backing array only when the
// capacity is insufficient; the returned slice is NOT cleared.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n+n/2+8)
	}
	return (*buf)[:n]
}

// resetWeights restarts the Devex reference framework at the current
// basis: every basis position gets weight 1. This happens at every
// refactorization and basis reset (the framework is *defined* relative
// to the current basis) and on weight overflow.
func (rv *Revised) resetWeights(m int) {
	rv.gamma = grow(&rv.gamma, m)
	for p := range rv.gamma {
		rv.gamma[p] = 1
	}
}

// ensureWeights extends gamma to m entries after rows were warm-added
// with a bordered basis extension; each new position starts at the
// reference value 1.
func (rv *Revised) ensureWeights(m int) {
	if len(rv.gamma) > m {
		rv.gamma = rv.gamma[:m]
		return
	}
	for p := len(rv.gamma); p < m; p++ {
		rv.gamma = append(rv.gamma, 1)
	}
}

// updateWeights applies the per-pivot Devex update (Forrest–Goldfarb's
// approximate rule) for leaving position r with the FTRAN column w in
// rv.w (pivot element a = w[r]), walking w's list:
//
//	γ_r ← max(γ_r/a², 1)
//	γ_p ← max(γ_p, (w_p/a)²·γ_r_old)   for p ≠ r, w_p ≠ 0
//
// It is applied BEFORE the basis bookkeeping, i.e. to the pre-pivot
// weights. When the largest weight outruns devexWeightCap the reference
// framework is restarted (counted in Stats.DevexResets).
func (rv *Revised) updateWeights(r int, m int) {
	w := rv.w.val
	a := w[r]
	gr := rv.gamma[r]
	inv2 := 1 / (a * a)
	maxG := 0.0
	for q, n := 0, rv.w.n(); q < n; q++ {
		p := rv.w.at(q)
		if p == r || w[p] == 0 {
			continue
		}
		if g := w[p] * w[p] * inv2 * gr; g > rv.gamma[p] {
			rv.gamma[p] = g
		}
		if rv.gamma[p] > maxG {
			maxG = rv.gamma[p]
		}
	}
	rv.gamma[r] = math.Max(gr*inv2, 1)
	if rv.gamma[r] > maxG {
		maxG = rv.gamma[r]
	}
	if maxG > devexWeightCap {
		// The reference framework has drifted too far from the current
		// basis for the approximation to steer usefully: restart it here
		// rather than waiting for the next refactorization. Counted in
		// Stats.DevexResets (scheduled re-anchors are not — those are
		// already visible as Refactorizations).
		rv.devexResets++
		rv.resetWeights(m)
	}
}

// pivotBudget is the Solve pivot cap: a generous constant plus a linear
// term in the problem size m + nVars. (An earlier version double-counted
// m here.) The unexported maxIterOverride lets tests exercise the
// IterLimit path without 20k pivots.
func (rv *Revised) pivotBudget(m int) int {
	if rv.maxIterOverride > 0 {
		return rv.maxIterOverride
	}
	return 20000 + 200*(m+rv.nVars)
}

// AddRow introduces the constraint Σ terms {op} rhs. A GE row is negated
// into ≤ form; an EQ row becomes ONE row whose slack is fixed at zero (no
// ≤/≥ split). The engine becomes primal-infeasible until the next Solve.
func (rv *Revised) AddRow(terms []Term, op Op, rhs float64) {
	rv.logicalRows++
	switch op {
	case LE:
		rv.loweredRows++
		rv.addLE(terms, rhs, 1, math.Inf(1))
	case GE:
		rv.loweredRows++
		rv.addLE(terms, rhs, -1, math.Inf(1))
	case EQ:
		rv.loweredRows += 2
		rv.rangedRows++
		rv.addLE(terms, rhs, 1, 0)
	}
}

// AddRangedRow introduces the two-sided constraint lo ≤ Σ terms ≤ hi as
// ONE logical row: the row is stored once with its slack boxed into
// [0, hi−lo] (fixed at zero when lo = hi). Either side may be infinite,
// degrading to a plain one-sided row; a fully unbounded window adds no
// tableau row at all. This is how the EBF delay windows of §4 enter the
// engine without the two-row lowering the cold solvers need.
func (rv *Revised) AddRangedRow(terms []Term, lo, hi float64) {
	if lo > hi || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: AddRangedRow with empty window [%g, %g]", lo, hi))
	}
	rv.logicalRows++
	infLo, infHi := math.IsInf(lo, -1), math.IsInf(hi, 1)
	switch {
	case infLo && infHi:
		// Vacuous window: logical row only.
	case infLo:
		rv.loweredRows++
		rv.addLE(terms, hi, 1, math.Inf(1))
	case infHi:
		rv.loweredRows++
		rv.addLE(terms, lo, -1, math.Inf(1))
	default:
		rv.loweredRows += 2
		rv.rangedRows++
		rv.addLE(terms, hi, 1, hi-lo)
	}
}

// rowContrib returns tableau row k's contribution to the lowered-row and
// ranged-row counters: (0, 0) for a deleted row, (1, 0) for a one-sided
// row, (2, 1) for a ranged or exact row (what the two-row lowering would
// need). Used to keep the counters consistent across row rewrites.
func (rv *Revised) rowContrib(k int) (lowered, ranged int) {
	if rv.deadK[k] {
		return 0, 0
	}
	if math.IsInf(rv.slackHi[k], 1) {
		return 1, 0
	}
	return 2, 1
}

// forceSlackBasic makes row k's slack basic at position k, kicking the
// position's current occupant to a resting bound. Needed when a row
// rewrite leaves row k with no stored nonzeros while its slack is
// nonbasic: row k of the basis matrix would then be identically zero
// (singular). The kicked variable leaves with reduced cost 0, which is
// dual-feasible at either bound; the engine is marked dirty so the next
// Solve refactorizes from the repaired basis.
func (rv *Revised) forceSlackBasic(k int) {
	v := rv.basisVar[k]
	if v == rv.nVars+k {
		return
	}
	if v < rv.nVars {
		rv.posOfStruct[v] = -1
		rv.atUpperS[v] = math.IsInf(rv.loS[v], -1) // rest at the finite side
		rv.dS[v] = 0
	} else {
		k2 := v - rv.nVars
		rv.posOfSlack[k2] = -1
		rv.atUpperK[k2] = false
		rv.dK[k2] = 0
	}
	rv.basisVar[k] = rv.nVars + k
	rv.posOfSlack[k] = int32(k)
	rv.atUpperK[k] = false
	rv.dK[k] = 0
	rv.dirty = true
}

// ReplaceRangedRow rewrites tableau row k in place as lo ≤ Σ terms ≤ hi
// (either side may be infinite; both-infinite is a deletion — use
// DeleteRow). Row k is a TABLEAU index, i.e. what TableauRows counted when
// the row was added; replacing a row deleted by DeleteRow revives it.
//
// Eta invalidation: when the stored coefficient pattern actually changes,
// a row of the basis matrix changes with it, so the factorization and eta
// file are stale — the engine is marked dirty and the next Solve
// refactorizes once (the basis MEMBERSHIP survives, which is what keeps
// the warm pivot count low). When only the right-hand side / window moves
// (same terms — the ECO retighten case), nothing the factorization
// depends on changed: the slack's resting side is re-picked from its
// reduced cost and the basic values are repaired with one FTRAN, counted
// as a Restage rather than a RowReplacement. Either way a sticky
// Infeasible certificate is cleared. Panics on an out-of-range row or an
// empty window.
func (rv *Revised) ReplaceRangedRow(k int, terms []Term, lo, hi float64) {
	if k < 0 || k >= rv.rows.numRows() {
		panic(fmt.Sprintf("lp: ReplaceRangedRow on row %d of %d", k, rv.rows.numRows()))
	}
	if lo > hi || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: ReplaceRangedRow row %d with empty window [%g, %g]", k, lo, hi))
	}
	infLo, infHi := math.IsInf(lo, -1), math.IsInf(hi, 1)
	if infLo && infHi {
		panic(fmt.Sprintf("lp: ReplaceRangedRow row %d with a vacuous window; use DeleteRow", k))
	}
	var sign, rhs, sHi float64
	switch {
	case infLo:
		sign, rhs, sHi = 1, hi, math.Inf(1)
	case infHi:
		sign, rhs, sHi = -1, lo, math.Inf(1)
	default:
		sign, rhs, sHi = 1, hi, hi-lo
	}
	oldLow, oldRng := rv.rowContrib(k)
	if rv.deadK[k] {
		rv.deadK[k] = false
		rv.logicalRows++
	}
	rhsOld := rv.rows.rhs[k]
	changed := rv.rows.replaceRow(k, terms, rhs, sign)
	rv.infeasible = false
	if changed {
		rv.stats.RowReplacements++
		rv.slackHi[k] = sHi
		if rv.posOfSlack[k] < 0 {
			if ind, _ := rv.rows.row(k); len(ind) == 0 {
				rv.forceSlackBasic(k)
			} else if rv.atUpperK[k] && math.IsInf(sHi, 1) {
				rv.atUpperK[k] = false
			}
		}
		rv.dirty = true
	} else {
		// Same pattern: only b and the slack box moved — neither enters the
		// basis matrix, so the factorization, eta file, duals and reference
		// weights all stay valid. Repair xB with one FTRAN and let the next
		// Solve re-enter the dual loop directly.
		rv.stats.Restages++
		delta := rv.rows.rhs[k] - rhsOld
		if rv.posOfSlack[k] < 0 {
			oldRest := rv.nbSlackVal(k)
			rv.slackHi[k] = sHi
			rv.atUpperK[k] = rv.restSide(rv.dK[k], rv.dualTol(), 0, sHi, rv.atUpperK[k])
			delta -= rv.nbSlackVal(k) - oldRest
		} else {
			rv.slackHi[k] = sHi
		}
		// xB ← xB + B⁻¹e_k·δ, expressed through the generic nonbasic-delta
		// repair on the slack column (A_{n+k} = e_k) with Δ = −δ.
		rv.applyNonbasicDelta(rv.nVars+k, -delta)
	}
	newLow, newRng := rv.rowContrib(k)
	rv.loweredRows += newLow - oldLow
	rv.rangedRows += newRng - oldRng
}

// DeleteRow removes tableau row k: the stored row is rewritten to the
// vacuous 0·x + s = 0 with a free slack, which every basis trivially
// satisfies, so downstream tableau row indices stay stable. The row's
// slack is forced into the basis when nonbasic (an empty row with a
// nonbasic slack would make the basis matrix singular). Deleting a row
// only relaxes the problem, so a sticky Infeasible certificate is
// cleared. Panics on an out-of-range or already-deleted row;
// ReplaceRangedRow revives a deleted row.
func (rv *Revised) DeleteRow(k int) {
	if k < 0 || k >= rv.rows.numRows() {
		panic(fmt.Sprintf("lp: DeleteRow on row %d of %d", k, rv.rows.numRows()))
	}
	if rv.deadK[k] {
		panic(fmt.Sprintf("lp: DeleteRow on already-deleted row %d", k))
	}
	oldLow, oldRng := rv.rowContrib(k)
	rhsOld := rv.rows.rhs[k]
	changed := rv.rows.replaceRow(k, nil, 0, 1)
	rv.deadK[k] = true
	rv.logicalRows--
	rv.slackHi[k] = math.Inf(1)
	rv.stats.RowReplacements++
	rv.infeasible = false
	if rv.posOfSlack[k] < 0 {
		rv.forceSlackBasic(k)
	}
	rv.atUpperK[k] = false
	if changed {
		rv.dirty = true
	} else {
		rv.applyNonbasicDelta(rv.nVars+k, rhsOld) // rhs moved to 0: δ = −rhsOld
	}
	rv.loweredRows -= oldLow
	rv.rangedRows -= oldRng
}

// addLE appends the row sign·(Σ terms) ≤ sign·rhs with the slack boxed
// into [0, sHi].
func (rv *Revised) addLE(terms []Term, rhs float64, sign float64, sHi float64) {
	k := rv.rows.numRows()
	rv.rows.appendLE(terms, rhs, sign)
	// The new row's slack enters the basis at the new position.
	rv.basisVar = append(rv.basisVar, rv.nVars+k)
	rv.posOfSlack = append(rv.posOfSlack, int32(k))
	rv.slackHi = append(rv.slackHi, sHi)
	rv.atUpperK = append(rv.atUpperK, false)
	rv.deadK = append(rv.deadK, false)
	rv.xB = append(rv.xB, 0)
	rv.y = append(rv.y, 0)
	rv.dK = append(rv.dK, 0)
	rv.rowOfCore = append(rv.rowOfCore, int32(-1-k))
	if rv.dirty || len(rv.etas) != 0 || len(rv.baseVar) != k {
		rv.dirty = true
		return
	}
	// Warm bordered extension. With an empty eta file the current basis IS
	// the factored snapshot B₀, and giving the new row a basic slack turns
	// B₀ into the bordered matrix [B₀ 0; a₀ᵀ 1] — whose structural core is
	// unchanged, so the LU stays valid and ftran0/btran0 pick up the border
	// through baseVar. Seed the new basic value from the current structural
	// solution (basic values plus nonbasic bound values) instead of
	// refactorizing; Solve refactorizes on optimality exactly so that this
	// path is available to the next cutting-plane batch.
	act := 0.0
	ind, val := rv.rows.row(k)
	for q, j := range ind {
		act += val[q] * rv.structVal(int(j))
	}
	rv.baseVar = append(rv.baseVar, rv.nVars+k)
	rv.xB[k] = rv.rows.rhs[k] - act
	rv.justRefactored = false
}

// structVal returns the current value of structural variable j: its basic
// value when basic, its resting bound when nonbasic.
func (rv *Revised) structVal(j int) float64 {
	if p := rv.posOfStruct[j]; p >= 0 {
		return rv.xB[p]
	}
	if rv.atUpperS[j] {
		return rv.hiS[j]
	}
	return rv.loS[j]
}

// nbSlackVal returns the resting value of the (nonbasic) slack of row k.
func (rv *Revised) nbSlackVal(k int) float64 {
	if rv.atUpperK[k] {
		return rv.slackHi[k]
	}
	return 0
}

// boxOf returns the box of variable id (structural or slack).
func (rv *Revised) boxOf(id int) (lo, hi float64) {
	if id < rv.nVars {
		return rv.loS[id], rv.hiS[id]
	}
	return 0, rv.slackHi[id-rv.nVars]
}

// nbVal returns the resting value of nonbasic variable id.
func (rv *Revised) nbVal(id int) float64 {
	if id < rv.nVars {
		if rv.atUpperS[id] {
			return rv.hiS[id]
		}
		return rv.loS[id]
	}
	return rv.nbSlackVal(id - rv.nVars)
}

// effRHS writes b − N·x_N into out (indexed by row): the right-hand side
// the basis actually has to cover once every nonbasic variable rests at
// its bound (nonzero lower bounds, flipped-to-upper variables, and ranged
// slacks parked at their width all contribute).
func (rv *Revised) effRHS(out []float64) {
	m := rv.rows.numRows()
	copy(out, rv.rows.rhs)
	for j := 0; j < rv.nVars; j++ {
		if rv.posOfStruct[j] >= 0 {
			continue
		}
		v := rv.structVal(j)
		if v == 0 {
			continue
		}
		for _, ce := range rv.rows.col(j) {
			out[ce.row] -= ce.coef * v
		}
	}
	for k := 0; k < m; k++ {
		if rv.posOfSlack[k] < 0 {
			if v := rv.nbSlackVal(k); v != 0 {
				out[k] -= v
			}
		}
	}
}

// reset returns to the all-slack basis with every structural variable at
// its lower bound (always dual-feasible for c ≥ 0): the numerical-trouble
// escape hatch, equivalent to a cold dual start. reason is the trigger
// code recorded in Stats.ResetReasons (see the field doc for the codes).
func (rv *Revised) reset(reason string) {
	m := rv.rows.numRows()
	for j := range rv.posOfStruct {
		rv.posOfStruct[j] = -1
		rv.atUpperS[j] = false
		rv.coreOfVar[j] = -1
	}
	rv.baseVar = rv.baseVar[:0]
	for k := 0; k < m; k++ {
		rv.basisVar[k] = rv.nVars + k
		rv.posOfSlack[k] = int32(k)
		rv.atUpperK[k] = false
		rv.rowOfCore[k] = int32(-1 - k)
		rv.y[k] = 0
		rv.dK[k] = 0
		rv.baseVar = append(rv.baseVar, rv.nVars+k)
	}
	rv.effRHS(rv.xB[:m])
	copy(rv.dS, rv.c)
	rv.etas = rv.etas[:0]
	rv.coreCols = rv.coreCols[:0]
	rv.coreRows = rv.coreRows[:0]
	rv.dirty = false
	rv.justRefactored = true
	rv.stats.Resets++
	rv.stats.ResetReasons = append(rv.stats.ResetReasons, reason)
	rv.stats.BasisSize = 0
	rv.stats.EtaLen = 0
	rv.sideStale = false
	rv.scanInfeasible()
	// All-slack basis ⇒ B = I, so the all-1 framework is exact.
	rv.resetWeights(m)
	sp := rv.tr.Start("reset")
	sp.SetString("reason", reason)
	sp.End()
}

// refactorize rebuilds the LU factorization of the basis's structural
// core, drops the eta file, and recomputes xB, y and the reduced costs
// from scratch. Returns false (after resetting) when the basis has gone
// numerically bad. Each call samples the numerical-health gauges — basis
// size, fill-in, eta-file length, eta-replay residual — into Stats and
// (when a tracer is attached) a "refactorize" span.
func (rv *Revised) refactorize() bool {
	sp := rv.tr.Start("refactorize")
	defer sp.End()
	m := rv.rows.numRows()
	// Gauge inputs: how many product-form updates this factorization
	// replaces, and whether the incremental xB is comparable to the fresh
	// one (it is unless rows were added since the last factorization).
	etaLen := len(rv.etas)
	measure := !rv.dirty && etaLen > 0
	if measure {
		if cap(rv.xbPrev) < m {
			rv.xbPrev = make([]float64, m)
		}
		copy(rv.xbPrev[:m], rv.xB[:m])
	}
	rv.baseVar = append(rv.baseVar[:0], rv.basisVar...)
	rv.coreCols = rv.coreCols[:0]
	rv.coreRows = rv.coreRows[:0]
	for j := range rv.coreOfVar {
		rv.coreOfVar[j] = -1
	}
	for p := 0; p < m; p++ {
		if v := rv.baseVar[p]; v < rv.nVars {
			rv.coreOfVar[v] = int32(len(rv.coreCols))
			rv.coreCols = append(rv.coreCols, p)
		}
	}
	for k := 0; k < m; k++ {
		if p := rv.posOfSlack[k]; p >= 0 {
			rv.rowOfCore[k] = -1 - p
		} else {
			rv.rowOfCore[k] = int32(len(rv.coreRows))
			rv.coreRows = append(rv.coreRows, k)
		}
	}
	t := len(rv.coreCols)
	if t != len(rv.coreRows) {
		// Cannot happen for a consistent basis; recover anyway.
		rv.reset("basis-mismatch")
		return false
	}
	if cap(rv.coreRhs) < t {
		rv.coreRhs = make([]float64, t)
		rv.coreSol = make([]float64, t)
	}
	rv.etas = rv.etas[:0]
	rv.dirty = false
	rv.justRefactored = true
	rv.stats.Refactorizations++
	rv.stats.BasisSize = t
	rv.stats.EtaLen = etaLen
	rv.stats.FillIn = 0
	if t > 0 {
		c := &rv.core
		c.Rows, c.Cols = t, t
		c.ColPtr = append(c.ColPtr[:0], 0)
		c.RowInd, c.Val = c.RowInd[:0], c.Val[:0]
		for _, p := range rv.coreCols {
			for _, ce := range rv.rows.col(rv.basisVar[p]) {
				if ri := rv.rowOfCore[ce.row]; ri >= 0 {
					c.RowInd = append(c.RowInd, ri)
					c.Val = append(c.Val, ce.coef)
				}
			}
			c.ColPtr = append(c.ColPtr, len(c.RowInd))
		}
		if err := rv.lu.Factor(c); err != nil {
			rv.reset("lu-singular")
			return false
		}
		rv.stats.FillIn = max(rv.lu.NNZ()-len(c.Val), 0)
		rv.stats.LUNonzeros += rv.lu.NNZ()
	}
	// Recompute the primal basic values xB = B⁻¹ (b − N x_N).
	rv.effRHS(rv.col.reset(m))
	rv.col.dense = true
	rv.ftran0(&rv.col, &rv.w)
	copy(rv.xB, rv.w.val)
	if measure {
		// Residual gauge: how far the eta-file replay had drifted from the
		// freshly factored basic values.
		worst := 0.0
		for p := 0; p < m; p++ {
			if d := math.Abs(rv.xbPrev[p] - rv.xB[p]); d > worst {
				worst = d
			}
		}
		rv.stats.NumericalResidual = worst
		sp.SetFloat("residual", worst)
	}
	sp.SetInt("basis", t)
	sp.SetInt("fill_in", rv.stats.FillIn)
	sp.SetInt("eta_len", etaLen)
	// Recompute duals y = B⁻ᵀ cB and reduced costs d = c − Aᵀy, clamped to
	// the dual-feasible side of each nonbasic variable's status: ≥ 0 at a
	// lower bound, ≤ 0 at an upper bound, unrestricted for fixed variables.
	cB := rv.pos.reset(m)
	rv.pos.dense = true
	for p := 0; p < m; p++ {
		if v := rv.basisVar[p]; v < rv.nVars {
			cB[p] = rv.c[v]
		}
	}
	rv.btran0(&rv.pos, &rv.rho)
	copy(rv.y, rv.rho.val)
	dTol := rv.dualTol()
	ok := true
	for j := 0; j < rv.nVars; j++ {
		d := rv.c[j]
		for _, ce := range rv.rows.col(j) {
			d -= rv.y[ce.row] * ce.coef
		}
		switch {
		case rv.posOfStruct[j] >= 0:
			d = 0
		case rv.loS[j] == rv.hiS[j]:
			// Fixed: any reduced cost is dual-feasible.
		case rv.atUpperS[j]:
			if d > 0 {
				if d > 1e3*dTol {
					ok = false
				}
				d = 0
			}
		default:
			if d < 0 {
				if d < -1e3*dTol {
					ok = false
				}
				d = 0
			}
		}
		rv.dS[j] = d
	}
	for k := 0; k < m; k++ {
		d := -rv.y[k]
		switch {
		case rv.posOfSlack[k] >= 0:
			d = 0
		case rv.slackHi[k] == 0:
			// Fixed slack (equality row): unrestricted.
		case rv.atUpperK[k]:
			if d > 0 {
				if d > 1e3*dTol {
					ok = false
				}
				d = 0
			}
		default:
			if d < 0 {
				if d < -1e3*dTol {
					ok = false
				}
				d = 0
			}
		}
		rv.dK[k] = d
	}
	if !ok {
		// The basis drifted dual-infeasible: restart from all slacks.
		rv.reset("dual-drift")
		return false
	}
	rv.sideStale = false
	rv.scanInfeasible()
	// The Devex reference framework is defined relative to the basis at
	// the last reset point; refactorization is where the framework is
	// re-anchored to the current basis.
	rv.resetWeights(m)
	return true
}

// outside reports whether the basic variable at position p lies outside
// its box by more than feasTol.
func (rv *Revised) outside(p int, feasTol float64) bool {
	lo, hi := rv.boxOf(rv.basisVar[p])
	return lo-rv.xB[p] > feasTol || rv.xB[p]-hi > feasTol
}

// scanInfeasible rebuilds the infeasible-position list by a full pass.
func (rv *Revised) scanInfeasible() {
	feasTol := rv.feasTol()
	rv.infeas = rv.infeas[:0]
	for p := range rv.rows.numRows() {
		if rv.outside(p, feasTol) {
			rv.infeas = append(rv.infeas, int32(p))
		}
	}
}

// noteInfeasible merges into the infeasible-position list the positions
// on z's list — those whose basic value a step just moved — that are now
// outside their box. The merge runs backward in place and keeps the list
// ascending and free of repeats; a dense z rebuilds the list instead.
func (rv *Revised) noteInfeasible(z *svec, feasTol float64) {
	if z.dense {
		rv.scanInfeasible()
		return
	}
	add := 0
	for _, p := range z.idx {
		if rv.outside(int(p), feasTol) {
			add++
		}
	}
	if add == 0 {
		return
	}
	n := len(rv.infeas)
	l := slices.Grow(rv.infeas, add)[:n+add]
	i, o := n-1, n+add
	for j := len(z.idx) - 1; j >= 0; j-- {
		p := z.idx[j]
		if !rv.outside(int(p), feasTol) {
			continue
		}
		for i >= 0 && l[i] > p {
			o--
			l[o] = l[i]
			i--
		}
		if i >= 0 && l[i] == p {
			i-- // already listed: written once below
		}
		o--
		l[o] = p
	}
	// l[:i+1] never moved; the merged tail sits at l[o:]. Close the gap
	// the repeats left.
	rv.infeas = append(l[:i+1], l[o:]...)
}

func (rv *Revised) feasTol() float64 {
	maxB := 0.0
	for _, b := range rv.rows.rhs {
		if a := math.Abs(b); a > maxB {
			maxB = a
		}
	}
	return rv.tol * (1 + maxB)
}

func (rv *Revised) dualTol() float64 {
	maxC := 0.0
	for _, c := range rv.c {
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	return rv.tol * (1 + maxC)
}

// ftran0 computes z = B₀⁻¹ u through the factored structural core
// (positions with basic slacks are solved by substitution); u is by row,
// z by basis position. Besides the core solve (t and the L and U entries
// it reaches), the work follows the core columns with a nonzero solution
// and the rows on the lists of u and of the accumulator: a slack row that
// neither touches keeps a zero. The accumulator sums in core-column order, as the full
// pass did.
func (rv *Revised) ftran0(u, z *svec) {
	m := rv.rows.numRows()
	t := len(rv.coreCols)
	uv, zv := u.val, z.reset(m)
	acc := rv.acc.reset(m)
	var zT []float64
	if t > 0 {
		rhs := rv.coreRhs[:t]
		for i, r := range rv.coreRows {
			rhs[i] = uv[r]
		}
		zT = rv.coreSol[:t]
		rv.stats.SolveEntries += rv.lu.SolveInto(rhs, zT)
		for i, p := range rv.coreCols {
			zi := zT[i]
			if zi == 0 {
				continue
			}
			for _, ce := range rv.rows.col(rv.baseVar[p]) {
				if rv.rowOfCore[ce.row] >= 0 {
					continue // core rows are solved above
				}
				if acc[ce.row] == 0 {
					rv.acc.push(int(ce.row))
				}
				acc[ce.row] += ce.coef * zi
			}
		}
	}
	slackRow := func(k int) {
		if c := rv.rowOfCore[k]; c < 0 {
			if d := uv[k] - acc[k]; d != 0 {
				p := int(-1 - c)
				if zv[p] == 0 {
					z.push(p)
				}
				zv[p] = d
			}
		}
	}
	if u.dense || rv.acc.dense {
		for k := range m {
			slackRow(k)
		}
	} else {
		for _, k := range u.idx {
			slackRow(int(k))
		}
		for _, k := range rv.acc.idx {
			slackRow(int(k))
		}
	}
	for i, p := range rv.coreCols {
		if zi := zT[i]; zi != 0 {
			zv[p] = zi
			z.push(p)
		}
	}
	z.sort()
}

// btran0 computes ρ = B₀⁻ᵀ u: u is by basis position, ρ by row. The
// basic-slack rows take their entries straight from u; their share of
// the core right-hand side is scattered along each such row with a
// nonzero ρ, in ascending row order, so each core entry subtracts its
// terms in the order the full pass did.
func (rv *Revised) btran0(u, rho *svec) {
	m := rv.rows.numRows()
	uv, rh := u.val, rho.reset(m)
	for q, n := 0, u.n(); q < n; q++ {
		p := u.at(q)
		if v := rv.baseVar[p]; v >= rv.nVars && uv[p] != 0 {
			rh[v-rv.nVars] = uv[p]
			rho.push(v - rv.nVars)
		}
	}
	rho.sort()
	t := len(rv.coreCols)
	if t == 0 {
		return
	}
	rhs := rv.coreRhs[:t]
	for i, p := range rv.coreCols {
		rhs[i] = uv[p]
	}
	for q, n := 0, rho.n(); q < n; q++ {
		k := rho.at(q)
		rk := rh[k]
		if rk == 0 || rv.rowOfCore[k] >= 0 {
			continue
		}
		ind, val := rv.rows.row(k)
		for c, j := range ind {
			if ci := rv.coreOfVar[j]; ci >= 0 {
				rhs[ci] -= val[c] * rk
			}
		}
	}
	sol := rv.coreSol[:t]
	rv.stats.SolveEntries += rv.lu.SolveTransposeInto(rhs, sol)
	for i, r := range rv.coreRows {
		if si := sol[i]; si != 0 {
			rh[r] = si
			rho.push(r)
		}
	}
	rho.sort()
}

// ftran computes z = B⁻¹ u (u by row, z by position) through the base
// factorization and the eta file.
func (rv *Revised) ftran(u, z *svec) {
	rv.ftran0(u, z)
	if len(rv.etas) == 0 {
		return
	}
	zv := z.val
	for i := range rv.etas {
		e := &rv.etas[i]
		t := zv[e.pos] / e.diag
		if t != 0 {
			for q, idx := range e.idx {
				if zv[idx] == 0 {
					z.push(int(idx))
				}
				zv[idx] -= e.val[q] * t
			}
		}
		zv[e.pos] = t
	}
	z.sort()
}

// btranPos computes ρ = B⁻ᵀ e_pos (ρ by row), the BTRAN pass of one dual
// pivot.
func (rv *Revised) btranPos(pos int, rho *svec) {
	u := rv.pos.reset(rv.rows.numRows())
	u[pos] = 1
	rv.pos.push(pos)
	for i := len(rv.etas) - 1; i >= 0; i-- {
		e := &rv.etas[i]
		s := u[e.pos]
		for q, idx := range e.idx {
			s -= e.val[q] * u[idx]
		}
		v := s / e.diag
		if v != 0 && u[e.pos] == 0 {
			rv.pos.push(e.pos)
		}
		u[e.pos] = v
	}
	rv.pos.sort()
	rv.btran0(&rv.pos, rho)
}

// priceRow forms the pricing row α = ρᵀA over the structural columns by
// a CSR pass over the rows on ρ's list, in ascending row order (so each
// α_j sums its terms as the full pass did).
func (rv *Revised) priceRow() {
	alpha, rho := rv.alpha.reset(rv.nVars), rv.rho.val
	for q, n := 0, rv.rho.n(); q < n; q++ {
		k := rv.rho.at(q)
		rk := rho[k]
		if rk == 0 {
			continue
		}
		ind, val := rv.rows.row(k)
		for c, j := range ind {
			if alpha[j] == 0 {
				rv.alpha.push(int(j))
			}
			alpha[j] += val[c] * rk
		}
	}
	rv.alpha.sort()
}

// Solve re-optimizes with the bounded-variable revised dual simplex and
// returns the current solution. Status is Optimal or Infeasible (a
// non-negative objective over boxed-below variables can never be
// unbounded); Numerical/IterLimit report trouble.
func (rv *Revised) Solve() (*Solution, error) {
	rv.solved = true
	if rv.infeasible {
		return &Solution{Status: Infeasible, Iterations: rv.iterations}, nil
	}
	m := rv.rows.numRows()
	if m == 0 {
		return rv.extract(), nil
	}
	if rv.dirty {
		rv.refactorize()
	} else if rv.stats.Refactorizations == 0 && rv.stats.Resets == 0 {
		// First solve on a fresh engine: establish xB from the all-slack
		// basis without a factorization.
		rv.refactorize()
	}
	feasTol := rv.feasTol()
	maxIter := rv.pivotBudget(m)
	rv.ensureWeights(m)
	rv.scanInfeasible() // restaging edits moved xB and boxes since the last Solve
	resets := 0
	const aTol = 1e-9
	for iter := 0; ; iter++ {
		if rv.checkPivots {
			rv.checkState(feasTol)
		}
		if iter >= maxIter {
			return &Solution{Status: IterLimit, Iterations: rv.iterations}, nil
		}
		// Leaving position. Devex scores each violation d by d²/γ_p,
		// steering away from rows whose B⁻ᵀ row has grown long (the
		// degenerate-tie cure); `worst` holds the selected row's actual
		// violation, which the bound-flipping walk below consumes. Only the
		// positions on the infeasible list can qualify; the walk drops those
		// that turned feasible and, going in ascending order with strict
		// comparisons, breaks ties toward the smaller position.
		r, worst, above := -1, feasTol, false
		best := 0.0
		live := rv.infeas[:0]
		for _, p32 := range rv.infeas {
			p := int(p32)
			lo, hi := rv.boxOf(rv.basisVar[p])
			dLo, dHi := lo-rv.xB[p], rv.xB[p]-hi
			if dLo <= feasTol && dHi <= feasTol {
				continue
			}
			live = append(live, p32)
			if dLo > feasTol {
				if s := dLo * dLo / rv.gamma[p]; s > best {
					r, worst, above, best = p, dLo, false, s
				}
			}
			if dHi > feasTol {
				if s := dHi * dHi / rv.gamma[p]; s > best {
					r, worst, above, best = p, dHi, true, s
				}
			}
		}
		rv.infeas = live
		if r < 0 {
			break // primal feasible ⇒ optimal (dual feasibility invariant)
		}
		rv.btranPos(r, &rv.rho)
		// Pricing: α over structural columns via a CSR pass over the rows
		// where ρ is nonzero; slack columns have α_k = ρ_k directly.
		rv.priceRow()
		rho, alpha := rv.rho.val, rv.alpha.val
		// Two-sided dual ratio test. dir is the direction xB[r] must move
		// to re-enter its box; a nonbasic variable qualifies when leaving
		// its bound pushes xB[r] that way: at-lower variables need
		// dir·α < 0 (they can only increase), at-upper variables dir·α > 0
		// (they can only decrease). Fixed variables (zero width) never
		// enter. A zero α never qualifies, so the lists of α and ρ hold
		// every candidate. The candidate list is sorted by dual ratio with
		// the variable id as a deterministic tie-break, which makes the
		// order the lists are walked in irrelevant.
		dir := 1.0
		if above {
			dir = -1
		}
		cands := rv.cands[:0]
		for q, n := 0, rv.alpha.n(); q < n; q++ {
			j := rv.alpha.at(q)
			if rv.posOfStruct[j] >= 0 {
				continue
			}
			width := rv.hiS[j] - rv.loS[j]
			if width <= 0 {
				continue
			}
			a := alpha[j]
			at := dir * a
			var d float64
			if rv.atUpperS[j] {
				if at <= aTol {
					continue
				}
				d = -rv.dS[j]
			} else {
				if at >= -aTol {
					continue
				}
				d = rv.dS[j]
			}
			if d < 0 {
				d = 0
			}
			cands = append(cands, ratioCand{j, a, d / math.Abs(a), width})
		}
		for q, n := 0, rv.rho.n(); q < n; q++ {
			k := rv.rho.at(q)
			if rv.posOfSlack[k] >= 0 {
				continue
			}
			width := rv.slackHi[k]
			if width <= 0 {
				continue
			}
			a := rho[k]
			at := dir * a
			var d float64
			if rv.atUpperK[k] {
				if at <= aTol {
					continue
				}
				d = -rv.dK[k]
			} else {
				if at >= -aTol {
					continue
				}
				d = rv.dK[k]
			}
			if d < 0 {
				d = 0
			}
			cands = append(cands, ratioCand{rv.nVars + k, a, d / math.Abs(a), width})
		}
		slices.SortFunc(cands, func(a, b ratioCand) int {
			switch {
			case a.ratio < b.ratio:
				return -1
			case a.ratio > b.ratio:
				return 1
			}
			return a.id - b.id
		})
		rv.cands = cands // keep the (possibly regrown) buffer for the next pivot
		// Bound-flipping walk: a candidate whose full box traversal cannot
		// absorb the remaining infeasibility is flipped to its other bound
		// (its reduced cost crosses zero below the final dual step, so the
		// flip keeps dual feasibility); the first candidate that can absorb
		// it enters the basis.
		remaining := worst
		enterIdx := -1
		for ci := range cands {
			capac := cands[ci].width * math.Abs(cands[ci].alpha)
			if !math.IsInf(cands[ci].width, 1) && capac < remaining {
				remaining -= capac
				continue
			}
			enterIdx = ci
			break
		}
		if enterIdx < 0 {
			// Even sending every eligible nonbasic to its other bound
			// cannot bring row r back inside its box: infeasible — unless
			// the factorization has drifted; verify against a fresh one
			// before certifying. On a fresh one, a shortfall within feasTol
			// is roundoff at the walk's last breakpoint, which in exact
			// arithmetic absorbs the violation: the last candidate enters
			// there, and the dual step to its ratio keeps every flip
			// dual-feasible.
			if !rv.justRefactored {
				rv.refactorize()
				continue
			}
			if remaining > feasTol {
				rv.infeasible = true
				return &Solution{Status: Infeasible, Iterations: rv.iterations}, nil
			}
			enterIdx = len(cands) - 1
		}
		// Apply the accumulated bound flips in one FTRAN: xB ← xB − B⁻¹Δ
		// with Δ = Σ a_j·Δx_j over the flipped columns.
		if enterIdx > 0 {
			flipRow := rv.col.reset(m)
			for _, cd := range cands[:enterIdx] {
				var delta float64
				if cd.id < rv.nVars {
					if rv.atUpperS[cd.id] {
						delta = -cd.width
						rv.atUpperS[cd.id] = false
					} else {
						delta = cd.width
						rv.atUpperS[cd.id] = true
					}
					for _, ce := range rv.rows.col(cd.id) {
						if flipRow[ce.row] == 0 {
							rv.col.push(int(ce.row))
						}
						flipRow[ce.row] += ce.coef * delta
					}
				} else {
					k := cd.id - rv.nVars
					if rv.atUpperK[k] {
						delta = -cd.width
						rv.atUpperK[k] = false
					} else {
						delta = cd.width
						rv.atUpperK[k] = true
					}
					if flipRow[k] == 0 {
						rv.col.push(k)
					}
					flipRow[k] += delta
				}
			}
			rv.col.sort()
			rv.ftran(&rv.col, &rv.w)
			rv.subtractXB(&rv.w)
			rv.noteInfeasible(&rv.w, feasTol)
			rv.boundFlips += enterIdx
		}
		enter := cands[enterIdx].id
		bestAlpha := cands[enterIdx].alpha
		// FTRAN the entering column.
		col := rv.col.reset(m)
		if enter < rv.nVars {
			for _, ce := range rv.rows.col(enter) {
				col[ce.row] = ce.coef
				rv.col.push(int(ce.row))
			}
		} else {
			col[enter-rv.nVars] = 1
			rv.col.push(enter - rv.nVars)
		}
		rv.ftran(&rv.col, &rv.w)
		w := rv.w.val
		if math.Abs(w[r]) < 1e-8 || math.Abs(w[r]-bestAlpha) > 1e-6*(1+math.Abs(bestAlpha)) {
			// Pivot disagreement between the pricing row and the FTRAN
			// column: the eta file has drifted. Refactor; if that does not
			// help, restart from the all-slack basis; give up after that.
			// (Any bound flips already taken above are valid state on their
			// own and survive the recovery.)
			if !rv.justRefactored {
				rv.refactorize()
				continue
			}
			if resets == 0 {
				rv.reset("pivot-disagreement")
				resets++
				continue
			}
			return &Solution{Status: Numerical, Iterations: rv.iterations}, nil
		}
		// Pivot-element magnitude extremes: the accepted pivot's |w[r]|.
		if aw := math.Abs(w[r]); aw > 0 {
			if aw > rv.stats.PivotMax {
				rv.stats.PivotMax = aw
			}
			if rv.stats.PivotMin == 0 || aw < rv.stats.PivotMin {
				rv.stats.PivotMin = aw
			}
		}
		// Reference-weight update, on the PRE-pivot weights.
		rv.updateWeights(r, m)
		var dEnter float64
		if enter < rv.nVars {
			dEnter = rv.dS[enter]
		} else {
			dEnter = rv.dK[enter-rv.nVars]
		}
		thetaD := dEnter / w[r]
		// Primal step: drive xB[r] exactly onto its violated bound; the
		// entering variable leaves its resting bound by Δx.
		leave := rv.basisVar[r]
		loL, hiL := rv.boxOf(leave)
		bound := loL
		if above {
			bound = hiL
		}
		deltaX := (rv.xB[r] - bound) / w[r]
		for q, n := 0, rv.w.n(); q < n; q++ {
			if p := rv.w.at(q); p != r && w[p] != 0 {
				rv.xB[p] -= deltaX * w[p]
			}
		}
		rv.xB[r] = rv.nbVal(enter) + deltaX
		if thetaD != 0 {
			// Dual step along ρ and α, clamping each reduced cost it moves
			// onto its variable's dual-feasible side. Every other nonbasic
			// reduced cost is already on that side (the loop keeps them
			// there, refactorize and reset clamp them all), so walking the
			// lists skips only no-op clamps — except after a restage left
			// one within tolerance on the wrong side, when both passes walk
			// every index once.
			if rv.sideStale {
				rv.rho.dense, rv.alpha.dense, rv.sideStale = true, true, false
			}
			for q, n := 0, rv.rho.n(); q < n; q++ {
				k := rv.rho.at(q)
				if rho[k] != 0 {
					rv.y[k] += thetaD * rho[k]
				}
				d := rv.dK[k] - thetaD*rho[k]
				if rv.posOfSlack[k] < 0 && rv.slackHi[k] != 0 {
					if rv.atUpperK[k] {
						if d > 0 {
							d = 0
						}
					} else if d < 0 {
						d = 0
					}
				}
				rv.dK[k] = d
			}
			for q, n := 0, rv.alpha.n(); q < n; q++ {
				j := rv.alpha.at(q)
				d := rv.dS[j] - thetaD*alpha[j]
				if rv.posOfStruct[j] < 0 && rv.loS[j] != rv.hiS[j] {
					if rv.atUpperS[j] {
						if d > 0 {
							d = 0
						}
					} else if d < 0 {
						d = 0
					}
				}
				rv.dS[j] = d
			}
		}
		// Book-keeping: swap basis membership, record the eta. The leaving
		// variable lands on the bound it violated: NB-at-lower when it fell
		// below, NB-at-upper when it rose above; its reduced cost becomes
		// −θ_D, which has the dual-feasible sign for that side.
		if leave < rv.nVars {
			rv.posOfStruct[leave] = -1
			rv.atUpperS[leave] = above
			if above {
				rv.dS[leave] = math.Min(0, -thetaD)
			} else {
				rv.dS[leave] = math.Max(0, -thetaD)
			}
		} else {
			sk := leave - rv.nVars
			rv.posOfSlack[sk] = -1
			rv.atUpperK[sk] = above
			if above {
				rv.dK[sk] = math.Min(0, -thetaD)
			} else {
				rv.dK[sk] = math.Max(0, -thetaD)
			}
		}
		rv.basisVar[r] = enter
		if enter < rv.nVars {
			rv.posOfStruct[enter] = int32(r)
			rv.dS[enter] = 0
		} else {
			rv.posOfSlack[enter-rv.nVars] = int32(r)
			rv.dK[enter-rv.nVars] = 0
		}
		// The step moved xB along w's list, and position r now holds the
		// entering variable's box: re-list whatever left its box.
		rv.noteInfeasible(&rv.w, feasTol)
		// Record the eta, reusing a retired entry's idx/val backing arrays
		// when the eta file was truncated by an earlier refactorization (the
		// file never outgrows refEach entries in steady state, so after
		// warm-up this append allocates nothing).
		var et *eta
		if n := len(rv.etas); n < cap(rv.etas) {
			rv.etas = rv.etas[:n+1]
			et = &rv.etas[n]
			et.idx = et.idx[:0]
			et.val = et.val[:0]
		} else {
			rv.etas = append(rv.etas, eta{})
			et = &rv.etas[len(rv.etas)-1]
		}
		et.pos, et.diag = r, w[r]
		for q, n := 0, rv.w.n(); q < n; q++ {
			if p := rv.w.at(q); p != r && math.Abs(w[p]) > 1e-13 {
				et.idx = append(et.idx, int32(p))
				et.val = append(et.val, w[p])
			}
		}
		rv.iterations++
		rv.justRefactored = false
		if len(rv.etas) >= rv.refEach {
			rv.refactorize()
		}
	}
	sol := rv.extract()
	if len(rv.etas) > 0 {
		// Clear the eta file while idle so the next AddRow batch can take
		// the warm bordered-extension path instead of forcing a cold
		// refactorization at the start of the next round.
		rv.refactorize()
	}
	return sol, nil
}

// checkState is the checkPivots test hook: it compares the sparse pivot
// state with a full recomputation and panics on the first difference.
// Every work vector's list must cover its nonzeros (the accumulator's
// list, walked only inside ftran0, need not be ordered; the others must
// be ascending without repeats); the infeasible list must hold every
// position a full scan finds outside its box; and unless a restage left
// the sides stale, no nonbasic reduced cost may sit on its
// dual-infeasible side, so the dual step's clamp of the reduced costs it
// does not touch is a no-op.
func (rv *Revised) checkState(feasTol float64) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("lp: sparse pivot state: "+format, args...))
	}
	vecs := []struct {
		name    string
		v       *svec
		ordered bool
	}{
		{"rho", &rv.rho, true}, {"alpha", &rv.alpha, true}, {"col", &rv.col, true},
		{"w", &rv.w, true}, {"pos", &rv.pos, true}, {"acc", &rv.acc, false},
	}
	for _, vc := range vecs {
		v := vc.v
		if v.dense {
			continue
		}
		listed := v.idx
		if !vc.ordered {
			listed = slices.Clone(v.idx)
			slices.Sort(listed)
			listed = slices.Compact(listed)
		}
		for q := 1; q < len(listed); q++ {
			if listed[q-1] >= listed[q] {
				fail("%s list not ascending at %d: %v", vc.name, q, listed)
			}
		}
		q := 0
		for i, x := range v.val {
			for q < len(listed) && int(listed[q]) < i {
				q++
			}
			if x != 0 && (q == len(listed) || int(listed[q]) != i) {
				fail("%s[%d] = %g is off its list", vc.name, i, x)
			}
		}
	}
	for q := 1; q < len(rv.infeas); q++ {
		if rv.infeas[q-1] >= rv.infeas[q] {
			fail("infeasible list not ascending at %d", q)
		}
	}
	q := 0
	for p := range rv.rows.numRows() {
		for q < len(rv.infeas) && int(rv.infeas[q]) < p {
			q++
		}
		if rv.outside(p, feasTol) && (q == len(rv.infeas) || int(rv.infeas[q]) != p) {
			fail("position %d is infeasible but not listed", p)
		}
	}
	if rv.sideStale {
		return
	}
	wrong := func(d float64, atUpper bool) bool { return (atUpper && d > 0) || (!atUpper && d < 0) }
	for j := range rv.nVars {
		if rv.posOfStruct[j] < 0 && rv.loS[j] != rv.hiS[j] && wrong(rv.dS[j], rv.atUpperS[j]) {
			fail("structural %d (at upper: %v) has reduced cost %g", j, rv.atUpperS[j], rv.dS[j])
		}
	}
	for k := range rv.rows.numRows() {
		if rv.posOfSlack[k] < 0 && rv.slackHi[k] != 0 && wrong(rv.dK[k], rv.atUpperK[k]) {
			fail("slack %d (at upper: %v) has reduced cost %g", k, rv.atUpperK[k], rv.dK[k])
		}
	}
}

// extract assembles the Optimal solution from the current basis: basic
// values (snapped into their boxes within tolerance) plus nonbasic
// resting bounds. A zero is reported as +0: which passes visited an
// entry decides the sign of a zero, never its value.
func (rv *Revised) extract() *Solution {
	x := make([]float64, rv.nVars)
	snap := 1e-7 * (1 + rv.feasTol()/math.Max(rv.tol, 1e-300))
	for j := 0; j < rv.nVars; j++ {
		v := rv.structVal(j)
		if lo := rv.loS[j]; v < lo && v > lo-snap {
			v = lo
		}
		if hi := rv.hiS[j]; v > hi && v < hi+snap {
			v = hi
		}
		x[j] = v + 0 // −0 + 0 = +0
	}
	var obj float64
	for j, cj := range rv.c {
		obj += cj * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: rv.iterations}
}
