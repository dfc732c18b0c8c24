// Package lp implements linear programming from scratch for the EBF
// formulation of the LUBT paper (Oh, Pyo, Pedram, DAC 1996). Problems are
// stated over variables x ≥ 0 with sparse rows Σ aᵢⱼ xⱼ {≤,≥,=} bᵢ and a
// minimization objective — exactly the shape of the EBF LP: edge lengths
// are non-negative, Steiner rows are ≥, delay rows are two-sided windows.
//
// # Solvers
//
// Three solvers share the Problem/Solution vocabulary:
//
//   - Simplex: a two-phase dense primal simplex (Dantzig pricing with
//     Bland's anti-cycling fallback). The cold-start reference: exact
//     infeasibility certificates, vertex solutions.
//   - IPM: a Mehrotra predictor-corrector primal-dual interior-point
//     method, standing in for LOQO, the solver the paper used. No exact
//     infeasibility certificate (IterLimit/Numerical instead).
//   - Revised: a sparse revised dual simplex with bounded variables —
//     the one warm engine (see below). A pivot is one BTRAN, one sparse
//     pricing pass and one FTRAN through a sparse LU of the basis's
//     structural core; its work follows the nonzeros it touches, not
//     the row or column count (see "Hypersparse pivot loop").
//
// Simplex and IPM share no code with Revised; internal/core runs them
// through the same row-generation loop as independent cross-checks.
//
// # The RowEngine contract
//
// The §4.6 row-generation loop in internal/core is written against the
// RowEngine interface, implemented by Revised and by internal/core's
// adapter around the cold solvers. Implementations guarantee:
//
//   - Through the RowEngine interface rows are append-only, so
//     infeasibility is monotone along any AddRow/AddRangedRow/Solve
//     sequence: after a Solve returns Infeasible, every later Solve
//     returns Infeasible ("sticky") — until a restaging edit (below)
//     relaxes or rewrites something, which clears the certificate.
//   - Costs must be non-negative. This is what makes the all-nonbasic
//     point dual-feasible, so the dual simplex needs no
//     phase-1/artificial machinery and a re-solve after adding k
//     violated rows typically takes O(k) pivots. Revised additionally
//     allows SetCost between Solves (a restage; same sign constraint).
//   - Solve is idempotent: calling it twice without interleaved AddRow /
//     AddRangedRow returns the same solution without extra pivots.
//   - Row counting: NumRows (and Stats().LogicalRows) counts rows as the
//     caller stated them — an EQ or ranged row counts ONCE on every
//     engine. TableauRows counts engine-internal rows: the boxed revised
//     engine stores EQ and ranged rows once (bounded slack), the cold
//     adapter lowers them to a ≤/≥ pair. Stats().LoweredTableauRows
//     reports what the two-row lowering would need on every engine, so
//     the pair (TableauRows, LoweredTableauRows) measures the saving.
//
// Engines that additionally implement VarBounder (only Revised) accept
// variable boxes lo ≤ xⱼ ≤ hi in place of single-variable rows. Boxes
// are restageable: SetVarBounds between Solves moves the box under the
// kept basis and the next Solve repairs the primal values instead of
// starting cold. Callers type-assert and fall back to an explicit row
// otherwise.
//
// # Restaging (post-solve edits, Revised only)
//
// Beyond the append-only RowEngine surface, Revised supports in-place
// edits between Solves, all preserving the basis membership:
//
//   - SetVarBounds / SetCost — bound boxes and objective coefficients
//     never enter the basis matrix, so the factorization, eta file and
//     Devex weights stay valid; the engine re-picks resting sides and
//     repairs the basic values with one FTRAN (plus one BTRAN and a
//     re-pricing pass when a BASIC variable's cost moves). Counted in
//     Stats().Restages.
//   - ReplaceRangedRow(k, terms, lo, hi) with the SAME stored pattern —
//     the ECO retighten case: only the rhs and the slack box move,
//     repaired like a bound edit. Also a Restage.
//   - ReplaceRangedRow with a CHANGED pattern, and DeleteRow — a row of
//     the basis matrix changes, so the factorization and eta file are
//     invalidated and the next Solve refactorizes once from the kept
//     basis (a row left empty with a nonbasic slack gets its slack
//     forced basic to keep the basis nonsingular). Counted in
//     Stats().RowReplacements. DeleteRow leaves a vacuous row behind so
//     tableau indices stay stable; ReplaceRangedRow revives it.
//
// Every restaging edit clears a sticky Infeasible certificate. Both
// counters stay 0 on cold solvers and on engines that were never
// edited. DESIGN.md's "Restaging" section gives the per-edit
// dual-feasibility arguments; internal/core builds the Elmore SLP's
// persistent engine and the ECO Session on this machinery.
//
// # The bounded-variable (boxed) dual simplex
//
// Revised stores every constraint as an equality a·x + s = b with a boxed
// slack s ∈ [0, slackHi]: slackHi = ∞ is a plain ≤ row, a finite slackHi
// realizes the ranged row b − slackHi ≤ a·x ≤ b in ONE tableau row, and
// slackHi = 0 pins an equality. Nonbasic variables rest at either box
// end; dual feasibility means a non-negative reduced cost at the lower
// bound, non-positive at the upper bound, and unrestricted for fixed
// (lo = hi) variables. The dual ratio test is two-sided with
// bound-flipping: candidates whose box is too narrow to absorb the
// remaining primal infeasibility flip bound-to-bound (one batched FTRAN
// per pivot, counted in Stats().BoundFlips) before the absorbing column
// enters. When the candidates run out first, the row is infeasible only
// if the violation left exceeds the primal tolerance on a fresh
// factorization; a shortfall within it is roundoff at the last
// breakpoint, where the last candidate enters. See DESIGN.md's "Bounded-variable formulation" section for the
// constraint-kind → row/box mapping table.
//
// # Devex pricing (the leaving-row rule)
//
// Revised picks the leaving row by dual Devex pricing: each basic
// position carries a reference weight γ ≥ 1, and the leaving row
// maximizes violation²/γ. Weights are updated per pivot from the
// entering column against the PRE-pivot basis, and a row added warm
// starts at weight 1. The reference framework re-anchors to all-ones at
// every refactorization and basis reset, and on overflow past 1e12
// (counted in Stats().DevexResets — only overflow restarts; scheduled
// re-anchors are Refactorizations). Ties go to the lowest basis
// position. Stats().WeightMin/WeightMax gauge the weights. The pricing
// rule changes only the pivot path, never the optimum. Pivot budget per
// Solve is 20000 + 200·(rows + vars).
//
// # Hypersparse pivot loop
//
// On the EBF LPs a pivot's BTRAN row ρ and FTRAN column w have tens to
// about a hundred nonzeros out of thousands of rows, so Revised never
// walks a whole row- or column-length vector inside the pivot loop. Every work
// vector it builds (ρ, the pricing row α, the FTRAN right-hand sides and
// results, the eta being recorded, the accumulators inside the base
// solves) is a value array plus the list of indices that may be nonzero,
// and every pass walks the list. Leaving rows are picked from a list of
// the basis positions that may be primal infeasible: each pivot merges
// in the positions whose basic value or box it changed, and
// refactorization, reset and the start of each Solve rebuild the list by
// a full scan. A pivot then costs the nonzeros of ρ's rows (pricing and
// the BTRAN scatter), nnz(w) (update, weights and eta), the infeasible
// list, and for the two core solves t (the basis core size) plus the L
// and U entries their nonzero multipliers reach (Stats.SolveEntries),
// plus the eta file — instead of O(rows + columns). The core's LU is
// ordered for sparsity, not magnitude (internal/linalg), so its fill
// and hence those entries stay few on EBF's ±1 path rows. A list that would
// pass a quarter of its vector's length is dropped and that vector is
// walked in full, as before.
//
// The lists change which zeros are visited, never a value: results are
// bit-identical to full passes (±0 aside). Sums still accumulate in
// ascending row or position order, because producers sort their short
// lists; the leaving-row scan walks the ascending infeasible list with
// strict comparisons, so ties still go to the smaller position; and the
// ratio test's candidates are sorted by (ratio, id) whatever order they
// are found in. The dual step clamps only the reduced costs it moves,
// which relies on an invariant: every other nonbasic reduced cost is
// already on its dual-feasible side (the loop keeps them there, and
// refactorization and reset clamp them all). The one exception is a
// restage that leaves a reduced cost on its wrong side within
// tolerance; the next dual step then walks every index once, as the
// full passes did. A test-only hook checks the lists, the infeasible
// list and the invariant against full recomputation at every pivot.
//
// # Sparse storage invariants (CSR/CSC)
//
// Revised keeps its rows in the rowStore, an append-only CSR row store
// over the ≤-form rows with a CSC twin maintained per append:
//
//   - CSR: row k occupies ind/val[ptr[k]:ptr[k+1]]; within a row the
//     column indices are strictly increasing, coefficients are nonzero
//     (duplicate Terms are coalesced, exact zeros dropped).
//   - CSC: cols[j] lists the (row, coef) pairs of structural column j in
//     strictly increasing row order; it is exactly the transpose of the
//     CSR view at all times (both sides are updated in one append).
//   - Slack columns are implicit — only structural coefficients are
//     stored; Stats().RowNonzeros counts exactly these.
//
// # Tolerance conventions
//
// All engines use absolute tolerances anchored at 1e-9 on data of O(1)
// magnitude; the revised engine scales them by the largest stored
// coefficient/RHS magnitude (feasTol/dualTol). Primal feasibility of a
// returned Optimal solution is guaranteed to ~1e-7·scale; cross-solver
// agreement on EBF instances is asserted at 1e-6·radius in the tests,
// matching internal/core.Verify. The revised engine recovers from
// numerical drift with an escalation ladder — refactorize the basis,
// then reset to the all-slack basis, then report Numerical — counted in
// Stats().Refactorizations and Stats().Resets.
//
// # Observability: numerical-health gauges and tracing
//
// Stats is the one declaration of the solver's counters and gauges:
// lubt.SolveStats is an alias of it, its String is what `lubt -stats`
// prints, and its JSON tags are the engine-row keys of the lubt-bench/4
// records (LPIterations is "pivots"; the two times are "sep_scan_ns" and
// "lp_solve_ns"). A new field needs one JSON tag and one line in Merge.
//
// Stats carries two kinds of fields. Counters (LPIterations, BoundFlips,
// Refactorizations, the LU work counters LUNonzeros and SolveEntries, …)
// accumulate across Solve calls and Merge by addition. Gauges are point-in-time samples of the engine's numerical
// health — EtaLen, FillIn, BasisSize, NumericalResidual, PivotMin/Max —
// refreshed at each refactorization (Revised), at termination (IPM's
// scaled KKT residual, Simplex's max constraint violation), or per
// cutting-plane round. Every producer samples its gauges, so Merge takes
// the newer sample wholesale: a legitimate zero (e.g. FillIn 0 after a
// clean refactorization) replaces a stale value instead of being
// skipped. ResetReasons records why each escalation
// fired ("basis-mismatch", "lu-singular", "dual-drift",
// "pivot-disagreement").
//
// Three fields carry the internal/core scale-path story (DESIGN §8)
// and reach the lubt-bench/4 JSON under the same names:
// PresolvePrunedRows (presolve_pruned_rows) counts sink-pair Steiner
// rows the separation oracle's window arm removed before pricing —
// nonzero on most core.Solve runs with finite windows, 0 in sessions,
// the Elmore SLP and FullMatrix; Subtrees
// (subtrees) the root-branch subproblems the decomposition solved on
// independent engines (0 = monolithic); PeakRows (peak_rows) the
// largest tableau any single engine reached — Merge sums the first
// two across branches and takes the max of the third, so a decomposed
// solve reports the per-branch peak rather than the misleading total.
//
// Engines that implement Traceable (only Revised) accept an
// *obs.Tracer and emit spans for refactorizations and basis resets with
// the gauge values as attributes; a nil tracer is free. The
// row-generation loop in internal/core threads its tracer through this
// interface so LP-internal events nest under the per-round spans.
package lp
