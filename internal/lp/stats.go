package lp

import (
	"fmt"
	"strings"
	"time"
)

// Stats is the one observability record of a solve. The engines fill the
// pivot and factorization counters; the row-generation loop in
// internal/core fills the round, Steiner-row and scale-path fields. The
// public lubt.SolveStats is this type, `lubt -stats` prints its String,
// and the lubt-bench/4 JSON embeds it in every engine row under the tags
// below. Counters are cumulative over the lifetime of one engine / one
// solve. A new field needs a JSON tag and a line in Merge.
type Stats struct {
	// Rounds is the number of row-generation rounds; SteinerRows the
	// Steiner rows stated in the final LP (compare against C(m,2) for the
	// §4.6 reduction). Both are filled by internal/core.
	Rounds      int `json:"rounds"`
	SteinerRows int `json:"steiner_rows"`
	// LPIterations counts simplex pivots (dual pivots for the revised
	// engine, both phases for the cold simplex) or IPM iterations.
	LPIterations int `json:"pivots"`
	// BoundFlips counts nonbasic bound-to-bound flips taken inside the
	// two-sided dual ratio test (flips are not pivots: they cost one
	// shared FTRAN per batch).
	BoundFlips int `json:"bound_flips"`
	// Refactorizations counts basis refactorizations of the revised
	// dual-simplex engine (the cold solvers never refactor).
	Refactorizations int `json:"refactorizations"`
	// Resets counts full basis resets taken after numerical trouble.
	// ResetReasons holds one reason code per reset, in order; the revised
	// engine emits "basis-mismatch" (core row/column count disagreement),
	// "lu-singular" (the structural-core LU factorization failed),
	// "dual-drift" (recomputed reduced costs left the dual-feasible side
	// beyond tolerance) and "pivot-disagreement" (the FTRAN column and the
	// pricing row disagreed on the pivot element).
	Resets       int      `json:"resets"`
	ResetReasons []string `json:"reset_reasons"`
	// BasisSize is the structural-core dimension t of the basis at the
	// last refactorization: the number of basic non-slack variables. For
	// EBF it is bounded by the edge count no matter how many Steiner rows
	// row generation adds.
	BasisSize int `json:"basis_size"`
	// FillIn is nnz(L+U) − nnz(core) at the last refactorization: extra
	// nonzeros the LU factorization introduced beyond the basis core.
	FillIn int `json:"fill_in"`
	// LUNonzeros sums nnz(L+U) over every factorization of the basis
	// core, and SolveEntries counts the L and U entries the core FTRAN
	// and BTRAN solves apply: the entries of each column of L and U whose
	// multiplier is nonzero. Both are deterministic work counters of the
	// factorization, the one to build it and the other to use it.
	LUNonzeros   int `json:"lu_nnz"`
	SolveEntries int `json:"solve_entries"`
	// EtaLen is the eta-file length consumed by the last refactorization:
	// how many product-form updates had accumulated since the previous
	// factorization (0 when the basis was refactored with no pivots taken).
	EtaLen int `json:"eta_len"`
	// LogicalRows counts constraint rows as stated by the caller (an EQ or
	// ranged row counts once). TableauRows counts engine-internal rows:
	// the boxed revised engine stores EQ and ranged rows once (the slack
	// is fixed/boxed), while the cold solvers lower them to a ≤/≥ pair.
	// LoweredTableauRows is the row count the two-row lowering would need
	// — the before/after pair (TableauRows, LoweredTableauRows) measures
	// the delay-window row halving. RangedRows counts logical rows stated
	// with a two-sided (or exact) window — the rows a boxed engine keeps
	// single. RowNonzeros is the nonzero count of the stored constraint
	// rows.
	LogicalRows        int `json:"logical_rows"`
	TableauRows        int `json:"tableau_rows"`
	LoweredTableauRows int `json:"lowered_tableau_rows"`
	RangedRows         int `json:"ranged_rows"`
	RowNonzeros        int `json:"row_nonzeros"`
	// NumericalResidual is the engine's terminal numerical-health gauge.
	// For the revised engine it is max |xB(eta replay) − xB(fresh FTRAN)|
	// over basis positions at the last refactorization — the drift the eta
	// file accumulated. For the IPM it is the final scaled KKT residual;
	// for the cold simplex the worst constraint violation of the returned
	// vertex. Small (≈ feasibility tolerance) is healthy.
	NumericalResidual float64 `json:"numerical_residual"`
	// PivotMin and PivotMax are the smallest and largest |pivot element|
	// accepted across all dual pivots (0 when no pivots ran). A PivotMin
	// many orders below PivotMax warns of ill-conditioned bases.
	PivotMin float64 `json:"pivot_min"`
	PivotMax float64 `json:"pivot_max"`
	// DevexResets counts the revised engine's Devex reference-framework
	// restarts forced by weight overflow past the cap — scheduled
	// re-anchors at refactorization are NOT counted here (they track
	// Refactorizations).
	DevexResets int `json:"devex_resets"`
	// WeightMin and WeightMax are the Devex reference-weight extremes
	// γ_min/γ_max over the basis at the last Stats snapshot (both 0 on the
	// cold engines and before the revised engine holds a row). Every
	// weight is at least 1. A very large WeightMax flags a basis whose B⁻ᵀ
	// rows have grown long — the same signal that triggers DevexResets.
	// They are gauges: Merge replaces them.
	WeightMin float64 `json:"weight_min"`
	WeightMax float64 `json:"weight_max"`
	// Restages counts between-Solve edits the revised engine absorbed while
	// keeping its basis warm: SetVarBounds and SetCost calls after the first
	// Solve, plus the rhs-only fast path of ReplaceRangedRow.
	// RowReplacements counts ReplaceRangedRow/DeleteRow calls that rewrote a
	// stored row. Together they are the ECO health gauges: a re-solve after
	// R restages that still needs near-cold pivot counts signals the warm
	// basis is not being reused.
	Restages        int `json:"restages"`
	RowReplacements int `json:"row_replacements"`
	// PresolvePrunedRows counts sink-pair Steiner rows the separation
	// oracle's window arm removed from its scan before they were ever
	// generated or priced (filled by internal/core; 0 where the arm is
	// off: sessions, the Elmore SLP and FullMatrix). Subtrees is the number of root-branch subproblems the
	// decomposition layer solved on independent engines (0 for a
	// monolithic solve). PeakRows is the largest engine-internal tableau
	// row count any single engine reached during the solve — under
	// decomposition this is the per-branch peak, the memory-pressure
	// number the monolithic TableauRows overstates.
	PresolvePrunedRows int `json:"presolve_pruned_rows"`
	Subtrees           int `json:"subtrees"`
	PeakRows           int `json:"peak_rows"`
	// ViolatedByRound records how many violated Steiner pairs the
	// separation oracle found in each round (the last entry is 0 on
	// convergence).
	ViolatedByRound []int `json:"violated_by_round"`
	// SeparationTime is the cumulative wall time of separation-oracle
	// scans; SolveTime is the cumulative wall time inside LP solves.
	SeparationTime time.Duration `json:"sep_scan_ns"`
	SolveTime      time.Duration `json:"lp_solve_ns"`
}

// Merge folds other into s: counters add, per-round traces and reset
// reasons concatenate, pivot-element extremes widen, and gauges
// (BasisSize, FillIn, EtaLen, NumericalResidual, row counts, reference
// weights) take other's value even when it is 0 — the newer sample wins,
// so a legitimately-zero gauge (FillIn 0 after a clean refactorization)
// replaces a stale nonzero one.
func (s *Stats) Merge(other Stats) {
	s.Rounds += other.Rounds
	s.SteinerRows = other.SteinerRows
	s.LPIterations += other.LPIterations
	s.BoundFlips += other.BoundFlips
	s.Refactorizations += other.Refactorizations
	s.Resets += other.Resets
	s.ResetReasons = append(s.ResetReasons, other.ResetReasons...)
	s.BasisSize = other.BasisSize
	s.FillIn = other.FillIn
	s.LUNonzeros += other.LUNonzeros
	s.SolveEntries += other.SolveEntries
	s.EtaLen = other.EtaLen
	s.LogicalRows = other.LogicalRows
	s.TableauRows = other.TableauRows
	s.LoweredTableauRows = other.LoweredTableauRows
	s.RangedRows = other.RangedRows
	s.RowNonzeros = other.RowNonzeros
	s.NumericalResidual = other.NumericalResidual
	if other.PivotMin > 0 && (s.PivotMin == 0 || other.PivotMin < s.PivotMin) {
		s.PivotMin = other.PivotMin
	}
	if other.PivotMax > s.PivotMax {
		s.PivotMax = other.PivotMax
	}
	s.DevexResets += other.DevexResets
	s.WeightMin = other.WeightMin
	s.WeightMax = other.WeightMax
	s.Restages += other.Restages
	s.RowReplacements += other.RowReplacements
	s.PresolvePrunedRows += other.PresolvePrunedRows
	s.Subtrees += other.Subtrees
	if other.PeakRows > s.PeakRows {
		s.PeakRows = other.PeakRows
	}
	s.ViolatedByRound = append(s.ViolatedByRound, other.ViolatedByRound...)
	s.SeparationTime += other.SeparationTime
	s.SolveTime += other.SolveTime
}

// String renders a compact multi-line summary (what `lubt -stats` prints).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds %d  steiner-rows %d  pivots %d  bound-flips %d  refactorizations %d  resets %d\n",
		s.Rounds, s.SteinerRows, s.LPIterations, s.BoundFlips, s.Refactorizations, s.Resets)
	fmt.Fprintf(&b, "rows %d logical / %d tableau (%d lowered, %d ranged)  nnz %d  basis %d  fill-in %d\n",
		s.LogicalRows, s.TableauRows, s.LoweredTableauRows, s.RangedRows, s.RowNonzeros, s.BasisSize, s.FillIn)
	fmt.Fprintf(&b, "lu-nnz %d  solve-entries %d  eta-len %d  residual %.3g  pivot-el [%.3g, %.3g]\n",
		s.LUNonzeros, s.SolveEntries, s.EtaLen, s.NumericalResidual, s.PivotMin, s.PivotMax)
	if s.Restages > 0 || s.RowReplacements > 0 {
		fmt.Fprintf(&b, "restages %d  row-replacements %d\n", s.Restages, s.RowReplacements)
	}
	if s.WeightMax > 0 {
		fmt.Fprintf(&b, "devex-resets %d  weights [%.3g, %.3g]\n",
			s.DevexResets, s.WeightMin, s.WeightMax)
	}
	if s.PresolvePrunedRows > 0 || s.Subtrees > 0 || s.PeakRows > 0 {
		fmt.Fprintf(&b, "presolve-pruned %d  subtrees %d  peak-rows %d\n",
			s.PresolvePrunedRows, s.Subtrees, s.PeakRows)
	}
	fmt.Fprintf(&b, "sep-scan %v  lp-solve %v", s.SeparationTime.Round(time.Microsecond), s.SolveTime.Round(time.Microsecond))
	if len(s.ResetReasons) > 0 {
		fmt.Fprintf(&b, "\nreset-reasons %v", s.ResetReasons)
	}
	if len(s.ViolatedByRound) > 0 {
		fmt.Fprintf(&b, "\nviolated/round %v", s.ViolatedByRound)
	}
	return b.String()
}
