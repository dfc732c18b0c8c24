package lp

import (
	"fmt"
	"strings"
	"time"
)

// Stats is the unified observability record of the LP layer. The engines
// fill the pivot/factorization counters; the row-generation loop in
// internal/core fills the separation-oracle and round fields; the public
// lubt API and both CLIs surface the combined record. All counters are
// cumulative over the lifetime of one engine / one solve.
type Stats struct {
	// Pivots counts simplex pivots (dual pivots for the revised engine,
	// both phases for the cold simplex, iterations for the IPM).
	Pivots int
	// Refactorizations counts basis refactorizations of the revised
	// dual-simplex engine (the cold solvers never refactor).
	Refactorizations int
	// Resets counts full basis resets taken after numerical trouble.
	// ResetReasons holds one reason code per reset, in order; the revised
	// engine emits "basis-mismatch" (core row/column count disagreement),
	// "lu-singular" (the structural-core LU factorization failed),
	// "dual-drift" (recomputed reduced costs left the dual-feasible side
	// beyond tolerance) and "pivot-disagreement" (the FTRAN column and the
	// pricing row disagreed on the pivot element).
	Resets       int
	ResetReasons []string
	// BasisSize is the structural-core dimension t of the basis at the
	// last refactorization: the number of basic non-slack variables. For
	// EBF it is bounded by the edge count no matter how many Steiner rows
	// row generation adds.
	BasisSize int
	// FillIn is nnz(L+U) − nnz(core) at the last refactorization: extra
	// nonzeros the LU factorization introduced beyond the basis core.
	FillIn int
	// EtaLen is the eta-file length consumed by the last refactorization:
	// how many product-form updates had accumulated since the previous
	// factorization (0 when the basis was refactored with no pivots taken).
	EtaLen int
	// NumericalResidual is the engine's terminal numerical-health gauge.
	// For the revised engine it is max |xB(eta replay) − xB(fresh FTRAN)|
	// over basis positions at the last refactorization — the drift the eta
	// file accumulated. For the IPM it is the final scaled KKT residual;
	// for the cold simplex the worst constraint violation of the returned
	// vertex. Small (≈ feasibility tolerance) is healthy.
	NumericalResidual float64
	// PivotMin and PivotMax are the smallest and largest |pivot element|
	// accepted across all dual pivots (0 when no pivots ran). A PivotMin
	// many orders below PivotMax warns of ill-conditioned bases.
	PivotMin, PivotMax float64
	// LogicalRows counts constraint rows as stated by the caller (an EQ or
	// ranged row counts once). TableauRows counts engine-internal rows:
	// the boxed revised engine stores EQ and ranged rows once (the slack
	// is fixed/boxed), while the cold solvers lower them to a ≤/≥ pair.
	// LoweredTableauRows is the row count the two-row lowering would need
	// — the before/after pair (TableauRows, LoweredTableauRows) measures
	// the delay-window row halving. RowNonzeros is the nonzero count of
	// the stored constraint rows.
	LogicalRows        int
	TableauRows        int
	LoweredTableauRows int
	RowNonzeros        int
	// RangedRows counts logical rows stated with a two-sided (or exact)
	// window — the rows a boxed engine keeps single. BoundFlips counts
	// nonbasic bound-to-bound flips taken inside the two-sided dual ratio
	// test (flips are not pivots: they cost one shared FTRAN per batch).
	RangedRows int
	BoundFlips int
	// Restages counts between-Solve edits the revised engine absorbed while
	// keeping its basis warm: SetVarBounds and SetCost calls after the first
	// Solve, plus the rhs-only fast path of ReplaceRangedRow.
	// RowReplacements counts ReplaceRangedRow/DeleteRow calls that rewrote a
	// stored row. Together they are the ECO health gauges: a re-solve after
	// R restages that still needs near-cold pivot counts signals the warm
	// basis is not being reused.
	Restages        int
	RowReplacements int
	// PricingScheme is the leaving-row rule the revised engine ran with
	// ("devex", "most-violated" or "steepest-exact"; empty on the other
	// engines). DevexResets counts Devex reference-framework restarts
	// forced by weight overflow past the cap — scheduled re-anchors at
	// refactorization are NOT counted here (they track Refactorizations).
	PricingScheme string
	DevexResets   int
	// WeightMin and WeightMax are the reference-weight extremes γ_min/γ_max
	// over the basis at the last Stats snapshot (both 0 under
	// PricingMostViolated). A very large WeightMax flags a basis whose B⁻ᵀ
	// rows have grown long — the same signal that triggers DevexResets.
	// They are gauges: Merge replaces them.
	WeightMin, WeightMax float64

	// PresolvePrunedRows counts sink-pair Steiner rows the presolve
	// dominance pass removed from the separation oracle's scan before they
	// were ever generated or priced (filled by internal/core; 0 with
	// presolve off). Subtrees is the number of root-branch subproblems the
	// decomposition layer solved on independent engines (0 or 1 for a
	// monolithic solve). PeakRows is the largest engine-internal tableau
	// row count any single engine reached during the solve — under
	// decomposition this is the per-branch peak, the memory-pressure
	// number the monolithic TableauRows overstates.
	PresolvePrunedRows int
	Subtrees           int
	PeakRows           int

	// Rounds is the number of row-generation rounds (filled by
	// internal/core).
	Rounds int
	// ViolatedByRound records how many violated Steiner pairs the
	// separation oracle found in each round (the last entry is 0 on
	// convergence).
	ViolatedByRound []int
	// SeparationTime is the cumulative wall time of separation-oracle
	// scans; SolveTime is the cumulative wall time inside LP solves.
	SeparationTime time.Duration
	SolveTime      time.Duration
}

// Merge folds other into s: counters add, per-round traces and reset
// reasons concatenate, pivot-element extremes widen, and gauges
// (BasisSize, FillIn, EtaLen, NumericalResidual, row counts, reference
// weights) take other's value even when it is 0 — the newer sample wins,
// so a legitimately-zero gauge (FillIn 0 after a clean refactorization)
// replaces a stale nonzero one.
func (s *Stats) Merge(other Stats) {
	s.Pivots += other.Pivots
	s.Refactorizations += other.Refactorizations
	s.Resets += other.Resets
	s.BoundFlips += other.BoundFlips
	s.Restages += other.Restages
	s.RowReplacements += other.RowReplacements
	s.DevexResets += other.DevexResets
	if other.PricingScheme != "" {
		s.PricingScheme = other.PricingScheme
	}
	s.PresolvePrunedRows += other.PresolvePrunedRows
	s.Subtrees += other.Subtrees
	if other.PeakRows > s.PeakRows {
		s.PeakRows = other.PeakRows
	}
	s.Rounds += other.Rounds
	s.SeparationTime += other.SeparationTime
	s.SolveTime += other.SolveTime
	s.ViolatedByRound = append(s.ViolatedByRound, other.ViolatedByRound...)
	s.ResetReasons = append(s.ResetReasons, other.ResetReasons...)
	if other.PivotMax > s.PivotMax {
		s.PivotMax = other.PivotMax
	}
	if other.PivotMin > 0 && (s.PivotMin == 0 || other.PivotMin < s.PivotMin) {
		s.PivotMin = other.PivotMin
	}
	s.BasisSize = other.BasisSize
	s.FillIn = other.FillIn
	s.EtaLen = other.EtaLen
	s.NumericalResidual = other.NumericalResidual
	s.LogicalRows = other.LogicalRows
	s.TableauRows = other.TableauRows
	s.LoweredTableauRows = other.LoweredTableauRows
	s.RangedRows = other.RangedRows
	s.RowNonzeros = other.RowNonzeros
	s.WeightMin = other.WeightMin
	s.WeightMax = other.WeightMax
}

// String renders a compact one-stop summary (used by cmd/lubt --stats).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pivots %d  bound-flips %d  refactorizations %d  basis %d  fill-in %d  resets %d\n",
		s.Pivots, s.BoundFlips, s.Refactorizations, s.BasisSize, s.FillIn, s.Resets)
	fmt.Fprintf(&b, "rows %d logical / %d tableau (%d lowered, %d ranged)  nnz %d  rounds %d\n",
		s.LogicalRows, s.TableauRows, s.LoweredTableauRows, s.RangedRows, s.RowNonzeros, s.Rounds)
	fmt.Fprintf(&b, "eta-len %d  residual %.3g  pivot-el [%.3g, %.3g]\n",
		s.EtaLen, s.NumericalResidual, s.PivotMin, s.PivotMax)
	if s.Restages > 0 || s.RowReplacements > 0 {
		fmt.Fprintf(&b, "restages %d  row-replacements %d\n", s.Restages, s.RowReplacements)
	}
	if s.PricingScheme != "" {
		fmt.Fprintf(&b, "pricing %s  devex-resets %d  weights [%.3g, %.3g]\n",
			s.PricingScheme, s.DevexResets, s.WeightMin, s.WeightMax)
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
