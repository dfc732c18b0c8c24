package lp

import (
	"strings"
	"testing"
	"time"
)

// TestMergeCounters pins the additive half of Merge: counters add, traces
// concatenate in order, times accumulate.
func TestMergeCounters(t *testing.T) {
	a := Stats{
		LPIterations:     3,
		Refactorizations: 1,
		Resets:           1,
		ResetReasons:     []string{"lu-singular"},
		BoundFlips:       2,
		Rounds:           2,
		ViolatedByRound:  []int{4, 0},
		SeparationTime:   time.Millisecond,
		SolveTime:        2 * time.Millisecond,
	}
	b := Stats{
		LPIterations:     5,
		Refactorizations: 2,
		Resets:           1,
		ResetReasons:     []string{"dual-drift"},
		BoundFlips:       1,
		Rounds:           1,
		ViolatedByRound:  []int{7},
		SeparationTime:   3 * time.Millisecond,
		SolveTime:        time.Millisecond,
	}
	a.Merge(b)
	if a.LPIterations != 8 || a.Refactorizations != 3 || a.Resets != 2 || a.BoundFlips != 3 || a.Rounds != 3 {
		t.Errorf("counters did not add: %+v", a)
	}
	if got := a.ResetReasons; len(got) != 2 || got[0] != "lu-singular" || got[1] != "dual-drift" {
		t.Errorf("ResetReasons = %v", got)
	}
	if got := a.ViolatedByRound; len(got) != 3 || got[0] != 4 || got[2] != 7 {
		t.Errorf("ViolatedByRound = %v", got)
	}
	if a.SeparationTime != 4*time.Millisecond || a.SolveTime != 3*time.Millisecond {
		t.Errorf("times did not add: %v %v", a.SeparationTime, a.SolveTime)
	}
}

// TestMergeGaugeSetness: a merged record's gauges replace stale values
// even when the new value is legitimately zero — e.g. FillIn 0 after a
// clean refactorization.
func TestMergeGaugeSetness(t *testing.T) {
	s := Stats{BasisSize: 40, FillIn: 17, EtaLen: 9, NumericalResidual: 1e-6, SteinerRows: 8,
		LogicalRows: 10, TableauRows: 12, LoweredTableauRows: 14, RangedRows: 2, RowNonzeros: 55}
	fresh := Stats{BasisSize: 41, FillIn: 0, EtaLen: 0, NumericalResidual: 0, SteinerRows: 0,
		LogicalRows: 11, TableauRows: 11, LoweredTableauRows: 13, RangedRows: 0, RowNonzeros: 60}
	s.Merge(fresh)
	if s.FillIn != 0 || s.EtaLen != 0 || s.NumericalResidual != 0 || s.RangedRows != 0 || s.SteinerRows != 0 {
		t.Errorf("zero gauges from a sampled record did not replace stale values: %+v", s)
	}
	if s.BasisSize != 41 || s.LogicalRows != 11 || s.TableauRows != 11 ||
		s.LoweredTableauRows != 13 || s.RowNonzeros != 60 {
		t.Errorf("sampled gauges not taken: %+v", s)
	}
}

// TestMergePivotExtremes: PivotMax widens up, PivotMin takes the smallest
// nonzero (zero means "no pivots ran", not "pivot of magnitude zero").
func TestMergePivotExtremes(t *testing.T) {
	s := Stats{PivotMin: 1e-3, PivotMax: 10}
	s.Merge(Stats{PivotMin: 1e-5, PivotMax: 2})
	if s.PivotMin != 1e-5 || s.PivotMax != 10 {
		t.Errorf("extremes = [%g, %g], want [1e-05, 10]", s.PivotMin, s.PivotMax)
	}
	s.Merge(Stats{}) // a no-pivot record must not clobber the min
	if s.PivotMin != 1e-5 || s.PivotMax != 10 {
		t.Errorf("no-pivot merge changed extremes: [%g, %g]", s.PivotMin, s.PivotMax)
	}
	var z Stats
	z.Merge(Stats{PivotMin: 0.5, PivotMax: 0.5})
	if z.PivotMin != 0.5 || z.PivotMax != 0.5 {
		t.Errorf("seeding empty extremes: [%g, %g]", z.PivotMin, z.PivotMax)
	}
}

// TestStatsString checks the one-stop summary mentions every gauge group
// and only shows the optional lines when they carry data.
func TestStatsString(t *testing.T) {
	s := Stats{
		LPIterations: 12, BoundFlips: 3, Refactorizations: 2, BasisSize: 7, FillIn: 4,
		Resets: 1, ResetReasons: []string{"dual-drift"},
		LogicalRows: 9, TableauRows: 9, LoweredTableauRows: 11, RangedRows: 2, RowNonzeros: 31,
		Rounds: 3, SteinerRows: 6, ViolatedByRound: []int{5, 2, 0},
		EtaLen: 6, NumericalResidual: 2.5e-10, PivotMin: 1e-4, PivotMax: 3,
		DevexResets: 2, WeightMin: 1, WeightMax: 4,
	}
	out := s.String()
	for _, want := range []string{
		"pivots 12", "bound-flips 3", "refactorizations 2", "basis 7", "fill-in 4",
		"rows 9 logical / 9 tableau (11 lowered, 2 ranged)", "nnz 31", "rounds 3", "steiner-rows 6",
		"eta-len 6", "residual 2.5e-10", "pivot-el [0.0001, 3]",
		"reset-reasons [dual-drift]", "violated/round [5 2 0]", "devex-resets 2  weights [1, 4]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	var empty Stats
	if out := empty.String(); strings.Contains(out, "reset-reasons") || strings.Contains(out, "violated/round") ||
		strings.Contains(out, "devex-resets") {
		t.Errorf("empty Stats shows optional lines:\n%s", out)
	}
}
