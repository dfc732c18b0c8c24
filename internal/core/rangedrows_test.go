package core

import (
	"math"
	"testing"

	"lubt/internal/lp"
)

// TestDelayWindowRowHalving pins the end-to-end effect of the boxed
// revised engine on the EBF: with a finite two-sided delay window every
// sink's delay constraint is ONE ranged tableau row in the revised engine
// but a ≤/≥ pair in the cold simplex's lowering, so the revised engine's
// tableau is smaller by exactly the ranged-row count while both report
// the same lowered count — and both reach the same optimum.
func TestDelayWindowRowHalving(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius()
	b := UniformBounds(5, 0.8*r, 1.2*r) // finite two-sided window per sink
	rev := mustSolve(t, in, b, nil)
	cold := mustSolve(t, in, b, &Options{Solver: &lp.Simplex{}})
	if math.Abs(rev.Cost-cold.Cost) > 1e-6*(1+r) {
		t.Fatalf("revised cost %.9g vs cold %.9g", rev.Cost, cold.Cost)
	}
	rs, cs := rev.Stats, cold.Stats
	if rs.RangedRows == 0 {
		t.Fatal("revised: no ranged rows recorded for a finite delay window")
	}
	if rs.TableauRows >= rs.LoweredTableauRows {
		t.Fatalf("revised: tableau %d not below lowered %d", rs.TableauRows, rs.LoweredTableauRows)
	}
	if got, want := rs.LoweredTableauRows-rs.TableauRows, rs.RangedRows; got != want {
		t.Fatalf("revised: saved %d rows, want one per ranged row (%d)", got, want)
	}
	if cs.TableauRows != cs.LoweredTableauRows {
		t.Fatalf("cold: tableau %d != lowered %d (cold IS the lowering)", cs.TableauRows, cs.LoweredTableauRows)
	}
	// The engines may disagree on logical rows only through the VarBounder
	// substitution (forced-zero edges become boxes, not rows); fig3 has
	// none, so the logical counts must match exactly.
	if rs.LogicalRows != cs.LogicalRows {
		t.Fatalf("logical rows revised %d vs cold %d", rs.LogicalRows, cs.LogicalRows)
	}
}

// TestExactWindowAcrossEngines drives the zero-skew corner (l = u) through
// the boxed engine, the cold simplex's equality rows and the full-matrix
// revised solve, checking the delays and the objective agree to
// 1e-6·radius.
func TestExactWindowAcrossEngines(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius()
	b := UniformBounds(5, 1.1*r, 1.1*r)
	rev := mustSolve(t, in, b, nil)
	cold := mustSolve(t, in, b, &Options{Solver: &lp.Simplex{}})
	full := mustSolve(t, in, b, &Options{FullMatrix: true})
	tol := 1e-6 * (1 + r)
	if math.Abs(rev.Cost-cold.Cost) > tol || math.Abs(rev.Cost-full.Cost) > tol {
		t.Fatalf("costs revised %.9g cold %.9g full-matrix %.9g", rev.Cost, cold.Cost, full.Cost)
	}
	for i := 1; i <= 5; i++ {
		if math.Abs(rev.Delays[i]-1.1*r) > tol {
			t.Fatalf("revised delay(s%d) = %g, want %g", i, rev.Delays[i], 1.1*r)
		}
	}
	// An exact window stores a fixed slack, not an EQ split: the saving
	// shows up in the stats exactly like a two-sided window.
	if rev.Stats.RangedRows == 0 || rev.Stats.TableauRows >= rev.Stats.LoweredTableauRows {
		t.Fatalf("revised l=u stats: %d ranged, rows %d/%d lowered",
			rev.Stats.RangedRows, rev.Stats.TableauRows, rev.Stats.LoweredTableauRows)
	}
}
