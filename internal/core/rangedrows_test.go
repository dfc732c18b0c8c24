package core

import (
	"math"
	"testing"

	"lubt/internal/lp"
)

// TestDelayWindowRowHalving pins the end-to-end effect of the boxed
// revised engine on the EBF: with a finite two-sided delay window every
// sink's delay constraint is ONE ranged tableau row in the revised engine
// but a ≤/≥ pair in a cold lowering, so the revised engine's tableau is
// smaller than the lowered count by exactly the ranged-row count — and
// the cold oracle, which states the pairs, certifies its optimum.
func TestDelayWindowRowHalving(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius()
	b := UniformBounds(5, 0.8*r, 1.2*r) // finite two-sided window per sink
	rev := mustSolve(t, in, b, nil)
	o := &coldOracle{in: in, b: b, tol: 1e-6 * (1 + r)}
	if err := o.certify(rev, nil, &lp.Simplex{}); err != nil {
		t.Fatal(err)
	}
	rs := rev.Stats
	if rs.RangedRows == 0 {
		t.Fatal("revised: no ranged rows recorded for a finite delay window")
	}
	if rs.TableauRows >= rs.LoweredTableauRows {
		t.Fatalf("revised: tableau %d not below lowered %d", rs.TableauRows, rs.LoweredTableauRows)
	}
	if got, want := rs.LoweredTableauRows-rs.TableauRows, rs.RangedRows; got != want {
		t.Fatalf("revised: saved %d rows, want one per ranged row (%d)", got, want)
	}
}

// TestExactWindowAcrossEngines drives the zero-skew corner (l = u) through
// the boxed engine and the cold oracle's equality rows over every
// Steiner pair, checking the delays and the objective agree to
// 1e-6·radius.
func TestExactWindowAcrossEngines(t *testing.T) {
	in := fig3Instance(t)
	r := in.Radius()
	b := UniformBounds(5, 1.1*r, 1.1*r)
	rev := mustSolve(t, in, b, nil)
	tol := 1e-6 * (1 + r)
	o := &coldOracle{in: in, b: b, tol: tol}
	if err := o.certify(rev, nil, &lp.Simplex{}); err != nil {
		t.Fatal(err)
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
