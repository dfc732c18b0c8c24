package lp

import (
	"math"
	"testing"
)

// FuzzRevisedEdits decodes a small LP and a script of AddRow,
// AddRangedRow, SetVarBounds, SetCost, ReplaceRangedRow, DeleteRow and
// Solve calls, runs the script on one warm Revised engine with its
// per-pivot state check on, and requires every Solve to agree with a
// cold Simplex solve of the same LP: the same status and, when optimal,
// the same objective to 1e-6 relative. Restaging between solves is where
// the engine's incremental lists (the infeasible positions, the work
// vectors' index lists) could go stale. The seed corpus is
// testdata/fuzz/FuzzRevisedEdits; ci.sh runs the target for 10 s.
func FuzzRevisedEdits(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 2, 3, 4, 1, 6, 3, 1, 9, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%5
		costs := make([]float64, n)
		for j := range costs {
			costs[j] = float64(next() % 5)
		}
		rv := NewRevised(n, costs)
		next() // a spare byte, read so the committed corpus decodes to the same scripts
		rv.checkPivots = true
		type row struct {
			terms  []Term
			lo, hi float64
			dead   bool
		}
		var rows []row // shadow of the tableau rows, by index
		boxes := make([][2]float64, n)
		for j := range boxes {
			boxes[j] = [2]float64{0, math.Inf(1)}
		}
		terms := func() []Term {
			ts := make([]Term, 1+next()%3)
			for q := range ts {
				c := float64(next()%6 - 3)
				if c >= 0 {
					c++ // a coefficient in ±{1, 2, 3}
				}
				ts[q] = Term{Var: next() % n, Coef: c}
			}
			return ts
		}
		// window decodes lo ≤ hi from small integers; either side may be
		// infinite (vacuous) when allowed.
		window := func(vacuous bool) (lo, hi float64) {
			lo = float64(next()%12) - 2
			hi = lo + float64(next()%8)
			switch next() % 5 {
			case 0:
				lo = math.Inf(-1)
			case 1:
				hi = math.Inf(1)
			case 2:
				if vacuous {
					lo, hi = math.Inf(-1), math.Inf(1)
				}
			}
			return lo, hi
		}
		added := func(ts []Term, lo, hi float64, before int) {
			if rv.TableauRows() > before {
				rows = append(rows, row{terms: ts, lo: lo, hi: hi})
			}
		}
		check := func(step int) {
			warm, err := rv.Solve()
			if err != nil {
				t.Fatal(err)
			}
			p := NewProblem(n)
			for j, c := range costs {
				p.SetCost(j, c)
			}
			for _, r := range rows {
				if !r.dead {
					lowerRanged(p, r.terms, r.lo, r.hi)
				}
			}
			for j, b := range boxes {
				if b[0] > 0 {
					p.AddConstraint([]Term{{j, 1}}, GE, b[0], "")
				}
				if !math.IsInf(b[1], 1) {
					p.AddConstraint([]Term{{j, 1}}, LE, b[1], "")
				}
			}
			cold, err := (&Simplex{}).Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("step %d: warm %v, cold %v", step, warm.Status, cold.Status)
			}
			if warm.Status == Optimal {
				if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6*(1+math.Abs(cold.Objective)) {
					t.Fatalf("step %d: warm objective %.12g, cold %.12g", step, warm.Objective, cold.Objective)
				}
			}
		}
		for step := 0; step < 48 && len(data) > 0; step++ {
			switch next() % 8 {
			case 0:
				ts, op, rhs := terms(), Op(next()%3), float64(next()%12)
				before := rv.TableauRows()
				rv.AddRow(ts, op, rhs)
				lo, hi := rhs, rhs
				switch op {
				case LE:
					lo = math.Inf(-1)
				case GE:
					hi = math.Inf(1)
				}
				added(ts, lo, hi, before)
			case 1:
				ts := terms()
				lo, hi := window(true)
				before := rv.TableauRows()
				rv.AddRangedRow(ts, lo, hi)
				added(ts, lo, hi, before)
			case 2:
				j := next() % n
				lo := float64(next() % 4)
				hi := lo + float64(next()%4)
				if next()%3 == 0 {
					hi = math.Inf(1)
				}
				boxes[j] = [2]float64{lo, hi}
				rv.SetVarBounds(j, lo, hi)
			case 3:
				j := next() % n
				costs[j] = float64(next() % 5)
				rv.SetCost(j, costs[j])
			case 4, 5:
				if len(rows) == 0 {
					continue
				}
				k := next() % len(rows)
				ts := rows[k].terms
				if next()%2 == 0 || rows[k].dead {
					ts = terms() // a new pattern; the other arm retightens
				}
				lo, hi := window(false)
				rows[k] = row{terms: ts, lo: lo, hi: hi}
				rv.ReplaceRangedRow(k, ts, lo, hi)
			case 6:
				if len(rows) == 0 {
					continue
				}
				if k := next() % len(rows); !rows[k].dead {
					rows[k].dead = true
					rv.DeleteRow(k)
				}
			case 7:
				check(step)
			}
		}
		check(-1)
	})
}
