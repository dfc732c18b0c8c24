package core

import (
	"fmt"

	"lubt/internal/lp"
)

// Session is an EBF solve held open for incremental re-optimization: the
// engineering-change-order (ECO) workflow where one sink's delay window
// is retightened or one edge's weight changes after the tree is built.
// The revised engine keeps its basis, factorization and Steiner row pool
// across edits, so a Resolve after a local edit costs a handful of dual
// pivots instead of a cold solve:
//
//   - Retighten rewrites a sink's delay row in place. The path terms are
//     unchanged, so the engine takes the rhs-only restage fast path — no
//     refactorization, one FTRAN.
//   - Reweight shifts one objective coefficient; the engine repairs the
//     duals with at most one BTRAN and re-prices.
//
// A Session is not safe for concurrent use.
type Session struct {
	in  *Instance
	b   Bounds
	w   []float64
	rv  *lp.Revised
	gen *genState
	// delayRow maps sink id → the engine tableau row holding its delay
	// window, or −1 when the window is vacuous (no row stated).
	delayRow []int
	res      *Result
	// lastPivots is the dual-pivot count of the most recent Resolve alone
	// (the warm-vs-cold ECO metric); lastRestages/lastRowRepl likewise.
	lastPivots int
}

// NewSession solves the instance like Solve and keeps the engine warm for
// incremental edits.
func NewSession(in *Instance, b Bounds, opt *Options) (*Session, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(in); err != nil {
		return nil, err
	}
	w, err := opt.weights(in.Tree.N())
	if err != nil {
		return nil, err
	}
	// Reweight edits the weights, so the session keeps its own copy.
	w = append([]float64(nil), w...)
	s := &Session{
		in: in,
		b:  Bounds{L: append([]float64(nil), b.L...), U: append([]float64(nil), b.U...)},
		w:  w,
	}
	s.rv, s.delayRow = stageEngine(in, s.b, w, opt.tracer())
	// The Session edits its windows (Retighten), so the oracle runs
	// without the window arm: a pruned row could bind after an edit.
	s.gen = newGenState(in, s.rv, w, &s.b, false, opt)
	pivots0 := s.rv.Iterations()
	res, err := s.gen.run()
	if err != nil {
		return nil, err
	}
	s.res = res
	s.lastPivots = s.rv.Iterations() - pivots0
	return s, nil
}

// Result returns the most recent solve's result (from NewSession or the
// last successful Resolve).
func (s *Session) Result() *Result { return s.res }

// Bounds returns a copy of the session's current delay windows.
func (s *Session) Bounds() Bounds {
	return Bounds{L: append([]float64(nil), s.b.L...), U: append([]float64(nil), s.b.U...)}
}

// ResolvePivots returns the dual-pivot count of the most recent solve
// alone (NewSession's cold solve, or the last Resolve's warm re-solve) —
// the numerator of the warm-vs-cold ECO comparison.
func (s *Session) ResolvePivots() int { return s.lastPivots }

// Retighten replaces sink i's delay window with [l, u] and restages the
// engine: the sink's ranged row is rewritten in place (same path terms,
// so the basis factorization survives untouched), added if the window was
// vacuous, or deleted if it became vacuous. The edit takes effect at the
// next Resolve. The window must satisfy the paper's per-sink necessary
// conditions (Eq. 2–4), the rule Bounds.Validate applies.
func (s *Session) Retighten(sink int, l, u float64) error {
	m := s.in.Tree.NumSinks
	if sink < 1 || sink > m {
		return fmt.Errorf("core: Retighten sink %d of %d", sink, m)
	}
	var radius float64
	if s.in.Source == nil {
		radius = s.in.Radius()
	}
	if err := s.in.checkSinkWindow(sink, l, u, radius); err != nil {
		return err
	}
	s.b.L[sink], s.b.U[sink] = l, u
	lo, hi, ok := delayWindow(l, u)
	row := s.delayRow[sink]
	switch {
	case row >= 0 && ok:
		s.rv.ReplaceRangedRow(row, unitTermsOf(s.in.Tree.PathToRoot(sink)), lo, hi)
	case row >= 0:
		s.rv.DeleteRow(row)
		s.delayRow[sink] = -1
	case ok:
		s.delayRow[sink] = s.rv.TableauRows()
		s.rv.AddRangedRow(unitTermsOf(s.in.Tree.PathToRoot(sink)), lo, hi)
	}
	return nil
}

// Reweight sets edge k's objective weight to a finite w ≥ 0 and
// restages the engine's costs (§7 "different weights on edges"). The
// edit takes effect at the next Resolve.
func (s *Session) Reweight(edge int, w float64) error {
	n := s.in.Tree.N()
	if edge < 1 || edge >= n {
		return fmt.Errorf("core: Reweight edge %d of %d", edge, n-1)
	}
	if err := checkWeight(edge, w); err != nil {
		return err
	}
	s.w[edge] = w // s.w aliases gen.w, so run() prices the new objective
	s.rv.SetCost(edge, w)
	return nil
}

// Resolve re-optimizes after Retighten/Reweight edits, warm from the
// previous basis, running separation rounds until the Steiner oracle is
// clean again (the row pool persists, so usually zero new rows). Returns
// ErrInfeasible (wrapped) when the edited windows admit no tree; the
// session stays usable — relax a window and Resolve again.
func (s *Session) Resolve() (*Result, error) {
	sp := s.gen.tr.Start("eco-resolve")
	defer sp.End()
	pivots0 := s.rv.Iterations()
	res, err := s.gen.run()
	s.lastPivots = s.rv.Iterations() - pivots0
	sp.SetInt("pivots", s.lastPivots)
	if err != nil {
		return nil, err
	}
	s.res = res
	return res, nil
}
