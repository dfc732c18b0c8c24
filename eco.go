package lubt

import (
	"errors"
	"fmt"
	"math"

	"lubt/internal/core"
	"lubt/internal/obs"
)

// Solved is a solved instance held open for incremental re-optimization —
// the engineering-change-order (ECO) workflow where a sink's delay window
// is retightened or an edge's weight changes after the tree is routed.
// The LP engine keeps its basis, factorization and Steiner row pool
// across edits, so Resolve after a local edit costs a handful of dual
// pivots instead of a cold solve.
//
// Obtain one with Instance.SolveECO, apply Retighten/Reweight edits, then
// Resolve to get the re-routed tree. A Solved is not safe for concurrent
// use.
type Solved struct {
	in   *Instance
	ci   *core.Instance
	sess *core.Session
	opt  *Options
	tr   *obs.Tracer
	tree *Tree
}

// SolveECO solves like Solve but returns a Solved that keeps the LP
// engine warm for incremental Retighten/Reweight/Resolve edits. Only the
// default restageable revised engine supports ECO sessions; setting
// Options.Solver to an explicit cold method is an error.
func (in *Instance) SolveECO(b Bounds, opt *Options) (*Solved, error) {
	if in.tree == nil {
		return nil, errors.New("lubt: choose a topology before solving")
	}
	cb, err := b.toCore(len(in.sinks))
	if err != nil {
		return nil, err
	}
	solver, err := opt.lpSolver()
	if err != nil {
		return nil, err
	}
	tr := opt.tracer("solve-eco")
	copts := &core.Options{Solver: solver, Tracer: tr}
	if opt != nil {
		copts.FullMatrix = opt.FullMatrix
		copts.OracleWorkers = opt.OracleWorkers
		copts.Pricing = opt.Pricing
		if opt.Weights != nil {
			copts.Weights = opt.Weights
		}
	}
	ci := in.coreInstance(in.tree)
	sess, err := core.NewSession(ci, cb, copts)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	s := &Solved{in: in, ci: ci, sess: sess, opt: opt, tr: tr}
	if err := s.rebuildTree(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Solved) rebuildTree() error {
	res := s.sess.Result()
	tree, err := s.in.finish(s.ci, s.sess.Bounds(), res.E, res.Cost, s.opt, s.tr)
	if err != nil {
		return err
	}
	tree.Stats = res.Stats
	s.tree = tree
	return nil
}

// Tree returns the most recent routed tree (from SolveECO or the last
// successful Resolve).
func (s *Solved) Tree() *Tree { return s.tree }

// Bounds returns a copy of the session's current delay windows, indexed
// like the input sink slice (0-based). After Retighten edits it reflects
// the staged windows even before the next Resolve — callers diffing a
// requested window set against the session state (the lubtd warm-basis
// cache) see exactly what the engine has been told so far.
func (s *Solved) Bounds() Bounds {
	cb := s.sess.Bounds()
	return Bounds{
		Lower: append([]float64(nil), cb.L[1:]...),
		Upper: append([]float64(nil), cb.U[1:]...),
	}
}

// Retighten replaces sink i's delay window with [l, u] (sink indexed like
// the input slice, 0-based) and restages the engine in place. The edit
// takes effect at the next Resolve. A malformed window — NaN on either
// side, or l > u — is rejected here at the facade, before it can reach
// the warm engine.
func (s *Solved) Retighten(sink int, l, u float64) error {
	if sink < 0 || sink >= s.in.NumSinks() {
		return fmt.Errorf("lubt: Retighten sink %d of %d", sink, s.in.NumSinks())
	}
	if math.IsNaN(l) || math.IsNaN(u) || l > u {
		return fmt.Errorf("lubt: Retighten sink %d with invalid window [%g, %g]", sink, l, u)
	}
	return s.sess.Retighten(sink+1, l, u)
}

// Reweight sets edge k's objective weight (§7), restaging the engine's
// costs. Edges are indexed by child node id as in Tree.EdgeLengths.
func (s *Solved) Reweight(edge int, w float64) error {
	return s.sess.Reweight(edge, w)
}

// Resolve re-optimizes warm from the previous basis after edits and
// re-embeds the tree. Returns ErrInfeasible (wrapped) when the edited
// windows admit no tree; the session stays usable — relax and retry.
func (s *Solved) Resolve() (*Tree, error) {
	if _, err := s.sess.Resolve(); err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if err := s.rebuildTree(); err != nil {
		return nil, err
	}
	return s.tree, nil
}

// ResolvePivots returns the dual-pivot count of the most recent solve
// alone (SolveECO's cold solve, or the last Resolve) — the warm side of
// the warm-vs-cold ECO comparison.
func (s *Solved) ResolvePivots() int { return s.sess.ResolvePivots() }

// Close flushes the session's trace (when Options.TraceJSON was set). No
// further edits are possible on a closed session's tracer.
func (s *Solved) Close() error { return s.opt.writeTrace(s.tr) }
