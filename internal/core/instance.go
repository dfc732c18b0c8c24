package core

import (
	"errors"
	"fmt"
	"math"

	"lubt/internal/geom"
	"lubt/internal/topology"
)

// Instance is one LUBT problem instance: a topology plus the fixed
// locations (sinks, and optionally the source).
type Instance struct {
	Tree *topology.Tree
	// SinkLoc is indexed by sink id 1…m; entry 0 is unused.
	SinkLoc []geom.Point
	// Source is the fixed source location, or nil when the source position
	// is free (Eq. 4 applies instead of Eq. 3).
	Source *geom.Point
}

// ErrInfeasible reports that no tree satisfies the bounds under the given
// topology (the situation of Fig. 1).
var ErrInfeasible = errors.New("core: no LUBT exists for this topology and bounds")

// ErrStalled reports an LP optimum that violates, beyond the loop's
// tolerance, rows the LP already holds: Steiner rows, when a round can
// add no row (every later round would repeat the same solve), or a delay
// window, when the converged optimum breaks it (the error names the sink,
// its delay and its window). The LP's feasibility tolerance grows with
// its largest right-hand side, so bounds far beyond the instance's
// distances (a window top of 1e12 on a net of radius 1 000) leave it too
// coarse to resolve them.
var ErrStalled = errors.New("core: row generation stalled")

// Validate checks structural consistency.
func (in *Instance) Validate() error {
	if in.Tree == nil {
		return errors.New("core: instance has no topology")
	}
	if len(in.SinkLoc) != in.Tree.NumSinks+1 {
		return fmt.Errorf("core: %d sink locations for %d sinks",
			len(in.SinkLoc)-1, in.Tree.NumSinks)
	}
	return nil
}

// Dist returns the Manhattan distance between fixed points i and j, where
// 0 denotes the source (valid only when its location is given) and 1…m
// denote sinks.
func (in *Instance) Dist(i, j int) float64 {
	return geom.Dist(in.loc(i), in.loc(j))
}

func (in *Instance) loc(i int) geom.Point {
	if i == 0 {
		if in.Source == nil {
			panic("core: source location not given")
		}
		return *in.Source
	}
	return in.SinkLoc[i]
}

// Radius implements §2: with a given source it is the distance from the
// source to the farthest sink; otherwise it is half the sink diameter.
func (in *Instance) Radius() float64 {
	m := in.Tree.NumSinks
	if in.Source != nil {
		r := 0.0
		for i := 1; i <= m; i++ {
			r = math.Max(r, in.Dist(0, i))
		}
		return r
	}
	return geom.Diameter(in.SinkLoc[1:]) / 2
}

// Bounds holds the per-sink delay window [L[i], U[i]], indexed by sink id
// (entry 0 unused). Use math.Inf(1) for an unbounded upper limit.
type Bounds struct {
	L, U []float64
}

// UniformBounds gives every one of the m sinks the same window [l, u].
func UniformBounds(m int, l, u float64) Bounds {
	b := Bounds{L: make([]float64, m+1), U: make([]float64, m+1)}
	for i := 1; i <= m; i++ {
		b.L[i] = l
		b.U[i] = u
	}
	return b
}

// SkewWindow returns the uniform window [u−skew, u]: the tolerable-skew
// clock routing bounds of §6 with delay cap u.
func SkewWindow(m int, skew, u float64) Bounds {
	return UniformBounds(m, u-skew, u)
}

// Validate checks Eq. (2)–(4): 0 ≤ l_i ≤ u_i with l_i finite and neither
// side NaN, and u_i at least
// dist(s0,s_i) (source given) or at least the radius (source free). These
// are the paper's necessary conditions; definite infeasibility beyond them
// is detected by the LP itself.
func (b Bounds) Validate(in *Instance) error {
	m := in.Tree.NumSinks
	if len(b.L) != m+1 || len(b.U) != m+1 {
		return fmt.Errorf("core: bounds sized %d/%d for %d sinks", len(b.L), len(b.U), m)
	}
	var radius float64
	if in.Source == nil {
		radius = in.Radius()
	}
	for i := 1; i <= m; i++ {
		if err := in.checkSinkWindow(i, b.L[i], b.U[i], radius); err != nil {
			return err
		}
	}
	return nil
}

// checkWindow is the delay-window rule every entry point applies: both
// sides are numbers and 0 ≤ l ≤ u with l finite (u may be +∞).
func checkWindow(i int, l, u float64) error {
	if math.IsNaN(l) || math.IsNaN(u) || l < 0 || l > u || math.IsInf(l, 1) {
		return fmt.Errorf("core: sink %d has invalid window [%g, %g]", i, l, u)
	}
	return nil
}

// checkSinkWindow applies checkWindow and Eq. (3)–(4) to sink i's window:
// u_i is at least dist(s0, s_i) with a source, else at least radius.
func (in *Instance) checkSinkWindow(i int, l, u, radius float64) error {
	if err := checkWindow(i, l, u); err != nil {
		return err
	}
	const slack = 1e-9
	if in.Source != nil {
		if d := in.Dist(0, i); u < d-slack-1e-9*d {
			return fmt.Errorf("core: sink %d upper bound %g below source distance %g (Eq. 3)", i, u, d)
		}
	} else if u < radius-slack-1e-9*radius {
		return fmt.Errorf("core: sink %d upper bound %g below radius %g (Eq. 4)", i, u, radius)
	}
	return nil
}

// Equal reports whether every sink has a degenerate window l = u (the
// zero-skew case, which EBF states with equality rows, §4.6).
func (b Bounds) Equal() bool {
	for i := 1; i < len(b.L); i++ {
		if b.L[i] != b.U[i] {
			return false
		}
	}
	return true
}
