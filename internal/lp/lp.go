package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a row comparison operator.
type Op int

// Row operators.
const (
	LE Op = iota // Σ a x ≤ b
	GE           // Σ a x ≥ b
	EQ           // Σ a x = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient of a sparse row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear row.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
	Name  string
}

// Problem is a minimization LP over non-negative variables.
type Problem struct {
	NumVars int
	// Objective holds the cost coefficient of each variable; shorter
	// slices are treated as zero-padded.
	Objective []float64
	Cons      []Constraint
}

// NewProblem returns an empty minimization problem with n variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// SetCost sets the objective coefficient of variable v.
func (p *Problem) SetCost(v int, c float64) {
	p.checkVar(v)
	p.Objective[v] = c
}

// AddConstraint appends a row. Terms referencing out-of-range variables
// panic immediately; silently accepting them would corrupt the tableau.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64, name string) {
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	p.Cons = append(p.Cons, Constraint{Terms: terms, Op: op, RHS: rhs, Name: name})
}

// AddSumGE adds the row Σ_{v∈vars} x_v ≥ rhs (the shape of every Steiner
// constraint).
func (p *Problem) AddSumGE(vars []int, rhs float64, name string) {
	p.AddConstraint(unitTerms(vars), GE, rhs, name)
}

// AddSumLE adds the row Σ_{v∈vars} x_v ≤ rhs.
func (p *Problem) AddSumLE(vars []int, rhs float64, name string) {
	p.AddConstraint(unitTerms(vars), LE, rhs, name)
}

// AddSumEQ adds the row Σ_{v∈vars} x_v = rhs.
func (p *Problem) AddSumEQ(vars []int, rhs float64, name string) {
	p.AddConstraint(unitTerms(vars), EQ, rhs, name)
}

func unitTerms(vars []int) []Term {
	ts := make([]Term, len(vars))
	for i, v := range vars {
		ts[i] = Term{Var: v, Coef: 1}
	}
	return ts
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.NumVars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", v, p.NumVars))
	}
}

// Eval returns the objective value of x under the problem's cost vector.
func (p *Problem) Eval(x []float64) float64 {
	var s float64
	for i, c := range p.Objective {
		if i < len(x) {
			s += c * x[i]
		}
	}
	return s
}

// RowActivity returns Σ aᵢⱼ xⱼ for row i.
func (p *Problem) RowActivity(i int, x []float64) float64 {
	var s float64
	for _, t := range p.Cons[i].Terms {
		s += t.Coef * x[t.Var]
	}
	return s
}

// MaxViolation returns the largest constraint violation of x (0 when
// feasible) and the index of the most violated row (−1 when feasible).
func (p *Problem) MaxViolation(x []float64) (float64, int) {
	worst, at := 0.0, -1
	for i, c := range p.Cons {
		a := p.RowActivity(i, x)
		var v float64
		switch c.Op {
		case LE:
			v = a - c.RHS
		case GE:
			v = c.RHS - a
		case EQ:
			v = math.Abs(a - c.RHS)
		}
		if v > worst {
			worst, at = v, i
		}
	}
	for i, xi := range x {
		if -xi > worst {
			worst, at = -xi, -1
		}
		_ = i
	}
	return worst, at
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Numerical:
		return "numerical failure"
	}
	return "unknown"
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // primal values, len NumVars
	Objective  float64
	Iterations int
}

// Solver is implemented by both cold methods, the simplex and the
// interior-point method: each Solve states the whole Problem afresh.
type Solver interface {
	// Solve returns a Solution; the error is non-nil only for malformed
	// problems or internal failures, not for infeasible/unbounded models
	// (which are reported via Status).
	Solve(p *Problem) (*Solution, error)
}

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: malformed problem")
