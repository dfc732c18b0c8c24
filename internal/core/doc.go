// Package core implements the paper's primary contribution: the
// Edge-Based Formulation (EBF) of the Lower/Upper Bounded delay routing
// Tree problem (§4 of Oh, Pyo, Pedram, DAC 1996). Given a rooted topology
// and per-sink delay bounds, it assembles the LP over edge lengths
//
//	min Σ w_k e_k
//	s.t. Σ_{e∈path(s_i,s_j)} e ≥ dist(s_i,s_j)    (Steiner constraints, §4.1)
//	     l_i ≤ Σ_{e∈path(s_0,s_i)} e ≤ u_i        (delay constraints, §4.2)
//	     e ≥ 0
//
// and solves it with the LP layer of internal/lp, using row generation to
// realize the constraint reduction of §4.6. The package also contains the
// sequential-LP heuristic for the Elmore-delay extension of §7.
//
// # How the constraints map onto the LP layer
//
// The row-generation loop drives lp.Revised, the one LP engine, and
// hands each constraint to it in its natural shape. Solve and the ECO
// Session stage the engine the same way (stageEngine):
//
//   - Forced-zero edges (the degree-splitting artifacts of
//     internal/topology) become variable boxes e_k ∈ [0, 0] via
//     SetVarBounds: no row at all.
//   - Delay windows enter as ONE logical ranged row each via
//     AddRangedRow(path, l_i, u_i); a vacuous side (l_i ≤ 0 with the path
//     already non-negative) is stated as −∞ so pure upper-bound problems
//     stay one-sided, and l_i = u_i states the zero-skew equality. The
//     engine stores the window in a single tableau row (bounded slack);
//     lp.Stats.TableauRows vs .LoweredTableauRows shows what a ≤/≥
//     lowering would have cost.
//   - Steiner pairs enter as one-sided ≥ rows (AddRow with lp.GE), added
//     lazily: each round the separation oracle (presolve.go) scans the
//     sink-pair blocks whose exact bound shows a violation and only the
//     violated rows join the LP.
//
// When the oracle comes back clean, the loop also checks the rows it
// never re-scans — edge signs, forced zeros, the delay windows and the
// source rows — at its own tolerance: the engine's feasibility tolerance
// grows with its largest bound, and an optimum that breaks one of them
// is ErrStalled, not a tree. Solve's oracle also prunes the rows its
// fixed delay windows imply (the window arm), so Stats.PresolvePrunedRows
// is nonzero on most solves; the ECO Session and the Elmore SLP run the
// oracle without it. From ScaleAutoSinks sinks with a fixed source, the
// root branches solve as independent subproblems whose optima compose
// exactly (decompose.go).
//
// The tests certify the warm verdicts with a cold oracle of their own
// (coldoracle_test.go): it states the LP as an lp.Problem, enumerates
// every sink pair and solves with lp.Simplex and lp.IPM, sharing no code
// with the loop, the separation oracle or lp.Revised.
//
// # Tolerances
//
// All acceptance checks are relative to the instance radius: Verify and
// the cross-engine tests use 1e-6·(1+radius), matching the LP layer's
// guarantees. Delays reported in Result.Delays are exact path sums over
// the returned edge lengths, not LP row activities.
package core
