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
// The row-generation loop is written against lp.RowEngine and hands each
// constraint to the engine in its natural shape:
//
//   - Steiner pairs enter as one-sided ≥ rows (AddRow with lp.GE), added
//     lazily: each round the separation oracle (presolve.go) scans the
//     sink-pair blocks whose exact bound shows a violation and only the
//     violated rows join the LP.
//   - Delay windows enter as ONE logical ranged row each via
//     AddRangedRow(path, l_i, u_i); a vacuous side (l_i ≤ 0 with the path
//     already non-negative) is stated as −∞ so pure upper-bound problems
//     stay one-sided, and l_i = u_i states the zero-skew equality. The
//     boxed revised engine stores the window in a single tableau row
//     (bounded slack); the cold solvers' adapter lowers it to a ≤/≥
//     pair — the before/after is visible in lp.Stats.TableauRows vs
//     .LoweredTableauRows.
//   - Forced-zero edges (the degree-splitting artifacts of
//     internal/topology) become variable boxes e_k ∈ [0, 0] via the
//     optional lp.VarBounder interface when the engine supports it (the
//     revised engine), and fall back to explicit EQ rows otherwise (the
//     cold adapter). The two may therefore disagree on LogicalRows by
//     exactly the forced-zero count.
//
// The loop runs warm on lp.Revised, the one warm engine.
// Options.Solver replaces it with a cold solver (lp.Simplex or lp.IPM)
// re-solving from scratch each round — the independent cross-checks;
// Options.FullMatrix states all C(m,2) Steiner rows up front. Solve's
// oracle also prunes the rows its fixed delay windows imply (the window
// arm), so Stats.PresolvePrunedRows is nonzero on most solves; the ECO
// Session, the Elmore SLP and FullMatrix run the oracle without it. From
// ScaleAutoSinks sinks with a fixed source, the root branches solve as
// independent subproblems whose optima compose exactly (decompose.go).
//
// # Tolerances
//
// All acceptance checks are relative to the instance radius: Verify and
// the cross-engine tests use 1e-6·(1+radius), matching the LP layer's
// guarantees. Delays reported in Result.Delays are exact path sums over
// the returned edge lengths, not LP row activities.
package core
