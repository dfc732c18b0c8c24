// Package linalg provides the linear algebra needed by the LP solvers:
// a sparse LU factorization for the revised simplex basis, dense
// row-major matrices with a Cholesky factorization for the
// interior-point normal equations, and small vector helpers. It is
// deliberately small — just enough for internal/lp — and uses no
// dependencies beyond the standard library.
//
// # Contracts
//
//   - Matrix is row-major: Row(i) returns a contiguous slice aliasing the
//     backing array.
//   - CSC holds a sparse matrix by column. Row indices within a column
//     are distinct; their order is free.
//   - SparseLU.Factor computes P·A·Q = L·U into the receiver's storage,
//     which it reuses whatever the dimension: once the storage has grown
//     to a basis core's size, refactorizing allocates nothing. The input
//     is not modified.
//   - The factorization is ordered for sparsity, not magnitude. Q takes
//     the columns by ascending nonzero count. P comes from threshold
//     partial pivoting: a row may pivot when its magnitude reaches 0.1
//     times the largest among the column's unpivoted rows, and among
//     those the row with the fewest nonzeros in A wins, then the larger
//     magnitude, then the smaller row index. On the ±1 path rows of an
//     EBF basis core, where magnitudes tie everywhere, this keeps the
//     fill a few times below what magnitude pivoting leaves.
//   - The work follows the nonzeros: a depth-first search finds each
//     column's pattern and the reached columns of L in topological
//     order, and the numeric step applies only those.
//   - A column is singular when the largest magnitude among its
//     unpivoted rows is below 1e-13 times the largest magnitude the
//     column reached during elimination (its entries in A, in U and the
//     pivot candidates). This surfaces as ErrSingular, never as NaN
//     results. The test is relative because an absolute floor lets a
//     dependent column through whose cancellation left 1e-13 next to
//     entries of 10.
//   - Factors, pivot order and solves differ from those of the dense
//     partial-pivoting LU, which lives on in the package's tests as the
//     reference. The tests hold SparseLU to it by contract: the singular
//     verdicts agree except on near-singular matrices (a pivot below
//     1e-9 in either factorization), exactly singular matrices report
//     ErrSingular, and both solves keep the normwise backward error
//     ‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) within 1e-12.
//   - SparseLU.SolveInto / SolveTransposeInto are the allocation-free
//     FTRAN / BTRAN of the revised dual simplex, costing at most
//     O(n + nnz(L+U)) each. SolveInto scatters along the columns of L
//     and U, SolveTransposeInto along the row-wise copies Factor builds,
//     and both skip a column or row whose multiplier is zero, so a
//     sparse right-hand side costs the entries it reaches. Both return
//     the number of L and U entries applied (lp.Stats.SolveEntries).
//     Destination slices must not alias the right-hand side.
//   - SparseLU.NNZ counts the nonzeros of L and U (U's diagonal, not L's
//     implicit unit one); comparing it with the nonzero count of the
//     factored matrix measures fill-in (surfaced as lp.Stats.FillIn).
//   - Cholesky requires numeric symmetric positive definiteness and
//     reports ErrNotSPD otherwise; the interior-point normal equations
//     are its only caller.
package linalg
