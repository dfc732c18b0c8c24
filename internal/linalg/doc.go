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
//   - SparseLU.Factor computes P·A = L·U with partial pivoting into the
//     receiver's storage, which it reuses whatever the dimension: once
//     the storage has grown to a basis core's size, refactorizing
//     allocates nothing. The input is not modified. A pivot below 1e-13
//     in magnitude surfaces as ErrSingular, never as NaN results.
//   - SparseLU reproduces dense row-major Gaussian elimination with
//     partial pivoting bit for bit (ties going to the smallest current
//     row position), so its factors, pivot order, nonzero count and
//     solves equal the dense factorization's, +0 and −0 aside. The work
//     follows the nonzeros: a symbolic reach step finds each column's
//     pattern, and the numeric step applies only the columns of L it
//     reaches. The dense reference lives in the package's tests, which
//     hold the two to this contract.
//   - SparseLU.SolveInto / SolveTransposeInto are the allocation-free
//     FTRAN / BTRAN of the revised dual simplex, costing
//     O(n + nnz(L+U)) each. SolveInto skips columns whose multiplier is
//     zero. Destination slices must not alias the right-hand side.
//   - SparseLU.NNZ counts the nonzeros of L and U (U's diagonal, not L's
//     implicit unit one); comparing it with the nonzero count of the
//     factored matrix measures fill-in (surfaced as lp.Stats.FillIn).
//   - Cholesky requires numeric symmetric positive definiteness and
//     reports ErrNotSPD otherwise; the interior-point normal equations
//     are its only caller.
package linalg
