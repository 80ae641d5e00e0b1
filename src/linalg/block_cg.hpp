#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/tree_precond.hpp"

namespace cirstag::linalg {

/// The system a block-CG call solves: (A + shift·I) X = B with A square and
/// symmetric, preconditioned by the spanning-tree factorization when `tree`
/// is set and otherwise by the Jacobi inverse diagonal `inv_diag` (all ones
/// for plain CG). Concrete types, so the loop fuses its operator and
/// preconditioner into its row passes.
struct BlockCgSystem {
  const SparseMatrix& matrix;
  double shift = 0.0;
  std::span<const double> inv_diag;
  const TreeFactorization* tree = nullptr;
  /// Project right-hand sides and iterates orthogonal to the all-ones
  /// vector. Required when solving singular Laplacian systems L x = b with
  /// 1ᵀb = 0; LaplacianSolver sets it exactly when its regularization is 0.
  bool deflate_constant = false;
};

/// Per-column convergence report from a block-CG run.
struct BlockCgResult {
  Matrix solutions;                      ///< n×k, one solution per column
  std::vector<double> residuals;         ///< final relative residual per column
  std::vector<std::size_t> iterations;   ///< CG iterations per column
  std::vector<std::uint8_t> converged;   ///< per column
  std::vector<std::uint8_t> breakdown;   ///< pᵀAp ≤ 0 encountered
  std::size_t total_iterations = 0;      ///< Σ per-column iterations

  [[nodiscard]] bool all_converged() const {
    for (auto c : converged)
      if (!c) return false;
    return true;
  }
};

/// Multi-RHS (blocked) preconditioned conjugate gradient — the repo's one
/// CG loop; a single right-hand side is the k = 1 case.
///
/// Runs k standard CG recurrences in lockstep over row-major n×k blocks,
/// with all scalar recurrences (α_j, β_j, residual tests) tracked per
/// column. Columns that converge — or break down — retire early: their
/// solution, residual, and iterate state freeze while the remaining columns
/// keep iterating.
///
/// Each iteration is three row passes over the block (DESIGN.md §7): P1
/// applies A + shift·I to the directions and accumulates pᵀAp in the same
/// CSR traversal; P2 updates x and r and accumulates rᵀr and, for Jacobi,
/// rᵀz with z = D⁻¹r never stored; P3 forms the next directions. A deflated
/// (singular Laplacian) solve adds one center-and-dot pass after P1 and one
/// after P2; the tree preconditioner runs its O(n) solve per column between
/// P2 and P3.
///
/// Column groups: called outside a parallel region on a pool wider than one
/// lane, the k columns split into contiguous groups of 4, each running its
/// own lockstep loop as one pool task (DESIGN.md §7), so each group reads
/// the matrix once per iteration.
///
/// Determinism / equivalence contract: column j of the result is
/// BIT-IDENTICAL to the same call on column j alone (k = 1, same system,
/// options, and initial guess), at every thread count. This holds because
/// every per-column reduction accumulates serially in row order and every
/// pass applies each column in its one-column arithmetic.
///
/// Health, once per call over all k columns: columns that hit an indefinite
/// direction (pᵀAp ≤ 0) raise one "cg.breakdown" warning whatever
/// `opts.budget_bounded` says; columns that exhaust `opts.max_iterations`
/// raise one "cg.unconverged" unless the budget is deliberate
/// (CgOptions::budget_bounded) and their residual stays within
/// kBudgetResidualAlarm.
///
/// `initial_guess` (nullptr = zero start) warm-starts every column. Throws
/// std::invalid_argument when the matrix, preconditioner or guess does not
/// match `b`'s row count.
[[nodiscard]] BlockCgResult block_conjugate_gradient(
    const BlockCgSystem& system, const Matrix& b, const CgOptions& opts = {},
    const Matrix* initial_guess = nullptr);

}  // namespace cirstag::linalg
