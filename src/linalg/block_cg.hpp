#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::linalg {

/// Abstract symmetric operator on a block of vectors: apply(X, Y) computes
/// Y = A X column-wise (X, Y row-major n×k with columns as the vectors).
using BlockLinearOperator = std::function<void(const Matrix&, Matrix&)>;

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
/// Runs k standard CG recurrences in lockstep: every iteration performs ONE
/// blocked operator application (amortizing each CSR traversal across all k
/// right-hand sides), while all scalar recurrences (α_j, β_j, residual
/// tests) are tracked per column. Columns that converge — or break down —
/// retire early: their solution, residual, and iterate state freeze while
/// the remaining columns keep iterating.
///
/// Column groups: called outside a parallel region on a pool wider than one
/// lane, the k columns split into contiguous groups of 4, each running its
/// own lockstep loop as one pool task (DESIGN.md §7). `op` and `precond`
/// are then called concurrently on the groups' disjoint n×(≤4) blocks, so
/// they must be safe to call from several threads at once.
///
/// Determinism / equivalence contract: column j of the result is
/// BIT-IDENTICAL to the same call on column j alone (k = 1, same options,
/// preconditioner, and initial guess), at every thread count. This holds
/// because per-column reductions accumulate serially in row order and the
/// blocked operator applies each column in its one-column accumulation
/// order.
///
/// Health, once per call over all k columns: columns that hit an indefinite
/// direction (pᵀAp ≤ 0) raise one "cg.breakdown" warning whatever
/// `opts.budget_bounded` says; columns that exhaust `opts.max_iterations`
/// raise one "cg.unconverged" unless the budget is deliberate
/// (CgOptions::budget_bounded) and their residual stays within
/// kBudgetResidualAlarm.
///
/// `precond` may be empty (identity). `initial_guess` (nullptr = zero start)
/// warm-starts every column.
[[nodiscard]] BlockCgResult block_conjugate_gradient(
    const BlockLinearOperator& op, const Matrix& b,
    const BlockLinearOperator& precond = {}, const CgOptions& opts = {},
    const Matrix* initial_guess = nullptr);

}  // namespace cirstag::linalg
