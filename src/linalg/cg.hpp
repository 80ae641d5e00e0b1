#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/tree_precond.hpp"

namespace cirstag::linalg {

/// Abstract symmetric linear operator: apply(x, y) computes y = A x.
using LinearOperator =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Options for the (preconditioned) conjugate-gradient solver.
struct CgOptions {
  double tolerance = 1e-10;       ///< relative residual target ||r||/||b||
  std::size_t max_iterations = 2000;
  /// The caller caps iterations deliberately and tolerates an unconverged
  /// result (the resistance sketch, whose JL error dwarfs a tighter solve;
  /// the Phase-3 subspace iteration, which tolerates inexact inner solves).
  /// Suppresses the "cg.unconverged" health event — hitting the cap is the
  /// design, not a numerical problem — unless the final residual exceeds
  /// kBudgetResidualAlarm, i.e. the budget assumption itself broke down.
  /// Breakdowns ("cg.breakdown") still report.
  bool budget_bounded = false;
};

/// Residual past which even a budget-bounded solve reports "unconverged":
/// a deliberate budget trims tail precision (the Phase-3 inner solves start
/// from a random subspace and legitimately land around 1e-2 on their first
/// sweeps); a residual still above 10% after the full budget means the
/// solve made no useful progress at all.
inline constexpr double kBudgetResidualAlarm = 1e-1;

/// Aggregate report from a multi-RHS LaplacianSolver::solve_block call.
struct BlockSolveStats {
  std::size_t total_iterations = 0;  ///< Σ per-column CG iterations
  std::size_t max_iterations = 0;    ///< slowest column
  double max_residual = 0.0;  ///< worst column's final relative residual
  bool all_converged = false;
};

/// Convenience solver for graph-Laplacian systems.
///
/// Wraps a Laplacian (or regularized Laplacian Θ = L + I/σ²) with a
/// preconditioner — Jacobi by default, or an O(n) spanning-tree LDLᵀ solve
/// when a `TreeFactorization` is supplied; for the singular pure-Laplacian
/// case, right-hand sides and iterates are deflated against the constant
/// vector (valid on connected graphs). Used for effective-resistance
/// computation and for applying L_Y^+ inside the generalized eigensolver.
class LaplacianSolver {
 public:
  /// `regularization` is added to the diagonal (0 keeps L singular and
  /// enables constant-deflation instead).
  explicit LaplacianSolver(SparseMatrix laplacian, double regularization = 0.0,
                           CgOptions opts = {});

  /// As above, with a combinatorial (spanning-tree) preconditioner replacing
  /// Jacobi. `tree` must factor a spanning forest of the same graph with
  /// diag_shift equal to `regularization`; an empty factorization falls back
  /// to Jacobi.
  LaplacianSolver(SparseMatrix laplacian, double regularization,
                  CgOptions opts, TreeFactorization tree);

  /// Solve (L + regularization*I) x = b, optionally warm-started — a
  /// one-column solve_block. Throws std::invalid_argument when `b` or a
  /// non-empty `initial_guess` is not dimension() long.
  /// Thread-safe: independent solves may run concurrently on one solver
  /// (the edge-parallel exact resistances and DMD ratios rely on this).
  [[nodiscard]] std::vector<double> solve(
      std::span<const double> b,
      std::span<const double> initial_guess = {}) const;

  /// Solve all k columns of `rhs` simultaneously with blocked CG: each
  /// iteration reads the matrix once per group of up to 4 columns, and
  /// converged columns retire early. Column j of the result is
  /// bit-identical to solve(rhs.col(j), guess.col(j)) at every thread count
  /// (see block_conjugate_gradient). `initial_guess` may be nullptr.
  [[nodiscard]] Matrix solve_block(const Matrix& rhs,
                                   const Matrix* initial_guess = nullptr,
                                   BlockSolveStats* stats = nullptr) const;

  [[nodiscard]] const SparseMatrix& matrix() const { return laplacian_; }
  [[nodiscard]] double regularization() const { return regularization_; }
  [[nodiscard]] std::size_t dimension() const { return laplacian_.rows(); }
  [[nodiscard]] const CgOptions& options() const { return opts_; }
  [[nodiscard]] bool has_tree_preconditioner() const { return !tree_.empty(); }

 private:
  SparseMatrix laplacian_;
  double regularization_;
  CgOptions opts_;
  std::vector<double> inv_diag_;  // Jacobi preconditioner
  TreeFactorization tree_;        // combinatorial preconditioner (optional)
};

}  // namespace cirstag::linalg
