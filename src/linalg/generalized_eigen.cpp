#include "linalg/generalized_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace cirstag::linalg {

namespace {

/// Modified Gram-Schmidt orthonormalization of the columns of v (in place).
/// Columns that collapse numerically are replaced with fresh random vectors
/// (deflated and re-orthogonalized) so the subspace keeps full rank.
void orthonormalize_columns(Matrix& v, Rng& rng) {
  const std::size_t s = v.cols();
  for (std::size_t j = 0; j < s; ++j) {
    std::vector<double> col = v.col(j);
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (std::size_t i = 0; i < j; ++i) {
        const std::vector<double> prev = v.col(i);
        const double c = dot(col, prev);
        axpy(-c, prev, col);
      }
      const double nn = norm2(col);
      if (nn > 1e-10) {
        scale(1.0 / nn, col);
        break;
      }
      for (auto& x : col) x = rng.normal();
      deflate_constant(col);
    }
    v.set_col(j, col);
  }
}

/// Tracks the sorted Rayleigh quotients ρ_j = v_jᵀ(Mv)_j across sweeps and
/// signals convergence once they stabilize (GeneralizedEigenOptions::
/// ritz_tolerance). Sorting makes the comparison robust to column swaps
/// inside near-degenerate clusters; the fixed sequential accumulation order
/// keeps the decision thread-count invariant.
class RitzStop {
 public:
  RitzStop(double tolerance, std::size_t min_iterations)
      : tolerance_(tolerance), min_iterations_(min_iterations) {}

  /// `v` = the orthonormal iterate the sweep started from, `w` = M·v
  /// (deflated, pre-orthonormalization). Returns true when the iteration may
  /// stop after this sweep (`it` is 0-based).
  bool converged(const Matrix& v, const Matrix& w, std::size_t it) {
    if (tolerance_ <= 0.0) return false;
    const std::size_t s = v.cols();
    std::vector<double> rho(s, 0.0);
    for (std::size_t j = 0; j < s; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < v.rows(); ++i) acc += v(i, j) * w(i, j);
      rho[j] = acc;
    }
    std::sort(rho.begin(), rho.end(), std::greater<>());
    bool stable = false;
    if (!prev_.empty()) {
      const double scale = std::max(std::abs(rho[0]), 1e-300);
      double worst = 0.0;
      for (std::size_t j = 0; j < s; ++j)
        worst = std::max(worst, std::abs(rho[j] - prev_[j]));
      stable = worst <= tolerance_ * scale;
    }
    prev_ = std::move(rho);
    return stable && it + 1 >= min_iterations_;
  }

 private:
  double tolerance_;
  std::size_t min_iterations_;
  std::vector<double> prev_;
};

}  // namespace

GeneralizedEigenResult generalized_eigen_sparse(
    const SparseMatrix& l_x, const SparseMatrix& l_y,
    const GeneralizedEigenOptions& opts,
    const LaplacianSolver* external_solver) {
  if (l_x.rows() != l_x.cols() || l_y.rows() != l_y.cols() ||
      l_x.rows() != l_y.rows())
    throw std::invalid_argument("generalized_eigen_sparse: shape mismatch");
  const std::size_t n = l_x.rows();
  const std::size_t s = std::min(opts.num_pairs, n > 1 ? n - 1 : n);
  if (s == 0) return {};

  static const obs::Counter eigen_runs("eigen.runs");
  static const obs::Counter subspace_iterations("eigen.subspace_iterations");
  static const obs::Counter early_stops("eigen.ritz_early_stops");
  eigen_runs.add();

  CgOptions cg_opts;
  cg_opts.tolerance = opts.cg_tolerance;
  cg_opts.max_iterations = opts.cg_max_iterations;
  // The iteration cap is a deliberate budget here: subspace iteration
  // tolerates inexact inner solves, and the Rayleigh-Ritz projection is
  // exact on the converged subspace. Hitting the cap near the tolerance is
  // normal operation, not a health problem (kBudgetResidualAlarm still
  // flags solves that made no progress).
  cg_opts.budget_bounded = true;
  std::optional<LaplacianSolver> own_solver;
  if (external_solver) {
    if (external_solver->dimension() != n)
      throw std::invalid_argument(
          "generalized_eigen_sparse: external solver dimension mismatch");
  } else {
    own_solver.emplace(l_y, opts.ly_regularization, cg_opts);
  }
  const LaplacianSolver& solver =
      external_solver ? *external_solver : *own_solver;

  static const obs::Counter warm_inits("eigen.warm_subspace_starts");
  Rng rng(opts.seed);
  Matrix v(n, s);
  const bool seeded = opts.initial_subspace != nullptr &&
                      opts.initial_subspace->rows() == n &&
                      opts.initial_subspace->cols() >= s;
  if (seeded) {
    // Warm start from a baseline eigenbasis: deflate + re-orthonormalize the
    // provided columns. The rng stream stays aligned with the cold path so
    // any rank-repair draws inside orthonormalize_columns are reproducible.
    warm_inits.add();
    for (std::size_t j = 0; j < s; ++j) {
      std::vector<double> col = opts.initial_subspace->col(j);
      deflate_constant(col);
      v.set_col(j, col);
    }
  } else {
    for (std::size_t j = 0; j < s; ++j) {
      std::vector<double> col(n);
      for (auto& x : col) x = rng.normal();
      deflate_constant(col);
      v.set_col(j, col);
    }
  }
  orthonormalize_columns(v, rng);

  RitzStop ritz_stop(opts.ritz_tolerance, opts.min_iterations);
  std::size_t executed = 0;

  // Each sweep applies (L_Y + εI)^{-1} L_X to all s columns with one
  // multi-RHS SpMV and one block-CG call. As the subspace converges,
  // consecutive solves for the same column are nearby, so seeding CG with
  // the previous sweep's solution cuts the iteration count dramatically on
  // large manifolds.
  Matrix warm;
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    Matrix rhs(n, s);
    l_x.multiply_add(v, rhs);
    Matrix w = solver.solve_block(rhs, warm.empty() ? nullptr : &warm);
    for (std::size_t j = 0; j < s; ++j) {
      std::vector<double> sol = w.col(j);
      deflate_constant(sol);
      w.set_col(j, sol);
    }
    warm = w;
    const bool stop = ritz_stop.converged(v, warm, it);
    orthonormalize_columns(w, rng);
    v = std::move(w);
    ++executed;
    if (stop) {
      early_stops.add();
      break;
    }
  }
  subspace_iterations.add(executed);

  // Rayleigh-Ritz: project both Laplacians onto the converged subspace and
  // solve the small generalized problem exactly.
  Matrix lx_v = l_x.multiply(v);
  Matrix ly_v = l_y.multiply(v);
  Matrix a_small = matmul_at_b(v, lx_v);  // s x s
  Matrix b_small = matmul_at_b(v, ly_v);  // s x s
  // Symmetrize against round-off and regularize B like the solver does.
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = i + 1; j < s; ++j) {
      const double am = 0.5 * (a_small(i, j) + a_small(j, i));
      a_small(i, j) = a_small(j, i) = am;
      const double bm = 0.5 * (b_small(i, j) + b_small(j, i));
      b_small(i, j) = b_small(j, i) = bm;
    }
    b_small(i, i) += opts.ly_regularization;
  }

  EigenDecomposition small = generalized_eigen_dense(a_small, b_small);

  // Numerical health: residuals of the Ritz pairs, r_j = L_x u_j - θ_j (L_y
  // + εI) u_j with u_j = V c_j, computed entirely from the already-produced
  // lx_v / ly_v / V blocks (read-only, O(n s²)). Large residuals mean the
  // subspace had not converged at the iteration cap and the spectrum is
  // approximate.
  double max_rel = 0.0;
  for (std::size_t j = 0; j < s; ++j) {
    const double theta = small.values[j];
    double r2 = 0.0, a2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double ax = 0.0, bx = 0.0;
      for (std::size_t c = 0; c < s; ++c) {
        const double coeff = small.vectors(c, j);
        ax += lx_v(i, c) * coeff;
        bx += (ly_v(i, c) + opts.ly_regularization * v(i, c)) * coeff;
      }
      const double r = ax - theta * bx;
      r2 += r * r;
      a2 += ax * ax;
    }
    const double rel = a2 > 0.0 ? std::sqrt(r2 / a2) : std::sqrt(r2);
    max_rel = std::max(max_rel, rel);
  }
  static const obs::Gauge max_ritz("eigen.max_ritz_residual");
  max_ritz.set(max_rel);
  obs::record_health_event(
      "eigen.ritz_residual",
      "max relative Ritz residual across " + std::to_string(s) +
          " pairs after " + std::to_string(executed) + " subspace iterations",
      max_rel, 0.0, obs::HealthSeverity::info);

  GeneralizedEigenResult out;
  out.sweeps_executed = executed;
  out.values.resize(s);
  out.vectors = Matrix(n, s);
  // small.values ascending -> emit descending.
  for (std::size_t j = 0; j < s; ++j) {
    const std::size_t src = s - 1 - j;
    out.values[j] = small.values[src];
    std::vector<double> vec(n, 0.0);
    for (std::size_t i = 0; i < s; ++i)
      axpy(small.vectors(i, src), v.col(i), vec);
    const double nn = norm2(vec);
    if (nn > 0) scale(1.0 / nn, vec);
    out.vectors.set_col(j, vec);
  }
  return out;
}

}  // namespace cirstag::linalg
