#include "linalg/multilevel_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "linalg/lanczos.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace cirstag::linalg {

namespace {

/// Refinement sweeps spent across both multilevel paths; locked into the CI
/// scale-smoke baseline (counters, never wall time).
const obs::Counter& refine_sweep_counter() {
  static const obs::Counter c("eigen.ritz_refine_sweeps");
  return c;
}

/// Piecewise-constant prolongation: row i of the output copies row map[i] of
/// the coarse block. Strictly serial; the map is a pure function of the
/// graph, so this is too.
Matrix prolong(const Matrix& coarse, std::span<const std::uint32_t> map) {
  Matrix fine(map.size(), coarse.cols());
  for (std::size_t i = 0; i < map.size(); ++i) {
    const std::span<const double> src = coarse.row(map[i]);
    std::copy(src.begin(), src.end(), fine.row(i).begin());
  }
  return fine;
}

/// Modified Gram-Schmidt with rank repair, mirroring the (file-local)
/// orthonormalization of generalized_eigen.cpp: a column that collapses
/// under projection — prolonged vectors of a near-duplicate aggregate can —
/// is replaced by a fresh deterministic random draw and re-projected.
void orthonormalize_columns(Matrix& v, Rng& rng) {
  const std::size_t n = v.rows();
  const std::size_t s = v.cols();
  std::vector<double> col(n);
  std::vector<double> other(n);
  for (std::size_t j = 0; j < s; ++j) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (std::size_t i = 0; i < n; ++i) col[i] = v(i, j);
      for (std::size_t p = 0; p < j; ++p) {
        for (std::size_t i = 0; i < n; ++i) other[i] = v(i, p);
        const double proj = dot(col, other);
        axpy(-proj, other, col);
      }
      const double nrm = norm2(col);
      if (nrm > 1e-10) {
        scale(1.0 / nrm, col);
        v.set_col(j, col);
        break;
      }
      for (std::size_t i = 0; i < n; ++i) col[i] = rng.normal();
      v.set_col(j, col);
    }
  }
}

/// Max spectrum-relative residual ‖A u_j − θ_j u_j‖ / b over the returned
/// Ritz pairs (b >= ‖A‖, u_j unit-norm), reusing the already-computed block
/// product A·W (A·V = (A·W)·Q). Normalizing by the spectrum bound instead of
/// ‖A u_j‖ keeps near-nullspace pairs (θ ≈ 0, so ‖A u‖ ≈ 0) well-defined.
double max_standard_residual(const Matrix& v, const Matrix& av,
                             std::span<const double> values, double bound) {
  double worst = 0.0;
  std::vector<double> r(v.rows());
  for (std::size_t j = 0; j < values.size(); ++j) {
    for (std::size_t i = 0; i < v.rows(); ++i)
      r[i] = av(i, j) - values[j] * v(i, j);
    worst = std::max(worst, norm2(r) / bound);
  }
  return worst;
}

void record_residual_event(double worst, double bound) {
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "max multilevel Ritz relative residual %.3e", worst);
  obs::record_health_event("eigen.multilevel_residual", detail, worst, bound,
                           worst > bound ? obs::HealthSeverity::warning
                                         : obs::HealthSeverity::info);
}

}  // namespace

EigenDecomposition multilevel_smallest_eigenpairs(
    const SparseMatrix& fine, std::span<const SparseMatrix> coarse,
    std::span<const ProlongMap> maps, std::size_t k,
    const MultilevelSmallestOptions& opts, MultilevelStats* stats) {
  if (coarse.size() != maps.size())
    throw std::invalid_argument(
        "multilevel_smallest_eigenpairs: level/map count mismatch");
  // Degenerate hierarchies (no productive coarsening round, or a coarsest
  // level too small to carry k directions) fall through to the exact solver.
  if (coarse.empty() || coarse.back().rows() <= k + 2) {
    return smallest_eigenpairs(fine, k, opts.spectrum_upper_bound,
                               /*max_subspace=*/0, opts.seed);
  }

  EigenDecomposition cur =
      smallest_eigenpairs(coarse.back(), k, opts.spectrum_upper_bound,
                          /*max_subspace=*/0, opts.seed);
  if (stats != nullptr) {
    stats->levels = coarse.size();
    stats->coarsest_n = coarse.back().rows();
  }

  std::size_t refine_total = 0;
  const double b = opts.spectrum_upper_bound;
  // Walk the V-cycle upward: level index l counts coarse levels, l == 0 is
  // the fine operator itself.
  for (std::size_t l = coarse.size(); l-- > 0;) {
    const SparseMatrix& a = (l == 0) ? fine : coarse[l - 1];
    Matrix w = prolong(cur.vectors, maps[l]);
    Rng rng(opts.seed ^ (0x9e3779b97f4a7c15ULL * (l + 1)));
    orthonormalize_columns(w, rng);
    Matrix aw;
    for (std::size_t sweep = 0; sweep < opts.refine_sweeps; ++sweep) {
      // One shifted power sweep W <- (b·I − A)·W pulls the block toward the
      // small end of A's spectrum (b >= λ_max makes the map positive).
      aw = a.multiply(w);
      scale(b, w.data());
      axpy(-1.0, aw.data(), w.data());
      orthonormalize_columns(w, rng);
      ++refine_total;
    }
    // Dense Rayleigh-Ritz on A itself recovers ascending Ritz values with
    // the same ordering contract as smallest_eigenpairs.
    aw = a.multiply(w);
    Matrix b_small = matmul_at_b(w, aw);
    for (std::size_t r = 0; r < b_small.rows(); ++r)
      for (std::size_t c = r + 1; c < b_small.cols(); ++c) {
        const double avg = 0.5 * (b_small(r, c) + b_small(c, r));
        b_small(r, c) = avg;
        b_small(c, r) = avg;
      }
    const EigenDecomposition small = jacobi_eigen(b_small);
    cur.values = small.values;
    cur.vectors = matmul(w, small.vectors);
    if (l == 0)
      record_residual_event(
          max_standard_residual(cur.vectors, matmul(aw, small.vectors),
                                cur.values, b),
          kMultilevelResidualBound);
  }

  refine_sweep_counter().add(refine_total);
  if (stats != nullptr) stats->ritz_refine_sweeps += refine_total;
  return cur;
}

GeneralizedEigenResult multilevel_generalized_eigen(
    std::span<const SparseMatrix> lx, std::span<const SparseMatrix> ly,
    std::span<const ProlongMap> maps, const GeneralizedEigenOptions& opts,
    std::size_t refine_sweeps, const LaplacianSolver* finest_solver,
    MultilevelStats* stats) {
  if (lx.empty() || lx.size() != ly.size() || maps.size() + 1 != lx.size())
    throw std::invalid_argument(
        "multilevel_generalized_eigen: inconsistent level spans");
  if (maps.empty() || lx.back().rows() <= opts.num_pairs + 2) {
    return generalized_eigen_sparse(lx[0], ly[0], opts, finest_solver);
  }

  // Coarsest level: the full subspace-iteration budget, cold start.
  GeneralizedEigenOptions copts = opts;
  copts.initial_subspace = nullptr;
  GeneralizedEigenResult cur =
      generalized_eigen_sparse(lx.back(), ly.back(), copts, nullptr);
  if (stats != nullptr) {
    stats->levels = maps.size();
    stats->coarsest_n = lx.back().rows();
  }

  std::size_t total_sweeps = cur.sweeps_executed;
  std::size_t refine_total = 0;
  for (std::size_t l = maps.size(); l-- > 0;) {
    Matrix w = prolong(cur.vectors, maps[l]);
    GeneralizedEigenOptions ropts = copts;
    ropts.initial_subspace = &w;
    ropts.iterations = refine_sweeps;
    ropts.min_iterations = std::min(opts.min_iterations, refine_sweeps);
    cur = generalized_eigen_sparse(lx[l], ly[l], ropts,
                                   l == 0 ? finest_solver : nullptr);
    total_sweeps += cur.sweeps_executed;
    refine_total += cur.sweeps_executed;
  }

  refine_sweep_counter().add(refine_total);
  if (stats != nullptr) stats->ritz_refine_sweeps += refine_total;
  cur.sweeps_executed = total_sweeps;

  // Finest-level pencil residual ‖L_X u − θ (L_Y + εI) u‖ / ‖L_X u‖ per
  // returned pair — the documented drift contract of multilevel mode.
  double worst = 0.0;
  std::vector<double> r(lx[0].rows());
  for (std::size_t j = 0; j < cur.values.size(); ++j) {
    const std::vector<double> u = cur.vectors.col(j);
    const std::vector<double> xu = lx[0].multiply(u);
    const std::vector<double> yu = ly[0].multiply(u);
    for (std::size_t i = 0; i < r.size(); ++i)
      r[i] = xu[i] - cur.values[j] * (yu[i] + opts.ly_regularization * u[i]);
    const double denom = norm2(xu);
    if (denom > 0.0) worst = std::max(worst, norm2(r) / denom);
  }
  record_residual_event(worst, kMultilevelPencilResidualBound);
  return cur;
}

}  // namespace cirstag::linalg
