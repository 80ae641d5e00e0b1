#include "linalg/block_cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "util/aligned.hpp"
#include "util/arena.hpp"

namespace cirstag::linalg {

namespace {

/// Columns per group task: the 4-lane width of the masked column kernels
/// (kernels::padded_cols). Narrower groups cost as much per row, so they
/// would only multiply the CSR traversals (DESIGN.md §7).
constexpr std::size_t kGroupCols = 4;

using Mask = std::vector<std::uint8_t>;
/// Column mask in the kernel layer's bit-pattern form, zero-padded to the
/// 4-lane multiple the masked kernels require (kernels.hpp).
using LaneMask = std::vector<double, util::AlignedAllocator<double>>;
/// Padded per-column coefficient vector (fully loaded by the kernels, so the
/// pad lanes must exist and stay finite).
using Coeffs = std::vector<double, util::AlignedAllocator<double>>;

LaneMask make_lane_mask(const Mask& active) {
  LaneMask m(kernels::padded_cols(active.size()), kernels::kMaskOff);
  for (std::size_t j = 0; j < active.size(); ++j)
    if (active[j]) m[j] = kernels::kMaskOn;
  return m;
}

/// out[j] = Σ_i A(i,j)·B(i,j) for active columns, reduced through the same
/// 8-lane row tree as the `dot` kernel — serial over rows, so every column
/// is thread-count invariant and independent of its neighbours.
void column_dots(const Matrix& a, const Matrix& b, const LaneMask& mask,
                 Coeffs& out) {
  const std::size_t n = a.rows(), k = a.cols();
  std::fill(out.begin(), out.end(), 0.0);
  util::ArenaFrame frame;
  const auto scratch = frame.alloc<double>(8 * kernels::padded_cols(k));
  kernels::table().col_dots(a.data().data(), b.data().data(), n, k,
                            mask.data(), out.data(), scratch.data());
}

/// Remove the mean of every active column (two-pass — the per-column
/// association of deflate_constant, 8-lane sum tree).
void deflate_columns(Matrix& x, const LaneMask& mask) {
  const std::size_t n = x.rows(), k = x.cols();
  if (n == 0) return;
  const kernels::KernelTable& kt = kernels::table();
  util::ArenaFrame frame;
  const std::size_t kp = kernels::padded_cols(k);
  const auto mean = frame.alloc_zero<double>(kp);
  const auto scratch = frame.alloc<double>(8 * kp);
  kt.col_sums(x.data().data(), n, k, mask.data(), mean.data(), scratch.data());
  for (std::size_t j = 0; j < k; ++j) mean[j] /= static_cast<double>(n);
  kt.sub_cols(mean.data(), x.data().data(), n, k, mask.data());
}

/// Deflate one column — used exactly once per column, at retirement, so a
/// column is never double-deflated (deflation is not bitwise idempotent).
/// Strided mirror of deflate_constant: 8-lane sum tree, then subtract.
void deflate_column(Matrix& x, std::size_t j) {
  const std::size_t n = x.rows();
  if (n == 0) return;
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 7] += x(i, j);
  const double mean = kernels::reduce8_tree(acc) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) x(i, j) -= mean;
}

/// y(i,j) += c[j]·x(i,j) on active columns.
void axpy_columns(const Coeffs& c, const Matrix& x, Matrix& y,
                  const LaneMask& mask) {
  kernels::table().axpy_cols(c.data(), x.data().data(), y.data().data(),
                             x.rows(), x.cols(), mask.data());
}

/// p(i,j) = z(i,j) + beta[j]·p(i,j) on active columns.
void update_directions(const Matrix& z, const Coeffs& beta, Matrix& p,
                       const LaneMask& mask) {
  kernels::table().xpby_cols(beta.data(), z.data().data(), p.data().data(),
                             z.rows(), z.cols(), mask.data());
}

/// dst(i, j) = src(i, c0 + j) for every column of dst.
void copy_columns(const Matrix& src, std::size_t c0, Matrix& dst) {
  for (std::size_t i = 0; i < dst.rows(); ++i) {
    const auto from = src.row(i).subspan(c0, dst.cols());
    std::copy(from.begin(), from.end(), dst.row(i).begin());
  }
}

/// What one lockstep loop reports beside its per-column results.
struct LoopStats {
  std::size_t sweeps = 0;  ///< iterations, i.e. its slowest column's
  bool any_active = false;  ///< some column had a nonzero right-hand side
};

/// Run the CG recurrences of columns [c0, c0 + x.cols()) of `b` in lockstep:
/// iterate their solutions in `x` (zero on entry) and write each column's
/// residual, iterations and flags into `res` at its index in `b`.
LoopStats solve_columns(const BlockLinearOperator& op, const Matrix& b,
                        const BlockLinearOperator& precond,
                        const CgOptions& opts, const Matrix* initial_guess,
                        std::size_t c0, Matrix& x, BlockCgResult& res) {
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  const std::size_t kp = kernels::padded_cols(k);
  Matrix r(n, k);
  copy_columns(b, c0, r);
  const LaneMask all_mask = make_lane_mask(Mask(k, 1));
  if (opts.deflate_constant) deflate_columns(r, all_mask);

  Coeffs bnorm(kp, 0.0);
  column_dots(r, r, all_mask, bnorm);
  for (auto& v : bnorm) v = std::sqrt(v);

  LoopStats stats;
  Mask active(k, 0);
  std::size_t num_active = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (bnorm[j] == 0.0) {
      res.converged[c0 + j] = 1;  // zero right-hand side: x stays 0
    } else {
      active[j] = 1;
      ++num_active;
    }
  }
  if (num_active == 0) return stats;
  stats.any_active = true;
  LaneMask amask = make_lane_mask(active);

  if (initial_guess) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto g = initial_guess->row(i).subspan(c0, k);
      auto xi = x.row(i);
      for (std::size_t j = 0; j < k; ++j)
        if (active[j]) xi[j] = g[j];
    }
    if (opts.deflate_constant) deflate_columns(x, amask);
    Matrix ax(n, k);
    op(x, ax);
    if (opts.deflate_constant) deflate_columns(ax, amask);
    Coeffs minus_one(kp, 0.0);
    std::fill_n(minus_one.begin(), k, -1.0);
    axpy_columns(minus_one, ax, r, amask);
  }

  Matrix z(n, k);
  auto apply_precond = [&](const Matrix& in, Matrix& out) {
    if (precond) {
      precond(in, out);
    } else {
      std::copy(in.data().begin(), in.data().end(), out.data().begin());
    }
    if (opts.deflate_constant) deflate_columns(out, amask);
  };

  apply_precond(r, z);
  Matrix p = z;
  Matrix ap(n, k);
  Coeffs rz(kp, 0.0);
  column_dots(r, z, amask, rz);

  Coeffs pap(kp, 0.0), alpha(kp, 0.0), neg_alpha(kp, 0.0), rnorm2(kp, 0.0),
      rz_new(kp, 0.0), beta(kp, 0.0);

  // ‖r_j‖/‖b_j‖ recomputed at breakdown / max-iteration retirement — the
  // strided mirror of the norm kernel (8-lane tree over rows).
  auto tail_residual = [&](std::size_t j) {
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < n; ++i)
      acc[i & 7] = std::fma(r(i, j), r(i, j), acc[i & 7]);
    return std::sqrt(kernels::reduce8_tree(acc)) / bnorm[j];
  };

  for (std::size_t it = 0; it < opts.max_iterations && num_active > 0; ++it) {
    ++stats.sweeps;
    ap.fill(0.0);
    op(p, ap);
    if (opts.deflate_constant) deflate_columns(ap, amask);
    column_dots(p, ap, amask, pap);
    // Indefinite directions retire before the α step, per column.
    for (std::size_t j = 0; j < k; ++j) {
      if (active[j] && pap[j] <= 0.0) {
        res.breakdown[c0 + j] = 1;
        res.residuals[c0 + j] = tail_residual(j);
        if (opts.deflate_constant) deflate_column(x, j);
        active[j] = 0;
        --num_active;
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      alpha[j] = rz[j] / pap[j];
      neg_alpha[j] = -alpha[j];
    }
    axpy_columns(alpha, p, x, amask);
    axpy_columns(neg_alpha, ap, r, amask);
    column_dots(r, r, amask, rnorm2);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      res.iterations[c0 + j] = it + 1;
      const double rel = std::sqrt(rnorm2[j]) / bnorm[j];
      if (rel < opts.tolerance) {
        res.converged[c0 + j] = 1;
        res.residuals[c0 + j] = rel;
        if (opts.deflate_constant) deflate_column(x, j);
        active[j] = 0;
        --num_active;
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    apply_precond(r, z);
    column_dots(r, z, amask, rz_new);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      beta[j] = rz_new[j] / rz[j];
      rz[j] = rz_new[j];
    }
    update_directions(z, beta, p, amask);
  }

  // Columns that exhausted the iteration budget.
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    res.residuals[c0 + j] = tail_residual(j);
    if (opts.deflate_constant) deflate_column(x, j);
  }
  return stats;
}

}  // namespace

BlockCgResult block_conjugate_gradient(const BlockLinearOperator& op,
                                       const Matrix& b,
                                       const BlockLinearOperator& precond,
                                       const CgOptions& opts,
                                       const Matrix* initial_guess) {
  const obs::TraceSpan span("block_cg.solve", "linalg");
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  BlockCgResult res;
  res.solutions = Matrix(n, k);
  res.residuals.assign(k, 0.0);
  res.iterations.assign(k, 0);
  res.converged.assign(k, 0);
  res.breakdown.assign(k, 0);
  if (k == 0 || n == 0) return res;
  if (initial_guess &&
      (initial_guess->rows() != n || initial_guess->cols() != k))
    throw std::invalid_argument("block_conjugate_gradient: bad guess shape");

  // Column groups: each kGroupCols-wide group runs its own lockstep loop as
  // one pool task, its SpMM and updates inline. They form only where they
  // can run side by side; elsewhere one loop serves all k columns and reads
  // the operator once per iteration instead of once per group.
  const std::size_t groups = (k + kGroupCols - 1) / kGroupCols;
  LoopStats stats;
  if (groups > 1 && !runtime::ThreadPool::in_parallel_region() &&
      runtime::global_pool().num_threads() > 1) {
    std::vector<LoopStats> group_stats(groups);
    runtime::parallel_for(0, groups, 1, [&](std::size_t g) {
      const std::size_t c0 = g * kGroupCols;
      Matrix x(n, std::min(kGroupCols, k - c0));
      group_stats[g] =
          solve_columns(op, b, precond, opts, initial_guess, c0, x, res);
      for (std::size_t i = 0; i < n; ++i) {
        const auto xi = x.row(i);
        std::copy(xi.begin(), xi.end(), res.solutions.row(i).begin() + c0);
      }
    });
    for (const LoopStats& g : group_stats) {
      stats.sweeps = std::max(stats.sweeps, g.sweeps);
      stats.any_active = stats.any_active || g.any_active;
    }
  } else {
    stats = solve_columns(op, b, precond, opts, initial_guess, 0,
                          res.solutions, res);
  }
  if (!stats.any_active) return res;
  for (std::size_t j = 0; j < k; ++j) res.total_iterations += res.iterations[j];

  static const obs::Counter solves("blockcg.solves");
  static const obs::Counter block_sweeps("blockcg.sweeps");
  static const obs::Counter column_iterations("blockcg.column_iterations");
  static const obs::Counter breakdown_columns("blockcg.breakdown_columns");
  static const obs::Counter columns("blockcg.columns");
  solves.add();
  block_sweeps.add(stats.sweeps);
  column_iterations.add(res.total_iterations);
  columns.add(k);

  // An indefinite direction is a property of the operator, never a budget
  // decision, so breakdowns report even on budget-bounded solves.
  std::size_t broken = 0, capped = 0;
  double worst_broken = 0.0, worst_capped = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    if (res.breakdown[j]) {
      ++broken;
      worst_broken = std::max(worst_broken, res.residuals[j]);
    } else if (!res.converged[j]) {
      ++capped;
      worst_capped = std::max(worst_capped, res.residuals[j]);
    }
  }
  if (broken > 0) {
    breakdown_columns.add(broken);
    obs::record_health_event(
        "cg.breakdown",
        std::to_string(broken) + " of " + std::to_string(k) +
            " CG columns hit an indefinite direction (p'Ap <= 0); worst "
            "relative residual " +
            std::to_string(worst_broken),
        worst_broken, opts.tolerance, obs::HealthSeverity::warning);
  }
  if (capped > 0 &&
      (!opts.budget_bounded || worst_capped > kBudgetResidualAlarm)) {
    obs::record_health_event(
        "cg.unconverged",
        std::to_string(capped) + " of " + std::to_string(k) +
            " CG columns stopped at max_iterations=" +
            std::to_string(opts.max_iterations) +
            "; worst relative residual " + std::to_string(worst_capped),
        worst_capped, opts.tolerance, obs::HealthSeverity::warning);
  }
  return res;
}

}  // namespace cirstag::linalg
