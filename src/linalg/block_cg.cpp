#include "linalg/block_cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "util/aligned.hpp"
#include "util/arena.hpp"

namespace cirstag::linalg {

namespace {

/// Rows per parallel chunk for element-wise block updates; fixed grain keeps
/// the decomposition (and hence every partial) thread-count independent.
constexpr std::size_t kRowGrain = 2048;
/// Below this many elements an update is cheaper than waking the pool.
constexpr std::size_t kParallelMinElems = 16384;

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

/// y(i,j) += c[j]·x(i,j) on active columns (element-parallel, fixed chunks).
void axpy_columns(const Coeffs& c, const Matrix& x, Matrix& y,
                  const LaneMask& mask) {
  const std::size_t n = x.rows(), k = x.cols();
  const kernels::KernelTable& kt = kernels::table();
  auto body = [&](std::size_t lo, std::size_t hi) {
    kt.axpy_cols(c.data(), x.data().data() + lo * k, y.data().data() + lo * k,
                 hi - lo, k, mask.data());
  };
  if (n * k < kParallelMinElems) {
    body(0, n);
  } else {
    runtime::parallel_for_chunks(0, n, kRowGrain, body);
  }
}

/// p(i,j) = z(i,j) + beta[j]·p(i,j) on active columns.
void update_directions(const Matrix& z, const Coeffs& beta, Matrix& p,
                       const LaneMask& mask) {
  const std::size_t n = z.rows(), k = z.cols();
  const kernels::KernelTable& kt = kernels::table();
  auto body = [&](std::size_t lo, std::size_t hi) {
    kt.xpby_cols(beta.data(), z.data().data() + lo * k,
                 p.data().data() + lo * k, hi - lo, k, mask.data());
  };
  if (n * k < kParallelMinElems) {
    body(0, n);
  } else {
    runtime::parallel_for_chunks(0, n, kRowGrain, body);
  }
}

}  // namespace

BlockCgResult block_conjugate_gradient(const BlockLinearOperator& op,
                                       const Matrix& b,
                                       const BlockLinearOperator& precond,
                                       const CgOptions& opts,
                                       const Matrix* initial_guess) {
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

  const std::size_t kp = kernels::padded_cols(k);
  Matrix r = b;
  const LaneMask all_mask = make_lane_mask(Mask(k, 1));
  if (opts.deflate_constant) deflate_columns(r, all_mask);

  Coeffs bnorm(kp, 0.0);
  column_dots(r, r, all_mask, bnorm);
  for (auto& v : bnorm) v = std::sqrt(v);

  Mask active(k, 0);
  std::size_t num_active = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (bnorm[j] == 0.0) {
      res.converged[j] = 1;  // zero right-hand side: x stays 0
    } else {
      active[j] = 1;
      ++num_active;
    }
  }
  if (num_active == 0) return res;
  LaneMask amask = make_lane_mask(active);

  if (initial_guess) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto g = initial_guess->row(i);
      auto x = res.solutions.row(i);
      for (std::size_t j = 0; j < k; ++j)
        if (active[j]) x[j] = g[j];
    }
    if (opts.deflate_constant) deflate_columns(res.solutions, amask);
    Matrix ax(n, k);
    op(res.solutions, ax);
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

  std::size_t sweeps = 0;
  for (std::size_t it = 0; it < opts.max_iterations && num_active > 0; ++it) {
    ++sweeps;
    ap.fill(0.0);
    op(p, ap);
    if (opts.deflate_constant) deflate_columns(ap, amask);
    column_dots(p, ap, amask, pap);
    // Indefinite directions retire before the α step, per column.
    for (std::size_t j = 0; j < k; ++j) {
      if (active[j] && pap[j] <= 0.0) {
        res.breakdown[j] = 1;
        res.residuals[j] = tail_residual(j);
        if (opts.deflate_constant) deflate_column(res.solutions, j);
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
    axpy_columns(alpha, p, res.solutions, amask);
    axpy_columns(neg_alpha, ap, r, amask);
    column_dots(r, r, amask, rnorm2);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      res.iterations[j] = it + 1;
      const double rel = std::sqrt(rnorm2[j]) / bnorm[j];
      if (rel < opts.tolerance) {
        res.converged[j] = 1;
        res.residuals[j] = rel;
        if (opts.deflate_constant) deflate_column(res.solutions, j);
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
    res.residuals[j] = tail_residual(j);
    if (opts.deflate_constant) deflate_column(res.solutions, j);
  }
  for (std::size_t j = 0; j < k; ++j) res.total_iterations += res.iterations[j];

  static const obs::Counter solves("blockcg.solves");
  static const obs::Counter block_sweeps("blockcg.sweeps");
  static const obs::Counter column_iterations("blockcg.column_iterations");
  static const obs::Counter breakdown_columns("blockcg.breakdown_columns");
  static const obs::Counter columns("blockcg.columns");
  solves.add();
  block_sweeps.add(sweeps);
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
