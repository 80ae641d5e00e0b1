#include "linalg/block_cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "util/aligned.hpp"
#include "util/arena.hpp"

namespace cirstag::linalg {

namespace {

/// Columns per group task: the 4-lane width of the column kernels
/// (kernels::padded_cols). Narrower groups cost as much per row, so they
/// would only multiply the CSR traversals (DESIGN.md §7).
constexpr std::size_t kGroupCols = 4;

using Mask = std::vector<std::uint8_t>;
/// Column mask in the kernel layer's bit-pattern form, zero-padded to the
/// 4-lane multiple the column kernels require (kernels.hpp).
using LaneMask = std::vector<double, util::AlignedAllocator<double>>;
/// Padded per-column coefficient or reduction vector (fully loaded by the
/// kernels, so the pad lanes must exist and stay finite).
using Coeffs = std::vector<double, util::AlignedAllocator<double>>;

LaneMask make_lane_mask(const Mask& active) {
  LaneMask m(kernels::padded_cols(active.size()), kernels::kMaskOff);
  for (std::size_t j = 0; j < active.size(); ++j)
    if (active[j]) m[j] = kernels::kMaskOn;
  return m;
}

void get_column(const Matrix& m, std::size_t j, std::vector<double>& out) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = m(i, j);
}

/// z = M⁻¹r for one contiguous column, deflated when the solve is.
void precondition(const BlockCgSystem& sys, std::span<const double> r,
                  std::span<double> z) {
  if (sys.tree != nullptr) {
    sys.tree->apply(r, z);
  } else {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = sys.inv_diag[i] * r[i];
  }
  if (sys.deflate_constant) deflate_constant(z);
}

/// What one lockstep loop reports beside its per-column results.
struct LoopStats {
  std::size_t sweeps = 0;  ///< iterations, i.e. its slowest column's
  bool any_active = false;  ///< some column had a nonzero right-hand side
};

/// Run the CG recurrences of columns [c0, c0 + x.cols()) of `b` in lockstep:
/// iterate their solutions in `x` (zero on entry) and write each column's
/// residual, iterations and flags into `res` at its index in `b`.
LoopStats solve_columns(const BlockCgSystem& sys, const Matrix& b,
                        const CgOptions& opts, const Matrix* initial_guess,
                        std::size_t c0, Matrix& x, BlockCgResult& res) {
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  const std::size_t kp = kernels::padded_cols(k);
  const bool deflate = sys.deflate_constant;
  // Jacobi's z = D⁻¹r is recomputed by the pass that needs it; z is stored
  // only after a tree solve or to be centered in a deflated solve.
  const double* jacobi = sys.tree == nullptr ? sys.inv_diag.data() : nullptr;
  const bool store_z = jacobi == nullptr || deflate;
  Matrix r(n, k), p(n, k), ap(n, k);
  Matrix z = store_z ? Matrix(n, k) : Matrix();
  // Contiguous copies of one column, for the set-up, the tree solve and
  // retirement.
  std::vector<double> col(n), aux(n);
  Coeffs bnorm(kp, 0.0), rz(kp, 0.0), pap(kp, 0.0), alpha(kp, 0.0),
      rnorm2(kp, 0.0), rz_new(kp, 0.0), beta(kp, 0.0), sums(kp, 0.0),
      mean(kp, 0.0);

  // Set-up, a column at a time in its k = 1 arithmetic: r = b − (A +
  // shift·I)x₀, deflated as the solve is, then z = M⁻¹r, p = z and rᵀz.
  LoopStats stats;
  Mask active(k, 0);
  std::size_t num_active = 0;
  for (std::size_t j = 0; j < k; ++j) {
    get_column(b, c0 + j, col);
    if (deflate) deflate_constant(col);
    r.set_col(j, col);
    bnorm[j] = std::sqrt(kernels::dot_self(col.data(), n));
    if (bnorm[j] == 0.0) {
      res.converged[c0 + j] = 1;  // zero right-hand side: x stays 0
      continue;
    }
    active[j] = 1;
    ++num_active;
    if (initial_guess) {
      get_column(*initial_guess, c0 + j, col);
      if (deflate) deflate_constant(col);
      x.set_col(j, col);
    }
  }
  if (num_active == 0) return stats;
  stats.any_active = true;
  LaneMask amask = make_lane_mask(active);
  if (initial_guess)
    sys.matrix.multiply_shifted_cols(x, sys.shift, ap, amask, false, pap);
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    get_column(r, j, col);
    if (initial_guess) {
      get_column(ap, j, aux);
      if (deflate) deflate_constant(aux);
      kernels::axpy(-1.0, aux.data(), col.data(), n);
      r.set_col(j, col);
    }
    precondition(sys, col, aux);
    rz[j] = kernels::dot(col.data(), aux.data(), n);
    p.set_col(j, aux);
  }

  const kernels::KernelTable& kt = kernels::table();
  util::ArenaFrame frame;
  const std::span<double> scratch =
      frame.alloc<double>(kernels::kCgScratchPerCol * kp);
  // Deflation: `sums` holds the column sums of `a`; subtract the means from
  // a and take out[j] = Σ_i bm(i,j)·a(i,j) in one pass.
  auto center_dot = [&](Matrix& a, const Matrix& bm, Coeffs& out) {
    for (std::size_t j = 0; j < k; ++j)
      mean[j] = sums[j] / static_cast<double>(n);
    kt.center_dot_cols(mean.data(), a.data().data(), bm.data().data(), n, k,
                       amask.data(), out.data(), scratch.data());
  };
  // ‖r_j‖/‖b_j‖, recomputed for a column that breaks down or exhausts the
  // iteration budget.
  auto residual = [&](std::size_t j) {
    get_column(r, j, col);
    return std::sqrt(kernels::dot_self(col.data(), n)) / bnorm[j];
  };
  // A deflated solve deflates x_j once, when column j retires, so no column
  // is deflated twice (deflation is not bitwise idempotent).
  auto retire = [&](std::size_t j) {
    if (deflate) {
      get_column(x, j, col);
      deflate_constant(col);
      x.set_col(j, col);
    }
    active[j] = 0;
    --num_active;
  };

  for (std::size_t it = 0; it < opts.max_iterations && num_active > 0; ++it) {
    ++stats.sweeps;
    // P1: ap = (A + shift·I)p and pᵀap in one CSR traversal; deflated, the
    // traversal sums ap instead and one pass centers it and takes pᵀap.
    sys.matrix.multiply_shifted_cols(p, sys.shift, ap, amask, deflate,
                                     deflate ? sums : pap);
    if (deflate) center_dot(ap, p, pap);
    // Indefinite directions retire before the α step, per column.
    for (std::size_t j = 0; j < k; ++j) {
      if (active[j] && pap[j] <= 0.0) {
        res.breakdown[c0 + j] = 1;
        res.residuals[c0 + j] = residual(j);
        retire(j);
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    for (std::size_t j = 0; j < k; ++j)
      if (active[j]) alpha[j] = rz[j] / pap[j];
    // P2: x += αp, r −= α·ap, rᵀr, and for Jacobi rᵀz with z = D⁻¹r — or,
    // deflated, z stored and summed. Columns retiring below have their rᵀz
    // taken too and never read.
    kt.cg_step_cols(alpha.data(), p.data().data(), ap.data().data(),
                    x.data().data(), r.data().data(), jacobi,
                    jacobi && deflate ? z.data().data() : nullptr, n, k,
                    amask.data(), rnorm2.data(),
                    deflate ? sums.data() : rz_new.data(), scratch.data());
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      res.iterations[c0 + j] = it + 1;
      const double rel = std::sqrt(rnorm2[j]) / bnorm[j];
      if (rel < opts.tolerance) {
        res.converged[c0 + j] = 1;
        res.residuals[c0 + j] = rel;
        retire(j);
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    if (jacobi == nullptr) {
      for (std::size_t j = 0; j < k; ++j) {
        if (!active[j]) continue;
        get_column(r, j, col);
        precondition(sys, col, aux);
        rz_new[j] = kernels::dot(col.data(), aux.data(), n);
        z.set_col(j, aux);
      }
    } else if (deflate) {
      center_dot(z, r, rz_new);
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      beta[j] = rz_new[j] / rz[j];
      rz[j] = rz_new[j];
    }
    // P3: p = z + βp, with Jacobi's z = D⁻¹r recomputed when not stored.
    kt.xpby_cols(beta.data(), store_z ? nullptr : jacobi,
                 store_z ? z.data().data() : r.data().data(), p.data().data(),
                 n, k, amask.data());
  }

  // Columns that exhausted the iteration budget.
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    res.residuals[c0 + j] = residual(j);
    retire(j);
  }
  return stats;
}

}  // namespace

BlockCgResult block_conjugate_gradient(const BlockCgSystem& system,
                                       const Matrix& b, const CgOptions& opts,
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
  if (system.matrix.rows() != n || system.matrix.cols() != n ||
      (system.tree != nullptr ? system.tree->dimension() != n
                              : system.inv_diag.size() != n))
    throw std::invalid_argument(
        "block_conjugate_gradient: system does not match b");

  // Column groups: each kGroupCols-wide group runs its own lockstep loop as
  // one pool task, its row passes inline. They form only where they
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
          solve_columns(system, b, opts, initial_guess, c0, x, res);
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
    stats =
        solve_columns(system, b, opts, initial_guess, 0, res.solutions, res);
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
