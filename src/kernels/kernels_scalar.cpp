// Portable kernel table: the canonical arithmetic, spelled as plain C++.
//
// This TU *defines* the bit-exact semantics the AVX2 TU must reproduce —
// fixed-shape lane trees for reductions, std::fma for contracted updates,
// branch-suppressed masked lanes (see kernels.hpp). Keep the two files in
// lockstep: any shape change here is a numerical change everywhere.

#include "kernels/kernels.hpp"

#include <cmath>

namespace cirstag::kernels {
namespace {

using kernels::reduce4_tree;
using kernels::reduce8_tree;

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i)
    acc[i & 7] = std::fma(a[i], b[i], acc[i & 7]);
  return reduce8_tree(acc);
}

double dot_self_scalar(const double* a, std::size_t n) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i)
    acc[i & 7] = std::fma(a[i], a[i], acc[i & 7]);
  return reduce8_tree(acc);
}

double sum_scalar(const double* a, std::size_t n) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 7] += a[i];
  return reduce8_tree(acc);
}

double distance2_scalar(const double* a, const double* b, std::size_t n) {
  double acc[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc[i & 3] = std::fma(d, d, acc[i & 3]);
  }
  return reduce4_tree(acc);
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void scale_scalar(double alpha, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void sub_scalar_scalar(double m, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] -= m;
}

void spmv_range_scalar(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                       const double* values, const double* x, double alpha,
                       double* y, std::size_t lo, std::size_t hi) {
  for (std::size_t r = lo; r < hi; ++r) {
    double acc[4] = {0, 0, 0, 0};
    const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
    for (std::size_t t = b; t < e; ++t)
      acc[(t - b) & 3] = std::fma(values[t], x[col_idx[t]], acc[(t - b) & 3]);
    y[r] = std::fma(alpha, reduce4_tree(acc), y[r]);
  }
}

void spmm_range_scalar(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                       const double* values, const double* x, std::size_t ldx,
                       double alpha, double* y, std::size_t ldy, std::size_t k,
                       double* acc, std::size_t lo, std::size_t hi) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
    for (std::size_t j = 0; j < 4 * kp; ++j) acc[j] = 0.0;
    for (std::size_t t = b; t < e; ++t) {
      const double v = values[t];
      const double* xrow = x + static_cast<std::size_t>(col_idx[t]) * ldx;
      double* lane = acc + ((t - b) & 3) * kp;
      for (std::size_t j = 0; j < k; ++j)
        lane[j] = std::fma(v, xrow[j], lane[j]);
    }
    double* yrow = y + r * ldy;
    for (std::size_t j = 0; j < k; ++j) {
      const double fold =
          (acc[j] + acc[2 * kp + j]) + (acc[kp + j] + acc[3 * kp + j]);
      yrow[j] = std::fma(alpha, fold, yrow[j]);
    }
  }
}

void col_dots_scalar(const double* a, const double* b, std::size_t n,
                     std::size_t k, const double* mask, double* out,
                     double* scratch) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t j = 0; j < 8 * kp; ++j) scratch[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* ar = a + i * k;
    const double* br = b + i * k;
    double* lane = scratch + (i & 7) * kp;
    for (std::size_t j = 0; j < k; ++j)
      if (mask_on(mask[j])) lane[j] = std::fma(ar[j], br[j], lane[j]);
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (!mask_on(mask[j])) continue;
    const double acc[8] = {scratch[j],          scratch[kp + j],
                           scratch[2 * kp + j], scratch[3 * kp + j],
                           scratch[4 * kp + j], scratch[5 * kp + j],
                           scratch[6 * kp + j], scratch[7 * kp + j]};
    out[j] = reduce8_tree(acc);
  }
}

void col_sums_scalar(const double* a, std::size_t n, std::size_t k,
                     const double* mask, double* out, double* scratch) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t j = 0; j < 8 * kp; ++j) scratch[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* ar = a + i * k;
    double* lane = scratch + (i & 7) * kp;
    for (std::size_t j = 0; j < k; ++j)
      if (mask_on(mask[j])) lane[j] += ar[j];
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (!mask_on(mask[j])) continue;
    const double acc[8] = {scratch[j],          scratch[kp + j],
                           scratch[2 * kp + j], scratch[3 * kp + j],
                           scratch[4 * kp + j], scratch[5 * kp + j],
                           scratch[6 * kp + j], scratch[7 * kp + j]};
    out[j] = reduce8_tree(acc);
  }
}

void axpy_cols_scalar(const double* c, const double* x, double* y,
                      std::size_t n, std::size_t k, const double* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* xr = x + i * k;
    double* yr = y + i * k;
    for (std::size_t j = 0; j < k; ++j)
      if (mask_on(mask[j])) yr[j] = std::fma(c[j], xr[j], yr[j]);
  }
}

void xpby_cols_scalar(const double* beta, const double* z, double* p,
                      std::size_t n, std::size_t k, const double* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* zr = z + i * k;
    double* pr = p + i * k;
    for (std::size_t j = 0; j < k; ++j)
      if (mask_on(mask[j])) pr[j] = std::fma(beta[j], pr[j], zr[j]);
  }
}

void sub_cols_scalar(const double* m, double* x, std::size_t n, std::size_t k,
                     const double* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    double* xr = x + i * k;
    for (std::size_t j = 0; j < k; ++j)
      if (mask_on(mask[j])) xr[j] -= m[j];
  }
}

void diag_scale_cols_scalar(const double* d, const double* x, double* y,
                            std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    const double di = d[i];
    const double* xr = x + i * k;
    double* yr = y + i * k;
    for (std::size_t j = 0; j < k; ++j) yr[j] = di * xr[j];
  }
}

}  // namespace

const KernelTable& scalar_kernel_table() {
  static const KernelTable t{
      "scalar",          dot_scalar,        dot_self_scalar,
      sum_scalar,        distance2_scalar,  axpy_scalar,
      scale_scalar,      sub_scalar_scalar, spmv_range_scalar,
      spmm_range_scalar, col_dots_scalar,   col_sums_scalar,
      axpy_cols_scalar,  xpby_cols_scalar,  sub_cols_scalar,
      diag_scale_cols_scalar,
  };
  return t;
}

}  // namespace cirstag::kernels
