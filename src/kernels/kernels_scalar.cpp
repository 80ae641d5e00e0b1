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

void leaf_distance2_scalar(const double* block, const double* q,
                           std::size_t d, std::size_t m, double* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* p = block + (i >> 2) * d * 4 + (i & 3);
    double acc[4] = {0, 0, 0, 0};
    for (std::size_t a = 0; a < d; ++a) {
      const double diff = p[a * 4] - q[a];
      acc[a & 3] = std::fma(diff, diff, acc[a & 3]);
    }
    out[i] = reduce4_tree(acc);
  }
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

/// out[j] = the 8-lane tree over lanes[l * kp + j] (l = 0..7), masked j.
void fold_lanes(const double* lanes, std::size_t k, const double* mask,
                double* out) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t j = 0; j < k; ++j) {
    if (!mask_on(mask[j])) continue;
    const double acc[8] = {lanes[j],          lanes[kp + j],
                           lanes[2 * kp + j], lanes[3 * kp + j],
                           lanes[4 * kp + j], lanes[5 * kp + j],
                           lanes[6 * kp + j], lanes[7 * kp + j]};
    out[j] = reduce8_tree(acc);
  }
}

void cg_apply_cols_scalar(const std::size_t* row_ptr,
                          const std::uint32_t* col_idx, const double* values,
                          const double* p, double shift, double* ap,
                          std::size_t n, std::size_t k, const double* mask,
                          bool sums, double* out, double* scratch) {
  const std::size_t kp = padded_cols(k);
  double* red = scratch;           // 8 row lanes
  double* row = scratch + 8 * kp;  // row i of A·p, accumulated into zeros
  double* acc = scratch + 9 * kp;  // spmm_range's 4 nnz lanes
  for (std::size_t j = 0; j < 8 * kp; ++j) red[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) row[j] = 0.0;
    spmm_range_scalar(row_ptr, col_idx, values, p, k, 1.0, row, 0, k, acc, i,
                      i + 1);
    const double* pi = p + i * k;
    double* lane = red + (i & 7) * kp;
    for (std::size_t j = 0; j < k; ++j) {
      if (!mask_on(mask[j])) continue;
      double v = row[j];
      if (shift != 0.0) v = std::fma(shift, pi[j], v);
      ap[i * k + j] = v;
      lane[j] = sums ? lane[j] + v : std::fma(pi[j], v, lane[j]);
    }
  }
  fold_lanes(red, k, mask, out);
}

void cg_step_cols_scalar(const double* alpha, const double* p,
                         const double* ap, double* x, double* r,
                         const double* d, double* z, std::size_t n,
                         std::size_t k, const double* mask, double* rr,
                         double* zr, double* scratch) {
  const std::size_t kp = padded_cols(k);
  double* rr_lanes = scratch;
  double* zr_lanes = scratch + 8 * kp;
  for (std::size_t j = 0; j < 16 * kp; ++j) scratch[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i * k;
    double* l1 = rr_lanes + (i & 7) * kp;
    double* l2 = zr_lanes + (i & 7) * kp;
    for (std::size_t j = 0; j < k; ++j) {
      if (!mask_on(mask[j])) continue;
      x[row + j] = std::fma(alpha[j], p[row + j], x[row + j]);
      const double rv = std::fma(-alpha[j], ap[row + j], r[row + j]);
      r[row + j] = rv;
      l1[j] = std::fma(rv, rv, l1[j]);
      if (d == nullptr) continue;
      const double zv = d[i] * rv;
      if (z == nullptr) {
        l2[j] = std::fma(rv, zv, l2[j]);
      } else {
        z[row + j] = zv;
        l2[j] += zv;
      }
    }
  }
  fold_lanes(rr_lanes, k, mask, rr);
  if (d != nullptr) fold_lanes(zr_lanes, k, mask, zr);
}

void center_dot_cols_scalar(const double* m, double* a, const double* b,
                            std::size_t n, std::size_t k, const double* mask,
                            double* out, double* scratch) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t j = 0; j < 8 * kp; ++j) scratch[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double* ar = a + i * k;
    const double* br = b + i * k;
    double* lane = scratch + (i & 7) * kp;
    for (std::size_t j = 0; j < k; ++j) {
      if (!mask_on(mask[j])) continue;
      ar[j] -= m[j];
      lane[j] = std::fma(br[j], ar[j], lane[j]);
    }
  }
  fold_lanes(scratch, k, mask, out);
}

void xpby_cols_scalar(const double* beta, const double* d, const double* src,
                      double* p, std::size_t n, std::size_t k,
                      const double* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* sr = src + i * k;
    double* pr = p + i * k;
    for (std::size_t j = 0; j < k; ++j) {
      if (!mask_on(mask[j])) continue;
      const double zv = d != nullptr ? d[i] * sr[j] : sr[j];
      pr[j] = std::fma(beta[j], pr[j], zv);
    }
  }
}

}  // namespace

const KernelTable& scalar_kernel_table() {
  static const KernelTable t{
      "scalar",
      dot_scalar,
      dot_self_scalar,
      sum_scalar,
      distance2_scalar,
      leaf_distance2_scalar,
      axpy_scalar,
      scale_scalar,
      sub_scalar_scalar,
      spmv_range_scalar,
      spmm_range_scalar,
      cg_apply_cols_scalar,
      cg_step_cols_scalar,
      center_dot_cols_scalar,
      xpby_cols_scalar,
  };
  return t;
}

}  // namespace cirstag::kernels
