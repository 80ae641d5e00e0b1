// AVX2 + FMA kernel table. Compiled with -mavx2 -mfma (see CMakeLists); the
// dispatcher only installs it when __builtin_cpu_supports confirms both
// features at runtime.
//
// Every loop reproduces the canonical lane shapes from kernels_scalar.cpp
// bit for bit:
//   * 8-lane reductions = two 4-wide accumulators; 4-lane = one.
//   * Tail and masked lanes use maskload + blendv/maskstore so suppressed
//     lanes contribute nothing at all (a multiply-by-zero tail would flip
//     signed zeros: fma(0, x, -0.0) = +0.0).
//   * Horizontal folds are the fixed trees documented in kernels.hpp.

#include "kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <type_traits>
#include <utility>

namespace cirstag::kernels {
namespace {

/// Load mask enabling the first r lanes (r in [0, 4]); MSB-driven, so it
/// works for VMASKMOVPD, VBLENDVPD and VPMASKMOV alike.
inline __m256i lane_mask(std::size_t r) {
  static const __m256i kMasks[5] = {
      _mm256_setzero_si256(),
      _mm256_set_epi64x(0, 0, 0, -1),
      _mm256_set_epi64x(0, 0, -1, -1),
      _mm256_set_epi64x(0, -1, -1, -1),
      _mm256_set_epi64x(-1, -1, -1, -1),
  };
  return kMasks[r];
}

/// (l0 + l2) + (l1 + l3) — the canonical 4-lane horizontal tree.
inline double hfold4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);       // l0 l1
  const __m128d hi = _mm256_extractf128_pd(v, 1);     // l2 l3
  const __m128d s = _mm_add_pd(lo, hi);               // l0+l2, l1+l3
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/// Fold the 8-lane accumulator pair: vertical add, then the 4-lane tree.
inline double hfold8(__m256d acc0, __m256d acc1) {
  return hfold4(_mm256_add_pd(acc0, acc1));
}

/// Accumulate the final 0–7 elements of an 8-lane reduction at `a+base`,
/// splitting lanes exactly like the scalar (i & 7) mapping.
template <typename LoadFma>
inline void tail8(std::size_t rem, __m256d& acc0, __m256d& acc1,
                  LoadFma&& step) {
  const std::size_t r0 = rem < 4 ? rem : 4;
  const std::size_t r1 = rem - r0;
  if (r0 != 0) acc0 = step(0, lane_mask(r0), acc0);
  if (r1 != 0) acc1 = step(4, lane_mask(r1), acc1);
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  const std::size_t main = n & ~std::size_t{7};
  for (std::size_t i = 0; i < main; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  tail8(n - main, acc0, acc1,
        [&](std::size_t off, __m256i m, __m256d acc) {
          const __m256d av = _mm256_maskload_pd(a + main + off, m);
          const __m256d bv = _mm256_maskload_pd(b + main + off, m);
          const __m256d t = _mm256_fmadd_pd(av, bv, acc);
          return _mm256_blendv_pd(acc, t, _mm256_castsi256_pd(m));
        });
  return hfold8(acc0, acc1);
}

double dot_self_avx2(const double* a, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  const std::size_t main = n & ~std::size_t{7};
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(a + i);
    const __m256d v1 = _mm256_loadu_pd(a + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  tail8(n - main, acc0, acc1,
        [&](std::size_t off, __m256i m, __m256d acc) {
          const __m256d v = _mm256_maskload_pd(a + main + off, m);
          const __m256d t = _mm256_fmadd_pd(v, v, acc);
          return _mm256_blendv_pd(acc, t, _mm256_castsi256_pd(m));
        });
  return hfold8(acc0, acc1);
}

double sum_avx2(const double* a, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  const std::size_t main = n & ~std::size_t{7};
  for (std::size_t i = 0; i < main; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  tail8(n - main, acc0, acc1,
        [&](std::size_t off, __m256i m, __m256d acc) {
          const __m256d v = _mm256_maskload_pd(a + main + off, m);
          const __m256d t = _mm256_add_pd(acc, v);
          return _mm256_blendv_pd(acc, t, _mm256_castsi256_pd(m));
        });
  return hfold8(acc0, acc1);
}

double distance2_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t main = n & ~std::size_t{3};
  for (std::size_t i = 0; i < main; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  if (const std::size_t rem = n - main; rem != 0) {
    const __m256i m = lane_mask(rem);
    const __m256d d = _mm256_sub_pd(_mm256_maskload_pd(a + main, m),
                                    _mm256_maskload_pd(b + main, m));
    const __m256d t = _mm256_fmadd_pd(d, d, acc);
    acc = _mm256_blendv_pd(acc, t, _mm256_castsi256_pd(m));
  }
  return hfold4(acc);
}

void leaf_distance2_avx2(const double* block, const double* q, std::size_t d,
                         std::size_t m, double* out) {
  const std::size_t body = d & ~std::size_t{3};
  for (std::size_t g = 0; g * 4 < m; ++g, block += d * 4) {
    // acc<j> is distance2's virtual lane j, for the 4 points of group g.
    const auto term = [&](std::size_t a, __m256d acc) {
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(block + a * 4),
                                         _mm256_broadcast_sd(q + a));
      return _mm256_fmadd_pd(diff, diff, acc);
    };
    __m256d acc0 = _mm256_setzero_pd(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
    std::size_t a = 0;
    for (; a < body; a += 4) {
      acc0 = term(a, acc0);
      acc1 = term(a + 1, acc1);
      acc2 = term(a + 2, acc2);
      acc3 = term(a + 3, acc3);
    }
    if (a < d) acc0 = term(a, acc0);
    if (a + 1 < d) acc1 = term(a + 1, acc1);
    if (a + 2 < d) acc2 = term(a + 2, acc2);
    const __m256d r = _mm256_add_pd(_mm256_add_pd(acc0, acc2),
                                    _mm256_add_pd(acc1, acc3));
    if (const std::size_t rem = m - g * 4; rem >= 4)
      _mm256_storeu_pd(out + g * 4, r);
    else
      _mm256_maskstore_pd(out + g * 4, lane_mask(rem), r);
  }
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  const std::size_t main = n & ~std::size_t{3};
  for (std::size_t i = 0; i < main; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  if (const std::size_t rem = n - main; rem != 0) {
    const __m256i m = lane_mask(rem);
    const __m256d t = _mm256_fmadd_pd(av, _mm256_maskload_pd(x + main, m),
                                      _mm256_maskload_pd(y + main, m));
    _mm256_maskstore_pd(y + main, m, t);
  }
}

void scale_avx2(double alpha, double* x, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  const std::size_t main = n & ~std::size_t{3};
  for (std::size_t i = 0; i < main; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
  if (const std::size_t rem = n - main; rem != 0) {
    const __m256i m = lane_mask(rem);
    _mm256_maskstore_pd(
        x + main, m, _mm256_mul_pd(av, _mm256_maskload_pd(x + main, m)));
  }
}

void sub_scalar_avx2(double s, double* x, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  const std::size_t main = n & ~std::size_t{3};
  for (std::size_t i = 0; i < main; i += 4)
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), sv));
  if (const std::size_t rem = n - main; rem != 0) {
    const __m256i m = lane_mask(rem);
    _mm256_maskstore_pd(
        x + main, m, _mm256_sub_pd(_mm256_maskload_pd(x + main, m), sv));
  }
}

void spmv_range_avx2(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, double alpha,
                     double* y, std::size_t lo, std::size_t hi) {
  // Sparse row dots are gather-bound, and vgatherdpd loses to plain scalar
  // loads on typical CSR rows (~10 nnz): four independent scalar fma chains
  // keep the exact 4-lane tree shape — lane (t - b) & 3, same fold — while
  // the loads pipeline instead of serializing through the gather unit.
  for (std::size_t r = lo; r < hi; ++r) {
    const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t t = b;
    for (; t + 4 <= e; t += 4) {
      _mm_prefetch(reinterpret_cast<const char*>(values + t + 16),
                   _MM_HINT_T0);
      a0 = std::fma(values[t], x[col_idx[t]], a0);
      a1 = std::fma(values[t + 1], x[col_idx[t + 1]], a1);
      a2 = std::fma(values[t + 2], x[col_idx[t + 2]], a2);
      a3 = std::fma(values[t + 3], x[col_idx[t + 3]], a3);
    }
    // Ragged tail continues the lane assignment: lanes 0, 1, 2.
    if (t < e) a0 = std::fma(values[t], x[col_idx[t]], a0), ++t;
    if (t < e) a1 = std::fma(values[t], x[col_idx[t]], a1), ++t;
    if (t < e) a2 = std::fma(values[t], x[col_idx[t]], a2);
    y[r] = std::fma(alpha, (a0 + a2) + (a1 + a3), y[r]);
  }
}

/// spmm_range's row dot for row r when kp == 4 (k <= 4): the whole 4-lane
/// accumulator block fits in four ymm registers, so there is no scratch
/// round-trip per nnz. Lane (t - b) & 3 and the fold (a0 + a2) + (a1 + a3)
/// are the scalar tree's. KFull selects plain loads when k == 4; otherwise
/// `km` masks the live columns. `ldx` is a std::size_t, or a
/// std::integral_constant when the caller knows it, which keeps a multiply
/// out of every load's address.
///
/// The ragged tail of 0–3 entries does not branch on its length: a row
/// ending at least 3 entries before `end` (an nnz bound inside the caller's
/// CSR arrays) always loads the next three entries and keeps each one's fma
/// only in the lanes the row owns (blendv). A lane past the row's end is
/// blended away, never multiplied by zero, so a NaN or Inf reached only
/// through the over-read cannot enter the sum. Rows nearer `end` take the
/// branched tail.
template <bool KFull, typename Ld>
inline __m256d spmm_row_kp4(const std::size_t* row_ptr,
                            const std::uint32_t* col_idx, const double* values,
                            const double* x, Ld ldx, __m256i km,
                            std::size_t r, std::size_t end) {
  const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
  const __m256d zero = _mm256_setzero_pd();
  __m256d a0 = zero, a1 = zero, a2 = zero, a3 = zero;
  const auto term = [&](std::size_t t, __m256d acc) {
    const double* p = x + static_cast<std::size_t>(col_idx[t]) * ldx;
    const __m256d xv = KFull ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, km);
    return _mm256_fmadd_pd(_mm256_set1_pd(values[t]), xv, acc);
  };
  std::size_t t = b;
  for (; t + 4 <= e; t += 4) {
    a0 = term(t, a0);
    a1 = term(t + 1, a1);
    a2 = term(t + 2, a2);
    a3 = term(t + 3, a3);
  }
  // Ragged tail continues the lane assignment: lanes 0, 1, 2.
  if (e + 3 <= end) {
    const __m256i rem = _mm256_set1_epi64x(static_cast<long long>(e - t));
    const auto live = [&](long long lane) {
      return _mm256_castsi256_pd(
          _mm256_cmpgt_epi64(rem, _mm256_set1_epi64x(lane)));
    };
    a0 = _mm256_blendv_pd(a0, term(t, a0), live(0));
    a1 = _mm256_blendv_pd(a1, term(t + 1, a1), live(1));
    a2 = _mm256_blendv_pd(a2, term(t + 2, a2), live(2));
  } else {
    if (t < e) a0 = term(t, a0), ++t;
    if (t < e) a1 = term(t, a1), ++t;
    if (t < e) a2 = term(t, a2);
  }
  return _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3));
}

/// The kp == 8 (5 <= k <= 8) row dot: eight register accumulators, two per
/// lane. The low j-block is always full (k >= 5); KFull selects plain loads
/// for the high block when k == 8, else `km` masks it.
template <bool KFull>
inline void spmm_row_kp8(const std::size_t* row_ptr,
                         const std::uint32_t* col_idx, const double* values,
                         const double* x, std::size_t ldx, __m256i km,
                         std::size_t r, __m256d& foldl, __m256d& foldh) {
  const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
  const __m256d zero = _mm256_setzero_pd();
  __m256d a0l = zero, a1l = zero, a2l = zero, a3l = zero;
  __m256d a0h = zero, a1h = zero, a2h = zero, a3h = zero;
  const auto step = [&](std::size_t t, __m256d& al, __m256d& ah) {
    const double* p = x + static_cast<std::size_t>(col_idx[t]) * ldx;
    const __m256d v = _mm256_set1_pd(values[t]);
    al = _mm256_fmadd_pd(v, _mm256_loadu_pd(p), al);
    ah = _mm256_fmadd_pd(
        v, KFull ? _mm256_loadu_pd(p + 4) : _mm256_maskload_pd(p + 4, km), ah);
  };
  std::size_t t = b;
  for (; t + 4 <= e; t += 4) {
    step(t, a0l, a0h);
    step(t + 1, a1l, a1h);
    step(t + 2, a2l, a2h);
    step(t + 3, a3l, a3h);
  }
  if (t < e) step(t, a0l, a0h), ++t;
  if (t < e) step(t, a1l, a1h), ++t;
  if (t < e) step(t, a2l, a2h);
  foldl = _mm256_add_pd(_mm256_add_pd(a0l, a2l), _mm256_add_pd(a1l, a3l));
  foldh = _mm256_add_pd(_mm256_add_pd(a0h, a2h), _mm256_add_pd(a1h, a3h));
}

/// The wide (kp > 8) row dot: the four nnz lanes live in `acc` scratch
/// (4 * kp doubles, lane-major) — four independent fma chains per column,
/// the same tree as spmv_range, which is also what hides the fma latency.
inline void spmm_row_acc(const std::size_t* row_ptr,
                         const std::uint32_t* col_idx, const double* values,
                         const double* x, std::size_t ldx, std::size_t k,
                         double* acc, std::size_t r) {
  const std::size_t kp = padded_cols(k);
  const std::size_t kmain = k & ~std::size_t{3};
  const __m256i ktail = lane_mask(k - kmain);
  const std::size_t b = row_ptr[r], e = row_ptr[r + 1];
  for (std::size_t j = 0; j < 4 * kp; j += 4)
    _mm256_store_pd(acc + j, _mm256_setzero_pd());
  for (std::size_t t = b; t < e; ++t) {
    const __m256d v = _mm256_set1_pd(values[t]);
    const double* xrow = x + static_cast<std::size_t>(col_idx[t]) * ldx;
    double* lane = acc + ((t - b) & 3) * kp;
    for (std::size_t j = 0; j < kmain; j += 4)
      _mm256_store_pd(lane + j, _mm256_fmadd_pd(v, _mm256_loadu_pd(xrow + j),
                                                _mm256_load_pd(lane + j)));
    if (kmain != k)
      _mm256_store_pd(
          lane + kmain,
          _mm256_fmadd_pd(v, _mm256_maskload_pd(xrow + kmain, ktail),
                          _mm256_load_pd(lane + kmain)));
  }
}

/// Fold of column block j of spmm_row_acc's lanes: (a0 + a2) + (a1 + a3).
inline __m256d spmm_acc_fold(const double* acc, std::size_t kp,
                             std::size_t j) {
  return _mm256_add_pd(_mm256_add_pd(_mm256_load_pd(acc + j),
                                     _mm256_load_pd(acc + 2 * kp + j)),
                       _mm256_add_pd(_mm256_load_pd(acc + kp + j),
                                     _mm256_load_pd(acc + 3 * kp + j)));
}

template <bool KFull>
void spmm_rows_kp4(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                   const double* values, const double* x, std::size_t ldx,
                   double alpha, double* y, std::size_t ldy, __m256i km,
                   std::size_t lo, std::size_t hi) {
  const __m256d av = _mm256_set1_pd(alpha);
  // Callers may pass arrays that end at row hi (gnn/layers.cpp passes one
  // row's own spans), so the over-read is bounded there, not at row n.
  const std::size_t end = row_ptr[hi];
  for (std::size_t r = lo; r < hi; ++r) {
    const __m256d fold =
        spmm_row_kp4<KFull>(row_ptr, col_idx, values, x, ldx, km, r, end);
    double* yrow = y + r * ldy;
    if (KFull) {
      _mm256_storeu_pd(yrow,
                       _mm256_fmadd_pd(av, fold, _mm256_loadu_pd(yrow)));
    } else {
      const __m256d upd =
          _mm256_fmadd_pd(av, fold, _mm256_maskload_pd(yrow, km));
      _mm256_maskstore_pd(yrow, km, upd);
    }
  }
}

template <bool KFull>
void spmm_rows_kp8(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                   const double* values, const double* x, std::size_t ldx,
                   double alpha, double* y, std::size_t ldy, __m256i km,
                   std::size_t lo, std::size_t hi) {
  const __m256d av = _mm256_set1_pd(alpha);
  for (std::size_t r = lo; r < hi; ++r) {
    __m256d foldl, foldh;
    spmm_row_kp8<KFull>(row_ptr, col_idx, values, x, ldx, km, r, foldl,
                        foldh);
    double* yrow = y + r * ldy;
    _mm256_storeu_pd(yrow,
                     _mm256_fmadd_pd(av, foldl, _mm256_loadu_pd(yrow)));
    if (KFull) {
      _mm256_storeu_pd(yrow + 4,
                       _mm256_fmadd_pd(av, foldh, _mm256_loadu_pd(yrow + 4)));
    } else {
      const __m256d upd =
          _mm256_fmadd_pd(av, foldh, _mm256_maskload_pd(yrow + 4, km));
      _mm256_maskstore_pd(yrow + 4, km, upd);
    }
  }
}

void spmm_range_avx2(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, std::size_t ldx,
                     double alpha, double* y, std::size_t ldy, std::size_t k,
                     double* acc, std::size_t lo, std::size_t hi) {
  const std::size_t kp = padded_cols(k);
  const std::size_t kmain = k & ~std::size_t{3};
  const std::size_t krem = k - kmain;
  const __m256i ktail = lane_mask(krem);
  if (kp == 4) {
    if (krem == 0)
      spmm_rows_kp4<true>(row_ptr, col_idx, values, x, ldx, alpha, y, ldy,
                          ktail, lo, hi);
    else
      spmm_rows_kp4<false>(row_ptr, col_idx, values, x, ldx, alpha, y, ldy,
                           ktail, lo, hi);
    return;
  }
  if (kp == 8) {
    if (krem == 0)
      spmm_rows_kp8<true>(row_ptr, col_idx, values, x, ldx, alpha, y, ldy,
                          ktail, lo, hi);
    else
      spmm_rows_kp8<false>(row_ptr, col_idx, values, x, ldx, alpha, y, ldy,
                           ktail, lo, hi);
    return;
  }
  const __m256d av = _mm256_set1_pd(alpha);
  for (std::size_t r = lo; r < hi; ++r) {
    spmm_row_acc(row_ptr, col_idx, values, x, ldx, k, acc, r);
    double* yrow = y + r * ldy;
    for (std::size_t j = 0; j < kmain; j += 4)
      _mm256_storeu_pd(yrow + j,
                       _mm256_fmadd_pd(av, spmm_acc_fold(acc, kp, j),
                                       _mm256_loadu_pd(yrow + j)));
    if (krem != 0) {
      const __m256d t =
          _mm256_fmadd_pd(av, spmm_acc_fold(acc, kp, kmain),
                          _mm256_maskload_pd(yrow + kmain, ktail));
      _mm256_maskstore_pd(yrow + kmain, ktail, t);
    }
  }
}

// Fused block-CG column kernels. Mask arrays are zero-padded to 4 lanes, so
// every j-block is processed uniformly: a block whose mask is all on uses
// plain loads and stores, a partial one maskload (suppressed lanes read 0)
// and maskstore (suppressed lanes untouched), an empty one is skipped.
// Reduction lanes of suppressed columns may collect anything; the final
// fold stores only masked columns.

/// One 4-column block of the column mask.
struct ColBlock {
  __m256i m;
  int bits;  ///< movemask: bit l set when lane l is active
};

inline ColBlock col_block(const double* mask) {
  const __m256d mv = _mm256_loadu_pd(mask);
  return {_mm256_castpd_si256(mv), _mm256_movemask_pd(mv)};
}

inline __m256d load_block(const double* p, const ColBlock& c) {
  return c.bits == 0xF ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, c.m);
}

inline void store_block(double* p, __m256d v, const ColBlock& c) {
  if (c.bits == 0xF)
    _mm256_storeu_pd(p, v);
  else
    _mm256_maskstore_pd(p, c.m, v);
}

/// The one 4-column block of a group of k <= 4 columns, its mask read once
/// per call: Full (k == 4, every column active) uses plain loads and stores
/// and the constant row stride 4; otherwise `m` masks them, so suppressed
/// lanes read 0 and are never written.
template <bool Full>
struct Kp4Block {
  __m256i m;
  std::size_t k;
  /// Row stride of a row-major n x k block, a compile-time 4 when Full, so
  /// no address needs a multiply.
  auto ld() const {
    if constexpr (Full)
      return std::integral_constant<std::size_t, 4>{};
    else
      return k;
  }
  std::size_t row(std::size_t i) const { return i * ld(); }
  __m256d load(const double* p) const {
    return Full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, m);
  }
  void store(double* p, __m256d v) const {
    if constexpr (Full)
      _mm256_storeu_pd(p, v);
    else
      _mm256_maskstore_pd(p, m, v);
  }
};

template <bool Tail, typename Row, std::size_t... L>
inline void rows8_block(std::size_t i, std::size_t n, Row& row,
                        std::index_sequence<L...>) {
  ((!Tail || i + L < n
        ? row(i + L, std::integral_constant<std::size_t, L>{})
        : void()),
   ...);
}

/// Calls row(i, lane) for i = 0..n-1 in order, `lane` being i & 7 as a
/// std::integral_constant. Rows are unrolled by 8, so per-lane reduction
/// accumulators that `row` indexes by `lane` stay in registers.
template <typename Row>
inline void for_rows8(std::size_t n, Row&& row) {
  constexpr auto lanes = std::make_index_sequence<8>{};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) rows8_block<false>(i, n, row, lanes);
  rows8_block<true>(i, n, row, lanes);
}

/// Spill 8 register row lanes to lane-major scratch for fold_lanes (kp 4).
inline void store_lanes4(const __m256d (&acc)[8], double* lanes) {
  for (std::size_t l = 0; l < 8; ++l) _mm256_store_pd(lanes + l * 4, acc[l]);
}

/// Run a kp == 4 pass on its block, Full or masked; with no active column
/// there is nothing to do.
template <typename Pass>
inline void with_kp4_block(const double* mask, std::size_t k, Pass&& pass) {
  const ColBlock c = col_block(mask);
  if (c.bits == 0) return;
  if (k == 4 && c.bits == 0xF)
    pass(Kp4Block<true>{c.m, k});
  else
    pass(Kp4Block<false>{c.m, k});
}

/// out[j] = the 8-lane tree over lanes[l * kp + j] (l = 0..7), masked j.
inline void fold_lanes(const double* lanes, std::size_t kp,
                       const double* mask, double* out) {
  for (std::size_t j = 0; j < kp; j += 4) {
    const __m256i m = _mm256_castpd_si256(_mm256_loadu_pd(mask + j));
    const __m256d l0 = _mm256_add_pd(_mm256_load_pd(lanes + j),
                                     _mm256_load_pd(lanes + 4 * kp + j));
    const __m256d l1 = _mm256_add_pd(_mm256_load_pd(lanes + kp + j),
                                     _mm256_load_pd(lanes + 5 * kp + j));
    const __m256d l2 = _mm256_add_pd(_mm256_load_pd(lanes + 2 * kp + j),
                                     _mm256_load_pd(lanes + 6 * kp + j));
    const __m256d l3 = _mm256_add_pd(_mm256_load_pd(lanes + 3 * kp + j),
                                     _mm256_load_pd(lanes + 7 * kp + j));
    const __m256d fold =
        _mm256_add_pd(_mm256_add_pd(l0, l2), _mm256_add_pd(l1, l3));
    _mm256_maskstore_pd(out + j, m, fold);
  }
}

/// P1's tail for one column block of row i: ap = fma(1, fold, +0.0), the
/// shift fma, the store, and the row's reduction lane. A Full block (every
/// lane active) uses plain loads and stores, any other one the mask `m`.
template <bool Sums, bool Full>
inline void cg_apply_block(__m256d fold, const double* pi, double shift,
                           double* api, __m256i m, double* lane) {
  __m256d v =
      _mm256_fmadd_pd(_mm256_set1_pd(1.0), fold, _mm256_setzero_pd());
  const __m256d pv = Full ? _mm256_loadu_pd(pi) : _mm256_maskload_pd(pi, m);
  if (shift != 0.0) v = _mm256_fmadd_pd(_mm256_set1_pd(shift), pv, v);
  if (Full)
    _mm256_storeu_pd(api, v);
  else
    _mm256_maskstore_pd(api, m, v);
  const __m256d acc = _mm256_load_pd(lane);
  _mm256_store_pd(lane, Sums ? _mm256_add_pd(acc, v)
                             : _mm256_fmadd_pd(pv, v, acc));
}

/// P1 rows for kp == 4 and kp == 8: register-resident SpMM (spmm_row_kp4 /
/// spmm_row_kp8). Full means every one of the k == 4 or 8 columns is
/// active; otherwise the activity masks also serve as the gather masks, so
/// retired and pad lanes gather nothing.
template <bool Sums, bool Full>
void cg_apply_kp4(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                  const double* values, const double* p, double shift,
                  double* ap, std::size_t n, const Kp4Block<Full>& c,
                  double* red) {
  const std::size_t end = row_ptr[n];
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d fold =
        spmm_row_kp4<Full>(row_ptr, col_idx, values, p, c.ld(), c.m, i, end);
    cg_apply_block<Sums, Full>(fold, p + c.row(i), shift, ap + c.row(i), c.m,
                               red + (i & 7) * 4);
  }
}

template <bool Sums, bool Full>
void cg_apply_kp8(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                  const double* values, const double* p, double shift,
                  double* ap, std::size_t n, std::size_t k, __m256i m0,
                  __m256i m1, double* red) {
  for (std::size_t i = 0; i < n; ++i) {
    __m256d foldl, foldh;
    spmm_row_kp8<Full>(row_ptr, col_idx, values, p, k, m1, i, foldl, foldh);
    double* lane = red + (i & 7) * 8;
    cg_apply_block<Sums, Full>(foldl, p + i * k, shift, ap + i * k, m0, lane);
    cg_apply_block<Sums, Full>(foldh, p + i * k + 4, shift, ap + i * k + 4,
                               m1, lane + 4);
  }
}

template <bool Sums>
void cg_apply_rows(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                   const double* values, const double* p, double shift,
                   double* ap, std::size_t n, std::size_t k,
                   const double* mask, double* red, double* acc) {
  const std::size_t kp = padded_cols(k);
  if (kp == 4) {
    with_kp4_block(mask, k, [&](const auto& c) {
      cg_apply_kp4<Sums>(row_ptr, col_idx, values, p, shift, ap, n, c, red);
    });
    return;
  }
  if (kp == 8) {
    const ColBlock c0 = col_block(mask), c1 = col_block(mask + 4);
    if (k == 8 && (c0.bits & c1.bits) == 0xF)
      cg_apply_kp8<Sums, true>(row_ptr, col_idx, values, p, shift, ap, n, k,
                               c0.m, c1.m, red);
    else
      cg_apply_kp8<Sums, false>(row_ptr, col_idx, values, p, shift, ap, n, k,
                                c0.m, c1.m, red);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    spmm_row_acc(row_ptr, col_idx, values, p, k, k, acc, i);
    double* lane = red + (i & 7) * kp;
    for (std::size_t j = 0; j < kp; j += 4) {
      const ColBlock c = col_block(mask + j);
      if (c.bits == 0xF)
        cg_apply_block<Sums, true>(spmm_acc_fold(acc, kp, j), p + i * k + j,
                                   shift, ap + i * k + j, c.m, lane + j);
      else if (c.bits != 0)
        cg_apply_block<Sums, false>(spmm_acc_fold(acc, kp, j), p + i * k + j,
                                    shift, ap + i * k + j, c.m, lane + j);
    }
  }
}

void cg_apply_cols_avx2(const std::size_t* row_ptr,
                        const std::uint32_t* col_idx, const double* values,
                        const double* p, double shift, double* ap,
                        std::size_t n, std::size_t k, const double* mask,
                        bool sums, double* out, double* scratch) {
  const std::size_t kp = padded_cols(k);
  double* red = scratch;           // 8 row lanes
  double* acc = scratch + 8 * kp;  // 4 nnz lanes (kp > 8 only)
  for (std::size_t j = 0; j < 8 * kp; j += 4)
    _mm256_store_pd(red + j, _mm256_setzero_pd());
  if (sums)
    cg_apply_rows<true>(row_ptr, col_idx, values, p, shift, ap, n, k, mask,
                        red, acc);
  else
    cg_apply_rows<false>(row_ptr, col_idx, values, p, shift, ap, n, k, mask,
                         red, acc);
  fold_lanes(red, kp, mask, out);
}

/// What P2 does with z = D⁻¹r: nothing (tree preconditioner), r·z into the
/// second reduction without storing z (Jacobi), or store z and sum it
/// (Jacobi, deflated).
enum class StepZ { none, dot, store_sum };

/// P2 rows for k <= 4: ±α and the mask are loaded once per call, and the
/// rᵀr and rᵀz / Σz row lanes stay in registers.
template <StepZ Z, typename Block>
void cg_step_kp4(const double* alpha, const double* p, const double* ap,
                 double* x, double* r, const double* d, double* z,
                 std::size_t n, const Block& c, double* rr_lanes,
                 double* zr_lanes) {
  const __m256d a = _mm256_loadu_pd(alpha);
  const __m256d na = _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  __m256d rr[8] = {}, zr[8] = {};
  for_rows8(n, [&](std::size_t i, auto l) {
    const std::size_t row = c.row(i);
    c.store(x + row, _mm256_fmadd_pd(a, c.load(p + row), c.load(x + row)));
    const __m256d rv = _mm256_fmadd_pd(na, c.load(ap + row), c.load(r + row));
    c.store(r + row, rv);
    rr[l] = _mm256_fmadd_pd(rv, rv, rr[l]);
    if constexpr (Z != StepZ::none) {
      const __m256d zv = _mm256_mul_pd(_mm256_set1_pd(d[i]), rv);
      if constexpr (Z == StepZ::dot) {
        zr[l] = _mm256_fmadd_pd(rv, zv, zr[l]);
      } else {
        c.store(z + row, zv);
        zr[l] = _mm256_add_pd(zr[l], zv);
      }
    }
  });
  store_lanes4(rr, rr_lanes);
  if constexpr (Z != StepZ::none) store_lanes4(zr, zr_lanes);
}

template <StepZ Z>
void cg_step_rows(const double* alpha, const double* p, const double* ap,
                  double* x, double* r, const double* d, double* z,
                  std::size_t n, std::size_t k, const double* mask,
                  double* rr_lanes, double* zr_lanes) {
  const std::size_t kp = padded_cols(k);
  if (kp == 4) {
    with_kp4_block(mask, k, [&](const auto& c) {
      cg_step_kp4<Z>(alpha, p, ap, x, r, d, z, n, c, rr_lanes, zr_lanes);
    });
    return;
  }
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i * k;
    double* l1 = rr_lanes + (i & 7) * kp;
    double* l2 = zr_lanes + (i & 7) * kp;
    const __m256d dv = _mm256_set1_pd(Z == StepZ::none ? 0.0 : d[i]);
    for (std::size_t j = 0; j < kp; j += 4) {
      const ColBlock c = col_block(mask + j);
      if (c.bits == 0) continue;
      const __m256d a = _mm256_loadu_pd(alpha + j);
      store_block(x + row + j,
                  _mm256_fmadd_pd(a, load_block(p + row + j, c),
                                  load_block(x + row + j, c)),
                  c);
      const __m256d rv =
          _mm256_fmadd_pd(_mm256_xor_pd(a, sign), load_block(ap + row + j, c),
                          load_block(r + row + j, c));
      store_block(r + row + j, rv, c);
      _mm256_store_pd(l1 + j,
                      _mm256_fmadd_pd(rv, rv, _mm256_load_pd(l1 + j)));
      if (Z == StepZ::none) continue;
      const __m256d zv = _mm256_mul_pd(dv, rv);
      if (Z == StepZ::dot) {
        _mm256_store_pd(l2 + j,
                        _mm256_fmadd_pd(rv, zv, _mm256_load_pd(l2 + j)));
      } else {
        store_block(z + row + j, zv, c);
        _mm256_store_pd(l2 + j, _mm256_add_pd(_mm256_load_pd(l2 + j), zv));
      }
    }
  }
}

void cg_step_cols_avx2(const double* alpha, const double* p, const double* ap,
                       double* x, double* r, const double* d, double* z,
                       std::size_t n, std::size_t k, const double* mask,
                       double* rr, double* zr, double* scratch) {
  const std::size_t kp = padded_cols(k);
  double* rr_lanes = scratch;
  double* zr_lanes = scratch + 8 * kp;
  for (std::size_t j = 0; j < 16 * kp; j += 4)
    _mm256_store_pd(scratch + j, _mm256_setzero_pd());
  if (d == nullptr)
    cg_step_rows<StepZ::none>(alpha, p, ap, x, r, d, z, n, k, mask, rr_lanes,
                              zr_lanes);
  else if (z == nullptr)
    cg_step_rows<StepZ::dot>(alpha, p, ap, x, r, d, z, n, k, mask, rr_lanes,
                             zr_lanes);
  else
    cg_step_rows<StepZ::store_sum>(alpha, p, ap, x, r, d, z, n, k, mask,
                                   rr_lanes, zr_lanes);
  fold_lanes(rr_lanes, kp, mask, rr);
  if (d != nullptr) fold_lanes(zr_lanes, kp, mask, zr);
}

void center_dot_cols_avx2(const double* m, double* a, const double* b,
                          std::size_t n, std::size_t k, const double* mask,
                          double* out, double* scratch) {
  const std::size_t kp = padded_cols(k);
  for (std::size_t j = 0; j < 8 * kp; j += 4)
    _mm256_store_pd(scratch + j, _mm256_setzero_pd());
  if (kp == 4) {
    // The means and the mask are loaded once, the row lanes stay in
    // registers.
    with_kp4_block(mask, k, [&](const auto& c) {
      const __m256d mv = _mm256_loadu_pd(m);
      __m256d acc[8] = {};
      for_rows8(n, [&](std::size_t i, auto l) {
        const std::size_t row = c.row(i);
        const __m256d av = _mm256_sub_pd(c.load(a + row), mv);
        c.store(a + row, av);
        acc[l] = _mm256_fmadd_pd(c.load(b + row), av, acc[l]);
      });
      store_lanes4(acc, scratch);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      double* ar = a + i * k;
      const double* br = b + i * k;
      double* lane = scratch + (i & 7) * kp;
      for (std::size_t j = 0; j < kp; j += 4) {
        const ColBlock c = col_block(mask + j);
        if (c.bits == 0) continue;
        const __m256d av =
            _mm256_sub_pd(load_block(ar + j, c), _mm256_loadu_pd(m + j));
        store_block(ar + j, av, c);
        _mm256_store_pd(lane + j, _mm256_fmadd_pd(load_block(br + j, c), av,
                                                  _mm256_load_pd(lane + j)));
      }
    }
  }
  fold_lanes(scratch, kp, mask, out);
}

/// P3 rows for k <= 4: β and the mask are loaded once per call.
template <bool Jacobi, typename Block>
void xpby_kp4(const double* beta, const double* d, const double* src,
              double* p, std::size_t n, const Block& c) {
  const __m256d bv = _mm256_loadu_pd(beta);
  for_rows8(n, [&](std::size_t i, auto) {
    const std::size_t row = c.row(i);
    const __m256d sv = c.load(src + row);
    const __m256d zv = Jacobi ? _mm256_mul_pd(_mm256_set1_pd(d[i]), sv) : sv;
    c.store(p + row, _mm256_fmadd_pd(bv, c.load(p + row), zv));
  });
}

template <bool Jacobi>
void xpby_rows(const double* beta, const double* d, const double* src,
               double* p, std::size_t n, std::size_t k, const double* mask) {
  const std::size_t kp = padded_cols(k);
  if (kp == 4) {
    with_kp4_block(mask, k, [&](const auto& c) {
      xpby_kp4<Jacobi>(beta, d, src, p, n, c);
    });
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* sr = src + i * k;
    double* pr = p + i * k;
    const __m256d dv = _mm256_set1_pd(Jacobi ? d[i] : 0.0);
    for (std::size_t j = 0; j < kp; j += 4) {
      const ColBlock c = col_block(mask + j);
      if (c.bits == 0) continue;
      const __m256d sv = load_block(sr + j, c);
      const __m256d zv = Jacobi ? _mm256_mul_pd(dv, sv) : sv;
      store_block(pr + j,
                  _mm256_fmadd_pd(_mm256_loadu_pd(beta + j),
                                  load_block(pr + j, c), zv),
                  c);
    }
  }
}

void xpby_cols_avx2(const double* beta, const double* d, const double* src,
                    double* p, std::size_t n, std::size_t k,
                    const double* mask) {
  if (d != nullptr)
    xpby_rows<true>(beta, d, src, p, n, k, mask);
  else
    xpby_rows<false>(beta, d, src, p, n, k, mask);
}

}  // namespace

const KernelTable* avx2_kernel_table() {
  static const KernelTable t{
      "avx2",
      dot_avx2,
      dot_self_avx2,
      sum_avx2,
      distance2_avx2,
      leaf_distance2_avx2,
      axpy_avx2,
      scale_avx2,
      sub_scalar_avx2,
      spmv_range_avx2,
      spmm_range_avx2,
      cg_apply_cols_avx2,
      cg_step_cols_avx2,
      center_dot_cols_avx2,
      xpby_cols_avx2,
  };
  return &t;
}

}  // namespace cirstag::kernels

#else  // !(__AVX2__ && __FMA__)

namespace cirstag::kernels {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace cirstag::kernels

#endif
