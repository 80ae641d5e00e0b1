// Scalar-vs-SIMD parity corpus for the kernel layer, plus end-to-end
// byte-identity of analyze() and SweepEngine across kernel tables and thread
// counts.
//
// The kernel layer promises bit-identical results from the scalar and AVX2
// tables (kernels.hpp "Bit-identity contract"). These tests enforce the
// promise kernel by kernel over randomized sizes — including every remainder
// lane count a 4/8-wide vector loop can see — and with NaN/Inf inputs, whose
// payloads must propagate identically through both paths. Comparisons are on
// bit patterns, not values, so NaN == NaN and -0.0 != +0.0.

#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "runtime/thread_pool.hpp"
#include "util/arena.hpp"

namespace {

using namespace cirstag;
using kernels::KernelTable;

// NaN results are compared as "is NaN", not payload-for-payload: x86 addition
// propagates the NaN of its *first* source operand, and the compiler is free
// to commute scalar adds (FP + is commutative except for NaN sign/payload),
// so pinning payloads would test register allocation, not the kernels.
// Everything else — finite values, +/-inf, signed zeros — must match bitwise.
std::uint64_t bits(double x) {
  if (std::isnan(x)) return std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::quiet_NaN());
  return std::bit_cast<std::uint64_t>(x);
}

void expect_same_bits(double a, double b, const char* what, std::size_t n) {
  ASSERT_EQ(bits(a), bits(b)) << what << " n=" << n << " (" << a << " vs " << b
                              << ")";
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what,
                      std::size_t n) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << " n=" << n << " diverges at " << i;
}

/// Every vector-loop remainder: 0..17 covers all (n & 7), the rest probe the
/// unrolled main loop plus each tail, and the large sizes mix both.
const std::vector<std::size_t>& parity_sizes() {
  static const std::vector<std::size_t> sizes = [] {
    std::vector<std::size_t> s;
    for (std::size_t n = 0; n <= 17; ++n) s.push_back(n);
    for (std::size_t n = 31; n <= 33; ++n) s.push_back(n);
    for (std::size_t n = 63; n <= 65; ++n) s.push_back(n);
    for (std::size_t r = 0; r < 8; ++r) s.push_back(1000 + r);
    return s;
  }();
  return sizes;
}

std::vector<double> random_vec(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Sprinkle non-finite values over ~1/8 of the entries, covering quiet NaN,
/// +/-inf, and signed zero (the blend-vs-multiply tail distinction).
void poison(std::mt19937_64& rng, std::vector<double>& v) {
  static const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.0};
  std::uniform_int_distribution<std::size_t> which(0, 3);
  for (std::size_t i = 0; i < v.size(); ++i)
    if ((rng() & 7) == 0) v[i] = specials[which(rng)];
}

class KernelParityTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!kernels::avx2_available())
      GTEST_SKIP() << "AVX2 unavailable; nothing to compare";
    sc_ = &kernels::scalar_kernel_table();
    vec_ = kernels::avx2_kernel_table();
    ASSERT_NE(vec_, nullptr);
    rng_.seed(GetParam() ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull);
  }

  /// Second pass poisons inputs with NaN/Inf/-0.0.
  bool poisoned() const { return GetParam(); }

  std::vector<double> make(std::size_t n) {
    auto v = random_vec(rng_, n);
    if (poisoned()) poison(rng_, v);
    return v;
  }

  const KernelTable* sc_ = nullptr;
  const KernelTable* vec_ = nullptr;
  std::mt19937_64 rng_;
};

TEST_P(KernelParityTest, Reductions) {
  for (std::size_t n : parity_sizes()) {
    const auto a = make(n);
    const auto b = make(n);
    expect_same_bits(sc_->dot(a.data(), b.data(), n),
                     vec_->dot(a.data(), b.data(), n), "dot", n);
    expect_same_bits(sc_->dot_self(a.data(), n), vec_->dot_self(a.data(), n),
                     "dot_self", n);
    expect_same_bits(sc_->sum(a.data(), n), vec_->sum(a.data(), n), "sum", n);
    expect_same_bits(sc_->distance2(a.data(), b.data(), n),
                     vec_->distance2(a.data(), b.data(), n), "distance2", n);
  }
}

// Every output lane of a KD-tree leaf scan is distance2 on its own point, in
// both tables, for full and partially filled 4-point groups; nothing past
// the m outputs is written.
TEST_P(KernelParityTest, LeafDistance2MatchesDistance2PerLane) {
  constexpr double kGuard = 12345.0;
  for (const std::size_t d : {1, 3, 4, 8, 27}) {
    for (std::size_t m = 1; m <= 25; ++m) {
      const std::size_t groups = (m + 3) / 4;
      std::vector<std::vector<double>> points;
      for (std::size_t i = 0; i < groups * 4; ++i) points.push_back(make(d));
      std::vector<double> block(groups * 4 * d);
      for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t a = 0; a < d; ++a)
          block[((i / 4) * d + a) * 4 + (i % 4)] = points[i][a];
      const auto q = make(d);
      for (const KernelTable* t : {sc_, vec_}) {
        std::vector<double> out(groups * 4 + 1, kGuard);
        t->leaf_distance2(block.data(), q.data(), d, m, out.data());
        for (std::size_t i = 0; i < m; ++i) {
          const double* p = points[i].data();
          expect_same_bits(out[i], t->distance2(p, q.data(), d), t->isa,
                           d * 100 + m);
          expect_same_bits(out[i], sc_->distance2(p, q.data(), d), t->isa,
                           d * 100 + m);
        }
        for (std::size_t i = m; i < out.size(); ++i)
          ASSERT_EQ(out[i], kGuard) << t->isa << " wrote lane " << i
                                    << " of m=" << m;
      }
    }
  }
}

TEST_P(KernelParityTest, Elementwise) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t n : parity_sizes()) {
    const auto x = make(n);
    const auto y0 = make(n);
    const double alpha = coeff(rng_);

    auto ys = y0, yv = y0;
    sc_->axpy(alpha, x.data(), ys.data(), n);
    vec_->axpy(alpha, x.data(), yv.data(), n);
    expect_same_bits(ys, yv, "axpy", n);

    ys = y0, yv = y0;
    sc_->scale(alpha, ys.data(), n);
    vec_->scale(alpha, yv.data(), n);
    expect_same_bits(ys, yv, "scale", n);

    ys = y0, yv = y0;
    sc_->sub_scalar(alpha, ys.data(), n);
    vec_->sub_scalar(alpha, yv.data(), n);
    expect_same_bits(ys, yv, "sub_scalar", n);
  }
}

/// Random ragged CSR: rows*cols matrix with per-row nnz drawn 0..11 so every
/// (nnz & 3) remainder shows up, including empty rows.
struct RaggedCsr {
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  std::size_t rows = 0, cols = 0;
};

RaggedCsr random_csr(std::mt19937_64& rng, std::size_t rows, std::size_t cols,
                     bool poisoned) {
  RaggedCsr m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(rows + 1, 0);
  std::uniform_int_distribution<std::size_t> nnz_dist(0, 11);
  std::uniform_int_distribution<std::uint32_t> col_dist(
      0, static_cast<std::uint32_t>(cols - 1));
  std::uniform_real_distribution<double> val_dist(-1.0, 1.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t nnz = nnz_dist(rng);
    for (std::size_t t = 0; t < nnz; ++t) {
      m.col_idx.push_back(col_dist(rng));
      m.values.push_back(val_dist(rng));
    }
    m.row_ptr[r + 1] = m.col_idx.size();
  }
  if (poisoned) poison(rng, m.values);
  return m;
}

TEST_P(KernelParityTest, SpmvRange) {
  for (std::size_t rows : {1u, 7u, 64u, 257u}) {
    const auto m = random_csr(rng_, rows, rows + 3, poisoned());
    const auto x = make(m.cols);
    const auto y0 = make(rows);
    for (double alpha : {1.0, -0.75}) {
      auto ys = y0, yv = y0;
      sc_->spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                      x.data(), alpha, ys.data(), 0, rows);
      vec_->spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                       x.data(), alpha, yv.data(), 0, rows);
      expect_same_bits(ys, yv, "spmv_range", rows);
      // Partial row ranges hit the same code with offset bounds.
      ys = y0, yv = y0;
      const std::size_t lo = rows / 3, hi = rows - rows / 4;
      sc_->spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                      x.data(), alpha, ys.data(), lo, hi);
      vec_->spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                       x.data(), alpha, yv.data(), lo, hi);
      expect_same_bits(ys, yv, "spmv_range partial", rows);
    }
  }
}

TEST_P(KernelParityTest, SpmmRangeMatchesScalarAndPerColumnSpmv) {
  for (std::size_t k : {1u, 3u, 4u, 5u, 8u, 9u}) {
    const std::size_t rows = 97;
    const auto m = random_csr(rng_, rows, rows, poisoned());
    const auto x = make(rows * k);   // row-major rows x k
    const auto y0 = make(rows * k);
    const std::size_t kp = kernels::padded_cols(k);
    // The AVX2 spmm streams its accumulator scratch with aligned loads; the
    // arena hands out 64-byte-aligned blocks, matching what callers do.
    util::ArenaFrame frame;
    std::span<double> acc = frame.alloc_zero<double>(4 * kp);

    auto ys = y0, yv = y0;
    sc_->spmm_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                    x.data(), k, 0.5, ys.data(), k, k, acc.data(), 0, rows);
    vec_->spmm_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                     x.data(), k, 0.5, yv.data(), k, k, acc.data(), 0, rows);
    expect_same_bits(ys, yv, "spmm_range", k);

    // Contract: column j of spmm is bit-identical to spmv on X.col(j).
    std::vector<double> xj(rows), yj(rows);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < rows; ++i) {
        xj[i] = x[i * k + j];
        yj[i] = y0[i * k + j];
      }
      sc_->spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                      xj.data(), 0.5, yj.data(), 0, rows);
      for (std::size_t i = 0; i < rows; ++i)
        ASSERT_EQ(bits(ys[i * k + j]), bits(yj[i]))
            << "spmm col " << j << " row " << i << " != spmv";
    }
  }
}

// ---- Fused block-CG column kernels ---------------------------------------
//
// Each case runs k = 1..9 (one and two 4-column blocks, every tail width,
// and the wide path past 8) at every row count 1..16 (each (n & 7) lane
// remainder) plus 131, under a random column mask. Beyond scalar == AVX2,
// every active column must equal the single-vector kernels on that column
// alone — the block-CG bit-identity contract — and every masked column and
// output lane must keep its sentinel bits.

std::vector<std::size_t> fused_row_counts() {
  std::vector<std::size_t> rows;
  for (std::size_t n = 1; n <= 16; ++n) rows.push_back(n);
  rows.push_back(131);
  return rows;
}

/// Column mask over k columns, padded lanes off: random, but column 0 is
/// active and, when k > 1, column k/2 is retired.
std::vector<double> random_mask(std::mt19937_64& rng, std::size_t k) {
  std::vector<double> mask(kernels::padded_cols(k), kernels::kMaskOff);
  for (std::size_t j = 0; j < k; ++j)
    mask[j] = (rng() & 1) != 0 ? kernels::kMaskOn : kernels::kMaskOff;
  if (k > 1) mask[k / 2] = kernels::kMaskOff;
  mask[0] = kernels::kMaskOn;
  return mask;
}

/// The masks each column-kernel case runs under: a random one with a
/// retired column, and every column active — the path every group solve
/// takes (k = 4 and k = 8 use plain loads and stores there).
std::vector<std::vector<double>> test_masks(std::mt19937_64& rng,
                                            std::size_t k) {
  std::vector<double> all(kernels::padded_cols(k), kernels::kMaskOff);
  std::fill(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
            kernels::kMaskOn);
  return {random_mask(rng, k), all};
}

std::vector<double> column_of(const std::vector<double>& a, std::size_t n,
                              std::size_t k, std::size_t j) {
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i * k + j];
  return c;
}

/// Active columns of `got` equal `want` column for column (checked by the
/// caller); retired ones still hold `before`'s bits.
void expect_masked_untouched(const std::vector<double>& got,
                             const std::vector<double>& before,
                             const std::vector<double>& mask, std::size_t n,
                             std::size_t k, const char* what) {
  for (std::size_t j = 0; j < k; ++j) {
    if (kernels::mask_on(mask[j])) continue;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i * k + j]),
                std::bit_cast<std::uint64_t>(before[i * k + j]))
          << what << " touched retired column " << j << " row " << i;
  }
}

void expect_column(const std::vector<double>& block, std::size_t n,
                   std::size_t k, std::size_t j,
                   const std::vector<double>& want, const char* what) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(block[i * k + j]), bits(want[i]))
        << what << " k=" << k << " n=" << n << " col " << j << " row " << i;
}

constexpr double kSentinel = -123.456;

TEST_P(KernelParityTest, CgApplyCols) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t kp = kernels::padded_cols(k);
    for (std::size_t n : fused_row_counts()) {
      const auto m = random_csr(rng_, n, n, poisoned());
      const auto p = make(n * k);
      const auto ap0 = make(n * k);
      for (const auto& mask : test_masks(rng_, k)) {
        util::ArenaFrame frame;
        std::span<double> scratch =
            frame.alloc_zero<double>(kernels::kCgScratchPerCol * kp);
        for (double shift : {0.0, coeff(rng_)}) {
          for (bool sums : {false, true}) {
            auto aps = ap0, apv = ap0;
            std::vector<double> outs(kp, kSentinel), outv(kp, kSentinel);
            sc_->cg_apply_cols(m.row_ptr.data(), m.col_idx.data(),
                               m.values.data(), p.data(), shift, aps.data(), n,
                               k, mask.data(), sums, outs.data(),
                               scratch.data());
            vec_->cg_apply_cols(m.row_ptr.data(), m.col_idx.data(),
                                m.values.data(), p.data(), shift, apv.data(), n,
                                k, mask.data(), sums, outv.data(),
                                scratch.data());
            expect_same_bits(aps, apv, "cg_apply_cols ap", k);
            expect_same_bits(outs, outv, "cg_apply_cols out", k);
            expect_masked_untouched(aps, ap0, mask, n, k, "cg_apply_cols");
            for (std::size_t j = 0; j < kp; ++j) {
              if (!kernels::mask_on(mask[j])) {
                ASSERT_EQ(bits(outs[j]), bits(kSentinel)) << "out lane " << j;
                continue;
              }
              // Column j alone: spmv into zeros, the shift axpy, then dot/sum.
              const auto pj = column_of(p, n, k, j);
              std::vector<double> want(n, 0.0);
              sc_->spmv_range(m.row_ptr.data(), m.col_idx.data(),
                              m.values.data(), pj.data(), 1.0, want.data(), 0,
                              n);
              if (shift != 0.0) sc_->axpy(shift, pj.data(), want.data(), n);
              expect_column(aps, n, k, j, want, "cg_apply_cols ap");
              expect_same_bits(outs[j],
                               sums ? sc_->sum(want.data(), n)
                                    : sc_->dot(pj.data(), want.data(), n),
                               "cg_apply_cols out vs dot/sum", n);
            }
          }
        }
      }
    }
  }
}

// ---- P1's blended row tail -----------------------------------------------
//
// For k <= 4 the AVX2 row dot reads the three entries after a row's last
// full group of 4 whether or not the row owns them, and blends away the
// lanes it does not own; only rows ending at least 3 entries before the CSR
// arrays end take that path. The cases below pin every tail length, rows
// next to the end, empty rows and tiny matrices, and an over-read that
// reaches NaN and Inf. Their arrays are exactly nnz long, so a read past
// them shows under AddressSanitizer.

/// CSR with the given row lengths, random columns and values.
RaggedCsr csr_with_lengths(std::mt19937_64& rng,
                           const std::vector<std::size_t>& lengths,
                           std::size_t cols) {
  RaggedCsr m;
  m.rows = lengths.size();
  m.cols = cols;
  m.row_ptr.assign(m.rows + 1, 0);
  for (std::size_t r = 0; r < m.rows; ++r)
    m.row_ptr[r + 1] = m.row_ptr[r] + lengths[r];
  std::uniform_int_distribution<std::uint32_t> col_dist(
      0, static_cast<std::uint32_t>(cols - 1));
  std::uniform_real_distribution<double> val_dist(-1.0, 1.0);
  m.col_idx = std::vector<std::uint32_t>(m.row_ptr.back());
  m.values = std::vector<double>(m.row_ptr.back());
  for (std::size_t t = 0; t < m.col_idx.size(); ++t) {
    m.col_idx[t] = col_dist(rng);
    m.values[t] = val_dist(rng);
  }
  return m;
}

/// P1 on `m` with p given, k = 1..4 under both masks, shift 0 and not, pᵀap
/// and Σap: the AVX2 table equals the scalar one bit for bit, and each
/// active column equals spmv on that column alone.
void expect_cg_apply_parity(const KernelTable& sc, const KernelTable& vec,
                            std::mt19937_64& rng, const RaggedCsr& m,
                            const std::vector<double>& p, std::size_t k,
                            const char* what) {
  const std::size_t n = m.rows, kp = kernels::padded_cols(k);
  util::ArenaFrame frame;
  std::span<double> scratch =
      frame.alloc_zero<double>(kernels::kCgScratchPerCol * kp);
  for (const auto& mask : test_masks(rng, k)) {
    for (double shift : {0.0, -0.75}) {
      for (bool sums : {false, true}) {
        std::vector<double> aps(n * k, kSentinel), apv(n * k, kSentinel);
        std::vector<double> outs(kp, kSentinel), outv(kp, kSentinel);
        sc.cg_apply_cols(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                         p.data(), shift, aps.data(), n, k, mask.data(), sums,
                         outs.data(), scratch.data());
        vec.cg_apply_cols(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                          p.data(), shift, apv.data(), n, k, mask.data(), sums,
                          outv.data(), scratch.data());
        expect_same_bits(aps, apv, what, k);
        expect_same_bits(outs, outv, what, k);
        for (std::size_t j = 0; j < k; ++j) {
          if (!kernels::mask_on(mask[j])) continue;
          const auto pj = column_of(p, n, k, j);
          std::vector<double> want(n, 0.0);
          sc.spmv_range(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                        pj.data(), 1.0, want.data(), 0, n);
          if (shift != 0.0) sc.axpy(shift, pj.data(), want.data(), n);
          expect_column(apv, n, k, j, want, what);
        }
      }
    }
  }
}

TEST_P(KernelParityTest, CgApplyColsBlendedTailEveryShape) {
  // Every tail length 0–3 after 0, 1 and 2 full groups, in and out of the
  // last three entries; empty rows, also last; fewer than 3 entries.
  std::vector<std::size_t> every_tail;
  for (std::size_t len = 0; len < 12; ++len) every_tail.push_back(len);
  for (std::size_t len = 12; len-- > 0;) every_tail.push_back(len);
  const std::vector<std::vector<std::size_t>> shapes = {
      every_tail,
      {5, 0, 3, 0, 0, 0},
      {0, 0, 0, 4},
      {2, 0, 0},
      {3, 1},
      {4, 3, 2, 1, 0},
      {1, 0, 1},
      {2},
      {0},
      {0, 1},
  };
  for (const auto& lengths : shapes) {
    for (std::size_t k = 1; k <= 4; ++k) {
      const std::size_t n = lengths.size();
      const auto m = csr_with_lengths(rng_, lengths, n);
      const auto p = make(n * k);
      expect_cg_apply_parity(*sc_, *vec_, rng_, m, p, k,
                             "cg_apply_cols blended tail");
    }
  }
}

TEST_P(KernelParityTest, CgApplyColsOverReadNeverLeaks) {
  // Row 0 owns one entry; its over-read covers row 1's three entries,
  // which point at rows of p holding NaN, +Inf and -Inf with values 0, NaN
  // and Inf. Row 0 never reads those rows, so its ap stays finite.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::size_t> lengths = {1, 3, 1, 1, 1, 1, 1, 1};
  const std::size_t n = lengths.size();
  RaggedCsr m = csr_with_lengths(rng_, lengths, n);
  m.col_idx[0] = 0;
  m.values[0] = 0.5;
  const std::uint32_t poisoned_rows[3] = {5, 6, 7};
  const double over_read_values[3] = {0.0, nan, inf};
  for (std::size_t t = 0; t < 3; ++t) {
    m.col_idx[1 + t] = poisoned_rows[t];
    m.values[1 + t] = over_read_values[t];
  }
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<double> p = random_vec(rng_, n * k);
    for (std::size_t j = 0; j < k; ++j) {
      p[5 * k + j] = nan;
      p[6 * k + j] = inf;
      p[7 * k + j] = -inf;
    }
    expect_cg_apply_parity(*sc_, *vec_, rng_, m, p, k,
                           "cg_apply_cols over-read");
    util::ArenaFrame frame;
    std::span<double> scratch = frame.alloc_zero<double>(
        kernels::kCgScratchPerCol * kernels::padded_cols(k));
    for (const auto& mask : test_masks(rng_, k)) {
      std::vector<double> ap(n * k, 0.0), out(kernels::padded_cols(k));
      vec_->cg_apply_cols(m.row_ptr.data(), m.col_idx.data(),
                          m.values.data(), p.data(), 1e-4, ap.data(), n, k,
                          mask.data(), false, out.data(), scratch.data());
      for (std::size_t j = 0; j < k; ++j) {
        if (!kernels::mask_on(mask[j])) continue;
        ASSERT_TRUE(std::isfinite(ap[j])) << "k=" << k << " col " << j;
      }
    }
  }
}

TEST_P(KernelParityTest, SpmmRangeOverReadStopsAtHi) {
  // spmm_range's callers may pass arrays that end at row hi: a row chunk's
  // prefix of the CSR, or one row's own spans (the GNN recompute). Both are
  // copied here into arrays exactly row_ptr[hi] long.
  for (std::size_t k = 1; k <= 4; ++k) {
    const std::size_t rows = 23;
    const auto full = random_csr(rng_, rows, rows, poisoned());
    const auto x = make(rows * k);
    util::ArenaFrame frame;
    std::span<double> acc =
        frame.alloc_zero<double>(4 * kernels::padded_cols(k));
    for (std::size_t hi = 1; hi <= rows; hi += 3) {
      const std::size_t lo = hi / 2;
      const auto nnz = static_cast<std::ptrdiff_t>(full.row_ptr[hi]);
      const std::vector<std::uint32_t> cols(full.col_idx.begin(),
                                            full.col_idx.begin() + nnz);
      const std::vector<double> vals(full.values.begin(),
                                     full.values.begin() + nnz);
      const auto y0 = make(rows * k);
      auto ys = y0, yv = y0;
      sc_->spmm_range(full.row_ptr.data(), cols.data(), vals.data(), x.data(),
                      k, 0.5, ys.data(), k, k, acc.data(), lo, hi);
      vec_->spmm_range(full.row_ptr.data(), cols.data(), vals.data(),
                       x.data(), k, 0.5, yv.data(), k, k, acc.data(), lo, hi);
      expect_same_bits(ys, yv, "spmm_range chunk", hi);
    }
    for (std::size_t len = 0; len <= 5; ++len) {
      const auto one = csr_with_lengths(rng_, {len}, rows);
      const std::size_t row_ptr[2] = {0, len};
      std::vector<double> ys(k, 0.0), yv(k, 0.0);
      sc_->spmm_range(row_ptr, one.col_idx.data(), one.values.data(),
                      x.data(), k, 1.0, ys.data(), k, k, acc.data(), 0, 1);
      vec_->spmm_range(row_ptr, one.col_idx.data(), one.values.data(),
                       x.data(), k, 1.0, yv.data(), k, k, acc.data(), 0, 1);
      expect_same_bits(ys, yv, "spmm_range one row", len);
    }
  }
}

TEST_P(KernelParityTest, CgStepCols) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t kp = kernels::padded_cols(k);
    for (std::size_t n : fused_row_counts()) {
      const auto p = make(n * k), ap = make(n * k);
      const auto x0 = make(n * k), r0 = make(n * k), z0 = make(n * k);
      const auto d = make(n);
      for (const auto& mask : test_masks(rng_, k)) {
        std::vector<double> alpha(kp, 0.0);
        for (std::size_t j = 0; j < k; ++j) alpha[j] = coeff(rng_);
        util::ArenaFrame frame;
        std::span<double> scratch =
            frame.alloc_zero<double>(kernels::kCgScratchPerCol * kp);
        // Tree (no z), Jacobi (r·z, z not stored), Jacobi deflated (z, Σz).
        for (int mode = 0; mode < 3; ++mode) {
          const double* dp = mode == 0 ? nullptr : d.data();
          auto xs = x0, xv = x0, rs = r0, rv = r0, zs = z0, zv = z0;
          std::vector<double> rrs(kp, kSentinel), rrv(kp, kSentinel);
          std::vector<double> zrs(kp, kSentinel), zrv(kp, kSentinel);
          sc_->cg_step_cols(alpha.data(), p.data(), ap.data(), xs.data(),
                            rs.data(), dp, mode == 2 ? zs.data() : nullptr, n,
                            k, mask.data(), rrs.data(), zrs.data(),
                            scratch.data());
          vec_->cg_step_cols(alpha.data(), p.data(), ap.data(), xv.data(),
                             rv.data(), dp, mode == 2 ? zv.data() : nullptr, n,
                             k, mask.data(), rrv.data(), zrv.data(),
                             scratch.data());
          expect_same_bits(xs, xv, "cg_step_cols x", k);
          expect_same_bits(rs, rv, "cg_step_cols r", k);
          expect_same_bits(zs, zv, "cg_step_cols z", k);
          expect_same_bits(rrs, rrv, "cg_step_cols rr", k);
          expect_same_bits(zrs, zrv, "cg_step_cols zr", k);
          expect_masked_untouched(xs, x0, mask, n, k, "cg_step_cols x");
          expect_masked_untouched(rs, r0, mask, n, k, "cg_step_cols r");
          expect_masked_untouched(zs, z0, mask, n, k, "cg_step_cols z");
          for (std::size_t j = 0; j < kp; ++j) {
            if (!kernels::mask_on(mask[j])) {
              ASSERT_EQ(bits(rrs[j]), bits(kSentinel)) << "rr lane " << j;
              ASSERT_EQ(bits(zrs[j]), bits(kSentinel)) << "zr lane " << j;
              continue;
            }
            auto xj = column_of(x0, n, k, j), rj = column_of(r0, n, k, j);
            const auto pj = column_of(p, n, k, j), apj = column_of(ap, n, k, j);
            sc_->axpy(alpha[j], pj.data(), xj.data(), n);
            sc_->axpy(-alpha[j], apj.data(), rj.data(), n);
            expect_column(xs, n, k, j, xj, "cg_step_cols x");
            expect_column(rs, n, k, j, rj, "cg_step_cols r");
            expect_same_bits(rrs[j], sc_->dot_self(rj.data(), n),
                             "cg_step_cols rr vs dot_self", n);
            if (mode == 0) {
              ASSERT_EQ(bits(zrs[j]), bits(kSentinel)) << "zr lane " << j;
              continue;
            }
            std::vector<double> zj(n);
            for (std::size_t i = 0; i < n; ++i) zj[i] = d[i] * rj[i];
            if (mode == 1) {
              expect_same_bits(zrs[j], sc_->dot(rj.data(), zj.data(), n),
                               "cg_step_cols zr vs dot", n);
            } else {
              expect_column(zs, n, k, j, zj, "cg_step_cols z");
              expect_same_bits(zrs[j], sc_->sum(zj.data(), n),
                               "cg_step_cols zr vs sum", n);
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelParityTest, CenterDotCols) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t kp = kernels::padded_cols(k);
    for (std::size_t n : fused_row_counts()) {
      const auto a0 = make(n * k), b = make(n * k);
      for (const auto& mask : test_masks(rng_, k)) {
        std::vector<double> mean(kp, 0.0);
        for (std::size_t j = 0; j < k; ++j) mean[j] = coeff(rng_);
        util::ArenaFrame frame;
        std::span<double> scratch =
            frame.alloc_zero<double>(kernels::kCgScratchPerCol * kp);
        auto as = a0, av = a0;
        std::vector<double> outs(kp, kSentinel), outv(kp, kSentinel);
        sc_->center_dot_cols(mean.data(), as.data(), b.data(), n, k,
                             mask.data(), outs.data(), scratch.data());
        vec_->center_dot_cols(mean.data(), av.data(), b.data(), n, k,
                              mask.data(), outv.data(), scratch.data());
        expect_same_bits(as, av, "center_dot_cols a", k);
        expect_same_bits(outs, outv, "center_dot_cols out", k);
        expect_masked_untouched(as, a0, mask, n, k, "center_dot_cols");
        for (std::size_t j = 0; j < kp; ++j) {
          if (!kernels::mask_on(mask[j])) {
            ASSERT_EQ(bits(outs[j]), bits(kSentinel)) << "out lane " << j;
            continue;
          }
          auto aj = column_of(a0, n, k, j);
          const auto bj = column_of(b, n, k, j);
          sc_->sub_scalar(mean[j], aj.data(), n);
          expect_column(as, n, k, j, aj, "center_dot_cols a");
          expect_same_bits(outs[j], sc_->dot(bj.data(), aj.data(), n),
                           "center_dot_cols out vs dot", n);
        }
      }
    }
  }
}

TEST_P(KernelParityTest, XpbyCols) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t kp = kernels::padded_cols(k);
    for (std::size_t n : fused_row_counts()) {
      const auto p0 = make(n * k), src = make(n * k), d = make(n);
      for (const auto& mask : test_masks(rng_, k)) {
        std::vector<double> beta(kp, 0.0);
        for (std::size_t j = 0; j < k; ++j) beta[j] = coeff(rng_);
        for (const double* dp : {static_cast<const double*>(nullptr),
                                 d.data()}) {
          auto ps = p0, pv = p0;
          sc_->xpby_cols(beta.data(), dp, src.data(), ps.data(), n, k,
                         mask.data());
          vec_->xpby_cols(beta.data(), dp, src.data(), pv.data(), n, k,
                          mask.data());
          expect_same_bits(ps, pv, "xpby_cols", k);
          expect_masked_untouched(ps, p0, mask, n, k, "xpby_cols");
          for (std::size_t j = 0; j < k; ++j) {
            if (!kernels::mask_on(mask[j])) continue;
            std::vector<double> want(n);
            for (std::size_t i = 0; i < n; ++i) {
              const double z = dp != nullptr ? d[i] * src[i * k + j]
                                             : src[i * k + j];
              want[i] = std::fma(beta[j], p0[i * k + j], z);
            }
            expect_column(ps, n, k, j, want, "xpby_cols");
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiniteAndPoisoned, KernelParityTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NanInfInputs" : "FiniteInputs";
                         });

// ---- End-to-end byte-identity across kernel tables and thread counts -----

using core::CirStag;
using core::CirStagConfig;
using core::CirStagReport;
using core::SweepEngine;
using core::SweepOptions;
using core::SweepVariant;

CirStagConfig fast_config() {
  CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.offtree_keep_fraction = 0.3;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  return cfg;
}

void expect_same_vector(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " diverges at " << i;
}

void expect_same_matrix(const linalg::Matrix& a, const linalg::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    for (std::size_t c = 0; c < ra.size(); ++c)
      ASSERT_EQ(bits(ra[c]), bits(rb[c]))
          << what << " diverges at (" << r << "," << c << ")";
  }
}

void expect_same_report(const CirStagReport& a, const CirStagReport& b,
                        const char* what) {
  expect_same_vector(a.node_scores, b.node_scores, what);
  expect_same_vector(a.edge_scores, b.edge_scores, what);
  expect_same_vector(a.eigenvalues, b.eigenvalues, what);
  expect_same_matrix(a.weighted_subspace, b.weighted_subspace, what);
  expect_same_matrix(a.input_embedding, b.input_embedding, what);
}

/// Restores the auto kernel table even when a test body fails mid-way.
struct SimdModeGuard {
  ~SimdModeGuard() { kernels::set_simd_mode("auto"); }
};

circuit::Netlist identity_circuit() {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  circuit::RandomCircuitSpec spec;
  spec.num_gates = 100;
  spec.num_inputs = 8;
  spec.num_outputs = 5;
  spec.num_levels = 6;
  spec.seed = 33;
  return circuit::generate_random_logic(lib, spec);
}

TEST(SimdByteIdentity, AnalyzeAcrossModesAndThreadCounts) {
  SimdModeGuard guard;
  const circuit::Netlist nl = identity_circuit();
  const linalg::Matrix f = circuit::pin_features(nl);
  gnn::TimingGnnOptions gopts;
  gopts.epochs = 40;
  gopts.hidden_dim = 16;

  std::vector<CirStagReport> reports;
  std::vector<std::vector<double>> predictions;
  for (const char* mode : {"auto", "off"}) {
    for (std::size_t threads : {1u, 4u}) {
      ASSERT_TRUE(kernels::set_simd_mode(mode));
      runtime::set_global_threads(threads);
      // Training is part of the run: the GNN forward/backward passes route
      // through the same kernels, so the model itself must come out
      // identical too.
      gnn::TimingGnn model(nl, gopts);
      model.train();
      predictions.push_back(model.predict(f));
      reports.push_back(CirStag(fast_config())
                            .analyze(circuit::pin_graph(nl), f,
                                     model.embed(f)));
    }
  }
  runtime::set_global_threads(0);  // back to the environment default
  for (std::size_t i = 1; i < reports.size(); ++i) {
    expect_same_vector(predictions[0], predictions[i], "gnn prediction");
    expect_same_report(reports[0], reports[i], "analyze report");
  }
}

TEST(SimdByteIdentity, SweepEngineAcrossModesAndThreadCounts) {
  SimdModeGuard guard;
  const circuit::Netlist nl = identity_circuit();
  gnn::TimingGnnOptions gopts;
  gopts.epochs = 40;
  gopts.hidden_dim = 16;

  std::vector<circuit::PinId> cell_inputs;
  for (circuit::PinId p = 0; p < nl.num_pins(); ++p)
    if (nl.pin(p).kind == circuit::PinKind::CellInput) cell_inputs.push_back(p);
  std::vector<SweepVariant> variants(3);
  for (std::size_t v = 0; v < variants.size(); ++v)
    for (std::size_t j = 0; j < 4; ++j)
      variants[v].cap_scalings.push_back(
          {cell_inputs[(v * 4 + j) % cell_inputs.size()], 1.4 + 0.1 * v});

  std::vector<std::vector<core::SweepVariantResult>> runs;
  for (const char* mode : {"auto", "off"}) {
    for (std::size_t threads : {1u, 4u}) {
      ASSERT_TRUE(kernels::set_simd_mode(mode));
      runtime::set_global_threads(threads);
      gnn::TimingGnn model(nl, gopts);
      model.train();
      SweepOptions opts;
      opts.config = fast_config();
      opts.exact = true;
      SweepEngine engine(nl, model, opts);
      runs.push_back(engine.run(variants));
    }
  }
  runtime::set_global_threads(0);  // back to the environment default
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[0].size(), runs[i].size());
    for (std::size_t v = 0; v < runs[0].size(); ++v) {
      expect_same_report(runs[0][v].report, runs[i][v].report, "sweep report");
      ASSERT_EQ(bits(runs[0][v].worst_arrival), bits(runs[i][v].worst_arrival))
          << "worst_arrival variant " << v;
      expect_same_vector(runs[0][v].prediction, runs[i][v].prediction,
                         "sweep prediction");
    }
  }
}

}  // namespace
