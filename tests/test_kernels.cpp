// Scalar-vs-SIMD parity corpus for the kernel layer, plus end-to-end
// byte-identity of analyze() and SweepEngine across --simd modes and thread
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

TEST_P(KernelParityTest, MaskedColumnKernels) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t n = 131;
    const std::size_t kp = kernels::padded_cols(k);
    const auto a = make(n * k);
    const auto b = make(n * k);

    // Random mask with at least one inactive column when k > 1, and padded
    // lanes always off.
    std::vector<double> mask(kp, kernels::kMaskOff);
    for (std::size_t j = 0; j < k; ++j)
      mask[j] = (rng_() & 1) != 0 ? kernels::kMaskOn : kernels::kMaskOff;
    if (k > 1) mask[k / 2] = kernels::kMaskOff;
    mask[0] = kernels::kMaskOn;

    std::vector<double> cvec(kp, 0.0);
    for (std::size_t j = 0; j < k; ++j) cvec[j] = coeff(rng_);

    util::ArenaFrame frame;
    std::span<double> scratch = frame.alloc_zero<double>(8 * kp);

    const std::vector<double> sentinel(kp, -123.456);
    auto outs = sentinel, outv = sentinel;
    sc_->col_dots(a.data(), b.data(), n, k, mask.data(), outs.data(),
                  scratch.data());
    vec_->col_dots(a.data(), b.data(), n, k, mask.data(), outv.data(),
                   scratch.data());
    expect_same_bits(outs, outv, "col_dots", k);
    // Masked-off columns are suppressed, not written.
    for (std::size_t j = 0; j < kp; ++j)
      if (!kernels::mask_on(mask[j])) {
        ASSERT_EQ(bits(outs[j]), bits(sentinel[j])) << "col_dots wrote col "
                                                    << j;
      }

    outs = sentinel, outv = sentinel;
    sc_->col_sums(a.data(), n, k, mask.data(), outs.data(), scratch.data());
    vec_->col_sums(a.data(), n, k, mask.data(), outv.data(), scratch.data());
    expect_same_bits(outs, outv, "col_sums", k);

    auto ys = b, yv = b;
    sc_->axpy_cols(cvec.data(), a.data(), ys.data(), n, k, mask.data());
    vec_->axpy_cols(cvec.data(), a.data(), yv.data(), n, k, mask.data());
    expect_same_bits(ys, yv, "axpy_cols", k);
    for (std::size_t j = 0; j < k; ++j)
      if (!kernels::mask_on(mask[j])) {
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(bits(ys[i * k + j]), bits(b[i * k + j]))
              << "axpy_cols touched masked col " << j;
      }

    ys = b, yv = b;
    sc_->xpby_cols(cvec.data(), a.data(), ys.data(), n, k, mask.data());
    vec_->xpby_cols(cvec.data(), a.data(), yv.data(), n, k, mask.data());
    expect_same_bits(ys, yv, "xpby_cols", k);

    ys = b, yv = b;
    sc_->sub_cols(cvec.data(), ys.data(), n, k, mask.data());
    vec_->sub_cols(cvec.data(), yv.data(), n, k, mask.data());
    expect_same_bits(ys, yv, "sub_cols", k);
    for (std::size_t j = 0; j < k; ++j)
      if (!kernels::mask_on(mask[j])) {
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(bits(ys[i * k + j]), bits(b[i * k + j]))
              << "sub_cols touched masked col " << j;
      }
  }
}

TEST_P(KernelParityTest, DiagScaleCols) {
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t n = 113;
    const auto d = make(n);
    const auto x = make(n * k);
    std::vector<double> ys(n * k, 0.0), yv(n * k, 0.0);
    sc_->diag_scale_cols(d.data(), x.data(), ys.data(), n, k);
    vec_->diag_scale_cols(d.data(), x.data(), yv.data(), n, k);
    expect_same_bits(ys, yv, "diag_scale_cols", k);
    // And against the obvious reference (plain multiply, no contraction).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < k; ++j)
        ASSERT_EQ(bits(ys[i * k + j]), bits(d[i] * x[i * k + j]))
            << "diag_scale_cols k=" << k << " at (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(FiniteAndPoisoned, KernelParityTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NanInfInputs" : "FiniteInputs";
                         });

// ---- End-to-end byte-identity across --simd modes and thread counts -------

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

/// Restores --simd auto even when a test body fails mid-way.
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
      // Training is part of the run: the GNN forward/backward passes route
      // through the same kernels, so the model itself must come out
      // identical too.
      gnn::TimingGnn model(nl, gopts);
      model.train();
      predictions.push_back(model.predict(f));
      CirStagConfig cfg = fast_config();
      cfg.threads = threads;
      reports.push_back(
          CirStag(cfg).analyze(circuit::pin_graph(nl), f, model.embed(f)));
    }
  }
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
      gnn::TimingGnn model(nl, gopts);
      model.train();
      SweepOptions opts;
      opts.config = fast_config();
      opts.config.threads = threads;
      opts.exact = true;
      SweepEngine engine(nl, model, opts);
      runs.push_back(engine.run(variants));
    }
  }
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
