// Runtime-dispatched SIMD kernel layer.
//
// Every hot elementwise/reduction loop in linalg, graphs, circuit and gnn
// routes through the function table below. Two implementations exist:
//
//   * scalar  — portable C++, always available,
//   * avx2    — AVX2 + FMA, compiled in its own TU with -mavx2 -mfma and
//               selected at startup only when the CPU supports both.
//
// The table is resolved once (CIRSTAG_SIMD env var, overridable via
// set_simd_mode(), surfaced as the --simd CLI flag) and cached in an atomic
// pointer; per-call overhead is one relaxed load plus an indirect call.
//
// ## Bit-identity contract
//
// Both implementations compute the *same* floating-point result for every
// input, bit for bit. That is only possible because the canonical arithmetic
// is defined in SIMD-friendly terms and the scalar path mirrors it exactly:
//
//   * Reductions use a fixed-shape lane tree, independent of n and of the
//     implementation. An 8-lane reduction accumulates element i into lane
//     (i & 7) with fma, then folds lanes as
//         l[j] = acc[j] + acc[j + 4]   (j = 0..3)
//         result = (l[0] + l[2]) + (l[1] + l[3])
//     which is precisely what two 4-wide vector accumulators produce after
//     a vertical add and the standard hadd-free horizontal fold. A 4-lane
//     reduction (sparse row dots, small-dimension distances) accumulates
//     into lane (i & 3) and folds (acc[0] + acc[2]) + (acc[1] + acc[3]).
//   * Elementwise updates contract multiply-add: y[i] = fma(a, x[i], y[i]).
//     The scalar path spells std::fma so it matches vfmadd exactly.
//   * Masked/tail lanes are *suppressed*, never multiplied by zero: the AVX2
//     path uses maskload + blend/maskstore, the scalar path branches. (A
//     multiply-by-zero tail would differ on signed zeros and NaN payloads:
//     fma(0, x, -0.0) = +0.0.)
//
// Consequently `--simd auto` and `--simd off` are byte-identical, and both
// are independent of thread count (the runtime layer's fixed-grain chunking
// handles the rest). The lane-tree result *does* differ from the pre-kernel
// scalar seed (sequential left fold, no contraction); bench/MANIFEST_baseline
// was re-baselined once for that change — see DESIGN.md §11.
//
// ## Masked column-block kernels
//
// The *_cols kernels operate on row-major n x k blocks (block-CG multivectors)
// with a per-column mask. Masks are arrays of double bit patterns: kMaskOn
// (all bits set — MSB drives VMASKMOVPD/VBLENDVPD) for active columns, 0.0
// for inactive ones. Mask arrays and the small k-length vectors they gate
// (coefficients, outputs) must be padded to a multiple of 4 doubles with
// zero/inactive lanes, so the vector loop never reads past them; the big
// n x k operands need no padding (tail lanes are masked off).

#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <string>

namespace cirstag::kernels {

/// Mask element for an active column: all bits set (MSB included).
inline constexpr std::uint64_t kMaskOnBits = ~std::uint64_t{0};
inline const double kMaskOn = std::bit_cast<double>(kMaskOnBits);
/// Mask element for an inactive column.
inline constexpr double kMaskOff = 0.0;

/// True if a mask element enables its lane (MSB set, matching VBLENDVPD).
inline bool mask_on(double m) {
  return (std::bit_cast<std::uint64_t>(m) >> 63) != 0;
}

/// Round k up to the 4-lane padding the masked column kernels require.
inline std::size_t padded_cols(std::size_t k) { return (k + 3) & ~std::size_t{3}; }

/// The canonical 8-lane horizontal fold: vertical add of the two 4-wide
/// halves, then the 4-lane tree. Exposed so strided mirrors (e.g. per-column
/// residual tails in block-CG) can reproduce the reduction shape in plain
/// code.
inline double reduce8_tree(const double acc[8]) {
  const double l0 = acc[0] + acc[4];
  const double l1 = acc[1] + acc[5];
  const double l2 = acc[2] + acc[6];
  const double l3 = acc[3] + acc[7];
  return (l0 + l2) + (l1 + l3);
}

/// The canonical 4-lane horizontal fold.
inline double reduce4_tree(const double acc[4]) {
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

struct KernelTable {
  const char* isa;  // "avx2" or "scalar"

  // 8-lane reductions.
  double (*dot)(const double* a, const double* b, std::size_t n);
  double (*dot_self)(const double* a, std::size_t n);
  double (*sum)(const double* a, std::size_t n);
  // 4-lane reduction (small dimensions: embedding distances).
  double (*distance2)(const double* a, const double* b, std::size_t n);

  // Elementwise.
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  void (*scale)(double alpha, double* x, std::size_t n);
  void (*sub_scalar)(double m, double* x, std::size_t n);

  // CSR rows [lo, hi): y[r] = fma(alpha, row_dot(r), y[r]); row dots use the
  // 4-lane tree over nnz position (t - row_begin) & 3.
  void (*spmv_range)(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, double alpha,
                     double* y, std::size_t lo, std::size_t hi);
  // Multi-RHS CSR rows [lo, hi). Each column j reduces its row dot through
  // the SAME 4-lane nnz tree as spmv_range (lane = nnz position & 3), so
  // column j of the result is bit-identical to spmv on X.col(j). `acc` is
  // caller scratch of 4 * padded_cols(k) doubles (lane-major).
  void (*spmm_range)(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, std::size_t ldx,
                     double alpha, double* y, std::size_t ldy, std::size_t k,
                     double* acc, std::size_t lo, std::size_t hi);

  // Row-major n x k column-block kernels; `mask`/`out`/coefficient arrays are
  // padded_cols(k) long (see header comment).
  //
  // The reductions assign row i to virtual lane (i & 7) and fold with the
  // 8-lane tree — the same shape as dot/dot_self/sum over a contiguous
  // vector — so each column's result is bit-identical to the single-vector
  // kernel on that column. `scratch` is caller-provided, 8 * padded_cols(k)
  // doubles, lane-major.
  //   out[j] = dot-tree_i(a[i*k+j] * b[i*k+j]) for masked j (overwritten)
  void (*col_dots)(const double* a, const double* b, std::size_t n,
                   std::size_t k, const double* mask, double* out,
                   double* scratch);
  //   out[j] = sum-tree_i(a[i*k+j]) for masked j (overwritten)
  void (*col_sums)(const double* a, std::size_t n, std::size_t k,
                   const double* mask, double* out, double* scratch);
  //   y[i*k+j] = fma(c[j], x[i*k+j], y[i*k+j]) for masked j
  void (*axpy_cols)(const double* c, const double* x, double* y, std::size_t n,
                    std::size_t k, const double* mask);
  //   p[i*k+j] = fma(beta[j], p[i*k+j], z[i*k+j]) for masked j
  void (*xpby_cols)(const double* beta, const double* z, double* p,
                    std::size_t n, std::size_t k, const double* mask);
  //   x[i*k+j] -= m[j] for masked j
  void (*sub_cols)(const double* m, double* x, std::size_t n, std::size_t k,
                   const double* mask);

  // Row-scaled block copy, y[i*k+j] = d[i] * x[i*k+j] — the Jacobi block
  // preconditioner. Unmasked and a plain multiply (not fma). No padding
  // needed.
  void (*diag_scale_cols)(const double* d, const double* x, double* y,
                          std::size_t n, std::size_t k);
};

namespace detail {
extern std::atomic<const KernelTable*> g_table;
const KernelTable& resolve_table();
}  // namespace detail

/// The active kernel table (resolved on first use from CIRSTAG_SIMD).
inline const KernelTable& table() {
  const KernelTable* t = detail::g_table.load(std::memory_order_acquire);
  return t != nullptr ? *t : detail::resolve_table();
}

/// Select the dispatch mode: "auto" (use AVX2/FMA when the CPU has it),
/// "off"/"scalar" (force the portable path), "avx2" (force AVX2; falls back
/// to scalar with a false return when unsupported). Returns false on an
/// unknown mode string. Callable at any time; the CLI applies --simd /
/// CIRSTAG_SIMD through here before any work runs.
bool set_simd_mode(const std::string& mode);

/// ISA of the active table: "avx2" or "scalar".
inline const char* active_isa() { return table().isa; }

/// True when the running CPU (and this build) can dispatch the AVX2 table.
bool avx2_available();

/// The implementation tables themselves, exposed for the scalar-vs-SIMD
/// parity tests (every kernel must agree bit for bit across the two).
const KernelTable& scalar_kernel_table();
/// nullptr when this build carries no AVX2 TU (non-x86 targets).
const KernelTable* avx2_kernel_table();

// ---- Convenience wrappers -------------------------------------------------

inline double dot(const double* a, const double* b, std::size_t n) {
  return table().dot(a, b, n);
}
inline double dot_self(const double* a, std::size_t n) {
  return table().dot_self(a, n);
}
inline double sum(const double* a, std::size_t n) { return table().sum(a, n); }
inline double distance2(const double* a, const double* b, std::size_t n) {
  return table().distance2(a, b, n);
}
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  table().axpy(alpha, x, y, n);
}
inline void scale(double alpha, double* x, std::size_t n) {
  table().scale(alpha, x, n);
}
inline void sub_scalar(double m, double* x, std::size_t n) {
  table().sub_scalar(m, x, n);
}

}  // namespace cirstag::kernels
