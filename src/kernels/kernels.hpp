// Runtime-dispatched SIMD kernel layer.
//
// Every hot elementwise/reduction loop in linalg, graphs, circuit and gnn
// routes through the function table below. Two implementations exist:
//
//   * scalar  — portable C++, always available,
//   * avx2    — AVX2 + FMA, compiled in its own TU with -mavx2 -mfma and
//               selected at startup only when the CPU supports both.
//
// The table is resolved once from the CIRSTAG_SIMD env var (set_simd_mode()
// re-selects it in-process for the identity tests) and cached in an atomic
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
// Consequently CIRSTAG_SIMD=auto and CIRSTAG_SIMD=off are byte-identical,
// and both are independent of thread count (the runtime layer's fixed-grain
// chunking handles the rest). The lane-tree result *does* differ from the pre-kernel
// scalar seed (sequential left fold, no contraction); bench/MANIFEST_baseline
// was re-baselined once for that change — see DESIGN.md §11.
//
// ## Fused block-CG column kernels
//
// The *_cols kernels operate on row-major n x k blocks (block-CG multivectors)
// with a per-column mask. Masks are arrays of double bit patterns: kMaskOn
// (all bits set — MSB drives VMASKMOVPD/VBLENDVPD) for active columns, 0.0
// for inactive ones. Mask arrays and the small k-length vectors they gate
// (coefficients, outputs) must be padded to a multiple of 4 doubles with
// zero/inactive lanes, so the vector loop never reads past them; the big
// n x k operands need no padding (tail lanes are masked off).
//
// Each is one row pass of a block-CG iteration, every row visited once in
// order, 4 columns per vector block with a masked tail:
//
//   cg_apply_cols    P1  ap = (A + shift·I)p, + pᵀap or Σap   nnz: 4 lanes
//   cg_step_cols     P2  x, r updates, rᵀr, Jacobi rᵀz or Σz  rows: 8 lanes
//   center_dot_cols      a -= mean, bᵀa (deflated solves)     rows: 8 lanes
//   xpby_cols        P3  p = z + βp, z = D⁻¹r or stored       elementwise
//
// P1's row dot keeps spmm_range's nnz tree; for k <= 8 its accumulators stay
// in registers. A Jacobi iteration is P1, P2, P3; a deflated one adds a
// center_dot_cols pass after P1 and after P2 (DESIGN.md §7).
//
// For k <= 4, the groups every top-level solve runs, the AVX2 passes do not
// branch on the data:
//
//   * Blended tail. The row dot (P1 and spmm_range) always reads the three
//     entries after a row's last full group of 4 and keeps each one's fma
//     only in the lanes the row owns (blendv), instead of testing a ragged
//     tail of 0–3 entries.
//   * Over-read rule. Only a row with row_ptr[r+1] + 3 <= row_ptr[n] takes
//     the blended tail (spmm_range bounds it by row_ptr[hi], since callers
//     may pass arrays that end there); the last rows keep the branched
//     tail. So every read stays inside the CSR arrays, and no array is
//     padded. A lane past the row's end is blended away, never multiplied
//     by zero, so a NaN or Inf reached only through the over-read cannot
//     leak into the result.
//   * Row lanes in registers. P2, center_dot_cols and P3 load the column
//     mask and coefficients once per call and run rows unrolled by 8, each
//     reduction's 8 row lanes held in registers.
//
// Lane assignment and fold trees are unchanged, so both tables still agree
// bit for bit.

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

/// Scratch doubles per padded column the fused block-CG kernels take: two
/// 8-lane reductions (P2), or one plus P1's SpMM row and its 4 nnz lanes.
inline constexpr std::size_t kCgScratchPerCol = 16;

/// The canonical 8-lane horizontal fold: vertical add of the two 4-wide
/// halves, then the 4-lane tree — the shape the scalar table spells out.
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
  // Squared distances from q (d doubles) to the m points of one KD-tree
  // leaf, stored as ceil(m/4) dimension-major groups of 4 points: lane l of
  // group g holds coordinate a at block[(g*d + a)*4 + l]. out[i] (m entries
  // written) is bit-identical to distance2(point i, q, d): each lane runs
  // distance2's 4-lane tree with coordinate a in virtual lane (a & 3).
  void (*leaf_distance2)(const double* block, const double* q, std::size_t d,
                         std::size_t m, double* out);

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
  // caller scratch of 4 * padded_cols(k) doubles (lane-major). col_idx and
  // values are read up to row_ptr[hi], never further (the blended tail).
  void (*spmm_range)(const std::size_t* row_ptr, const std::uint32_t* col_idx,
                     const double* values, const double* x, std::size_t ldx,
                     double alpha, double* y, std::size_t ldy, std::size_t k,
                     double* acc, std::size_t lo, std::size_t hi);

  // Fused block-CG passes (linalg/block_cg.cpp) over row-major n x k
  // blocks; `mask`, coefficient and output arrays are padded_cols(k) long
  // (see header comment) and only masked columns are read into outputs or
  // written. Every column reduction assigns row i to virtual lane (i & 7) —
  // fma for dots, + for sums — and folds with the 8-lane tree: the shape of
  // dot/sum over that column alone, so each column's result is bit-identical
  // to the single-vector kernel on it. `scratch` is caller-provided,
  // kCgScratchPerCol * padded_cols(k) doubles, 64-byte aligned.
  //
  //   P1, CSR rows [0, n) of a square operator, p/ap with leading dim k:
  //     ap[i*k+j] = fma(shift, p[i*k+j], fma(1, fold, +0.0)), `fold` the
  //     spmm_range row dot and the shift fma skipped when shift == 0; then
  //     out[j] = sum-tree(ap) when `sums`, else dot-tree(p·ap).
  void (*cg_apply_cols)(const std::size_t* row_ptr,
                        const std::uint32_t* col_idx, const double* values,
                        const double* p, double shift, double* ap,
                        std::size_t n, std::size_t k, const double* mask,
                        bool sums, double* out, double* scratch);
  //   P2: x = fma(alpha[j], p, x), r = fma(-alpha[j], ap, r),
  //     rr[j] = dot-tree(r·r); with d != nullptr and zi = d[i]·r (a plain
  //     multiply, the Jacobi preconditioner) also
  //       z == nullptr: zr[j] = dot-tree(r·zi), z not stored;
  //       z != nullptr: z[i*k+j] = zi and zr[j] = sum-tree(zi).
  void (*cg_step_cols)(const double* alpha, const double* p, const double* ap,
                       double* x, double* r, const double* d, double* z,
                       std::size_t n, std::size_t k, const double* mask,
                       double* rr, double* zr, double* scratch);
  //   Center and dot: a[i*k+j] -= m[j], then out[j] = dot-tree(b·a).
  void (*center_dot_cols)(const double* m, double* a, const double* b,
                          std::size_t n, std::size_t k, const double* mask,
                          double* out, double* scratch);
  //   P3: p[i*k+j] = fma(beta[j], p[i*k+j], zi) with zi = d[i]·src[i*k+j]
  //     when d != nullptr (Jacobi, z never stored), else src[i*k+j].
  void (*xpby_cols)(const double* beta, const double* d, const double* src,
                    double* p, std::size_t n, std::size_t k,
                    const double* mask);
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

/// Select the dispatch mode: "auto"/"on"/"avx2" (use AVX2/FMA when the CPU
/// has it, else scalar), "off"/"scalar" (force the portable path). Returns
/// false on an unknown mode string. Callable at any time; the identity tests
/// use it to run both tables in one process (CIRSTAG_SIMD is the one outside
/// selector).
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
