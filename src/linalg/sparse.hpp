#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/aligned.hpp"

namespace cirstag::linalg {

/// One (row, col, value) entry used to assemble a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Compressed-sparse-row matrix of doubles.
///
/// The workhorse for Laplacians and normalized adjacency operators: built
/// once from triplets (duplicates summed), then used for mat-vecs inside CG,
/// Lanczos, and GNN message passing.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assemble from triplets; duplicate (row, col) entries are summed and
  /// explicit zeros dropped.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// y = A x
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// y += alpha * A x
  void multiply_add(std::span<const double> x, std::span<double> y,
                    double alpha = 1.0) const;

  /// Y += alpha * A X — multi-vector SpMV (the subspace iteration's L_X V).
  /// One CSR traversal is amortized across all columns of X (contiguous
  /// row-major blocks, row-partitioned over the parallel runtime). Each
  /// (row, column) output accumulates in exactly the order of the
  /// single-vector kernel, so column j of the result is bit-identical to
  /// multiply_add(X.col(j), ...).
  void multiply_add(const Matrix& x, Matrix& y, double alpha = 1.0) const;

  /// AP = (A + shift·I) P on the columns `mask` enables, every row in order
  /// on the calling thread: the first row pass of a block-CG iteration
  /// (linalg/block_cg.cpp, kernels::KernelTable::cg_apply_cols). Each
  /// enabled entry is what multiply_add(P, AP) makes of a zeroed AP,
  /// followed by fma(shift, P, ·) when shift != 0; the same traversal sets
  /// out[j] = Σ_i P(i,j)·AP(i,j), or Σ_i AP(i,j) with `sums`, through the
  /// 8-lane row tree of the dot/sum kernels. `mask` and `out` hold
  /// kernels::padded_cols(k) lanes (kernels.hpp). Requires a square matrix.
  void multiply_shifted_cols(const Matrix& p, double shift, Matrix& ap,
                             std::span<const double> mask, bool sums,
                             std::span<double> out) const;

  /// Dense product A * B (B dense, result dense). Used by GNN layers.
  [[nodiscard]] Matrix multiply(const Matrix& b) const;

  /// A^T as a new CSR matrix.
  [[nodiscard]] SparseMatrix transposed() const;

  /// Main-diagonal entries (zero where absent); Jacobi preconditioner.
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Entry lookup; O(row nnz). Returns 0 for absent entries.
  [[nodiscard]] double coeff(std::size_t row, std::size_t col) const;

  /// Row access for iteration: column indices and values of row r.
  [[nodiscard]] std::span<const std::uint32_t> row_indices(std::size_t r) const;
  [[nodiscard]] std::span<const double> row_values(std::size_t r) const;

  [[nodiscard]] Matrix to_dense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // SoA layout tuned for the SIMD kernels (kernels/kernels.hpp): 32-bit
  // column indices halve index bandwidth and feed vpgatherdd-style loads;
  // 64-byte alignment keeps the value/index streams on cache-line starts.
  std::vector<std::size_t> row_ptr_;  // size rows_+1
  std::vector<std::uint32_t, util::AlignedAllocator<std::uint32_t>> col_idx_;
  std::vector<double, util::AlignedAllocator<double>> values_;
};

}  // namespace cirstag::linalg
