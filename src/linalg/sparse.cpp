#include "linalg/sparse.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "kernels/kernels.hpp"
#include "runtime/parallel_for.hpp"
#include "util/arena.hpp"

namespace cirstag::linalg {

namespace {
/// Rows per parallel chunk for row-partitioned products. Each row's
/// accumulation order is unchanged, so results are bit-identical to the
/// serial loop at any thread count; the grain only bounds dispatch overhead.
constexpr std::size_t kSpmvGrain = 1024;
/// Below this many nonzeros a mat-vec is cheaper than waking the pool.
constexpr std::size_t kSpmvParallelMinNnz = 16384;
}  // namespace

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  // 32-bit signed gather indices bound the column count (kernels.hpp).
  if (cols > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::length_error("SparseMatrix::from_triplets: too many columns");
  for (const auto& t : triplets) {
    if (t.row >= rows || t.col >= cols)
      throw std::out_of_range("SparseMatrix::from_triplets: index out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    m.row_ptr_[r] = m.values_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const std::size_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(static_cast<std::uint32_t>(c));
        m.values_.push_back(v);
      }
    }
  }
  m.row_ptr_[rows] = m.values_.size();
  return m;
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  std::vector<double> y(rows_, 0.0);
  multiply_add(x, y);
  return y;
}

void SparseMatrix::multiply_add(std::span<const double> x, std::span<double> y,
                                double alpha) const {
  if (x.size() != cols_ || y.size() != rows_)
    throw std::invalid_argument("SparseMatrix::multiply_add: size mismatch");
  const kernels::KernelTable& kt = kernels::table();
  auto row_range = [&](std::size_t lo, std::size_t hi) {
    kt.spmv_range(row_ptr_.data(), col_idx_.data(), values_.data(), x.data(),
                  alpha, y.data(), lo, hi);
  };
  if (nnz() < kSpmvParallelMinNnz) {
    row_range(0, rows_);
  } else {
    runtime::parallel_for_chunks(0, rows_, kSpmvGrain, row_range);
  }
}

void SparseMatrix::multiply_add(const Matrix& x, Matrix& y,
                                double alpha) const {
  if (x.rows() != cols_ || y.rows() != rows_ || x.cols() != y.cols())
    throw std::invalid_argument(
        "SparseMatrix::multiply_add(Matrix): shape mismatch");
  const std::size_t k = x.cols();
  if (k == 0) return;
  const kernels::KernelTable& kt = kernels::table();
  auto row_range = [&](std::size_t lo, std::size_t hi) {
    // The kernel accumulates each (row, column) in nnz order through a
    // k-wide register-blocked accumulator, so column j of the result is
    // bit-identical to the single-vector spmv on X.col(j).
    util::ArenaFrame frame;
    const auto acc = frame.alloc<double>(4 * kernels::padded_cols(k));
    kt.spmm_range(row_ptr_.data(), col_idx_.data(), values_.data(),
                  x.data().data(), x.cols(), alpha, y.data().data(), y.cols(),
                  k, acc.data(), lo, hi);
  };
  if (nnz() * k < kSpmvParallelMinNnz) {
    row_range(0, rows_);
  } else {
    runtime::parallel_for_chunks(0, rows_, kSpmvGrain / 4, row_range);
  }
}

void SparseMatrix::multiply_shifted_cols(const Matrix& p, double shift,
                                         Matrix& ap,
                                         std::span<const double> mask,
                                         bool sums,
                                         std::span<double> out) const {
  const std::size_t k = p.cols();
  const std::size_t kp = kernels::padded_cols(k);
  if (rows_ != cols_ || p.rows() != rows_ || ap.rows() != rows_ ||
      ap.cols() != k || mask.size() < kp || out.size() < kp)
    throw std::invalid_argument(
        "SparseMatrix::multiply_shifted_cols: shape mismatch");
  if (k == 0) return;
  util::ArenaFrame frame;
  const auto scratch = frame.alloc<double>(kernels::kCgScratchPerCol * kp);
  kernels::table().cg_apply_cols(row_ptr_.data(), col_idx_.data(),
                                 values_.data(), p.data().data(), shift,
                                 ap.data().data(), rows_, k, mask.data(), sums,
                                 out.data(), scratch.data());
}

Matrix SparseMatrix::multiply(const Matrix& b) const {
  if (b.rows() != cols_)
    throw std::invalid_argument("SparseMatrix::multiply(Matrix): shape mismatch");
  Matrix c(rows_, b.cols());
  if (b.cols() == 0) return c;
  const kernels::KernelTable& kt = kernels::table();
  auto row_range = [&](std::size_t lo, std::size_t hi) {
    util::ArenaFrame frame;
    const auto acc =
        frame.alloc<double>(4 * kernels::padded_cols(b.cols()));
    kt.spmm_range(row_ptr_.data(), col_idx_.data(), values_.data(),
                  b.data().data(), b.cols(), 1.0, c.data().data(), c.cols(),
                  b.cols(), acc.data(), lo, hi);
  };
  if (nnz() * b.cols() < kSpmvParallelMinNnz) {
    row_range(0, rows_);
  } else {
    runtime::parallel_for_chunks(0, rows_, kSpmvGrain / 4, row_range);
  }
  return c;
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<Triplet> trips;
  trips.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      trips.push_back({col_idx_[k], r, values_[k]});
  return from_triplets(cols_, rows_, std::move(trips));
}

std::vector<double> SparseMatrix::diagonal() const {
  std::vector<double> d(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) d[r] = coeff(r, r);
  return d;
}

double SparseMatrix::coeff(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_)
    throw std::out_of_range("SparseMatrix::coeff");
  const auto begin = col_idx_.begin() + static_cast<long>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<long>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::span<const std::uint32_t> SparseMatrix::row_indices(std::size_t r) const {
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> SparseMatrix::row_values(std::size_t r) const {
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      m(r, col_idx_[k]) = values_[k];
  return m;
}

}  // namespace cirstag::linalg
