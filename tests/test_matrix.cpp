#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using namespace cirstag::linalg;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix m(2, 3);
  int v = 0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = ++v;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), m(1, 2));
  const Matrix tt = t.transposed();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
}

TEST(Matrix, MatmulKnownProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  const Matrix a = Matrix::random_normal(4, 3, rng);
  const Matrix b = Matrix::random_normal(4, 5, rng);
  const Matrix via_t = matmul(a.transposed(), b);
  const Matrix direct = matmul_at_b(a, b);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_NEAR(direct(r, c), via_t(r, c), 1e-12);

  const Matrix c2 = Matrix::random_normal(6, 3, rng);
  const Matrix via_t2 = matmul(a, c2.transposed());
  const Matrix direct2 = matmul_a_bt(a, c2);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(direct2(r, c), via_t2(r, c), 1e-12);
}

TEST(Matrix, MatvecMatchesMatmul) {
  Rng rng(4);
  const Matrix a = Matrix::random_normal(3, 4, rng);
  std::vector<double> x{1.0, -1.0, 0.5, 2.0};
  const auto y = matvec(a, x);
  for (std::size_t r = 0; r < 3; ++r) {
    double expect = 0.0;
    for (std::size_t c = 0; c < 4; ++c) expect += a(r, c) * x[c];
    EXPECT_NEAR(y[r], expect, 1e-12);
  }
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  std::vector<double> x(2);
  EXPECT_THROW(matvec(a, x), std::invalid_argument);
}

TEST(Matrix, IdentityAndFrobenius) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  EXPECT_NEAR(i.frobenius_norm(), std::sqrt(3.0), 1e-12);
}

TEST(Matrix, RowDistance2) {
  Matrix m(2, 2);
  m(0, 0) = 0; m(0, 1) = 0;
  m(1, 0) = 3; m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.row_distance2(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(m.row_distance2(0, 0), 0.0);
}

TEST(Matrix, ColGetSetRoundTrip) {
  Matrix m(3, 2);
  std::vector<double> col{1.0, 2.0, 3.0};
  m.set_col(1, col);
  EXPECT_EQ(m.col(1), col);
  EXPECT_THROW(m.set_col(0, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, GlorotBounded) {
  Rng rng(5);
  const Matrix w = Matrix::glorot(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (double v : w.data()) {
    EXPECT_LE(v, limit);
    EXPECT_GE(v, -limit);
  }
}

TEST(Matrix, PlusMinusScale) {
  Matrix a(1, 2, 1.0);
  Matrix b(1, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
}

TEST(VectorOps, DotNormAxpy) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_NEAR(norm2(a), std::sqrt(14.0), 1e-12);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
}

TEST(VectorOps, DeflateConstantRemovesMean) {
  std::vector<double> x{1.0, 2.0, 3.0, 6.0};
  deflate_constant(x);
  double sum = 0.0;
  for (double v : x) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Rng, ZeroSigmaNormalReturnsMeanAndAdvancesLikeUnitSigma) {
  Rng zero(42), unit(42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
    (void)unit.normal(3.5, 1.0);
    EXPECT_EQ(zero.engine(), unit.engine()) << "draw " << i;
  }
}

}  // namespace
