#include "linalg/cg.hpp"

#include <gtest/gtest.h>

#include "linalg/block_cg.hpp"
#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using namespace cirstag::linalg;

/// One right-hand side as an n×1 block — the k = 1 form of the CG loop.
Matrix column(const std::vector<double>& b) {
  Matrix m(b.size(), 1);
  m.set_col(0, b);
  return m;
}

TEST(ConjugateGradient, SolvesSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
  auto op = [](const Matrix& x, Matrix& y) {
    y(0, 0) += 4 * x(0, 0) + 1 * x(1, 0);
    y(1, 0) += 1 * x(0, 0) + 3 * x(1, 0);
  };
  const auto res = block_conjugate_gradient(op, column({1.0, 2.0}));
  EXPECT_TRUE(res.converged[0]);
  EXPECT_NEAR(res.solutions(0, 0), 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(res.solutions(1, 0), 7.0 / 11.0, 1e-8);
}

TEST(ConjugateGradient, ZeroRhsReturnsZero) {
  auto op = [](const Matrix& x, Matrix& y) { y(0, 0) += x(0, 0); };
  const auto res = block_conjugate_gradient(op, column({0.0}));
  EXPECT_TRUE(res.converged[0]);
  EXPECT_DOUBLE_EQ(res.solutions(0, 0), 0.0);
  EXPECT_EQ(res.iterations[0], 0u);
}

TEST(ConjugateGradient, PreconditionerReducesIterations) {
  // Badly scaled diagonal system.
  const std::size_t n = 50;
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = 1.0 + 1000.0 * i;
  auto op = [&diag](const Matrix& x, Matrix& y) {
    for (std::size_t i = 0; i < x.rows(); ++i) y(i, 0) += diag[i] * x(i, 0);
  };
  auto precond = [&diag](const Matrix& x, Matrix& y) {
    for (std::size_t i = 0; i < x.rows(); ++i) y(i, 0) = x(i, 0) / diag[i];
  };
  const Matrix b = column(std::vector<double>(n, 1.0));
  const auto plain = block_conjugate_gradient(op, b);
  const auto pc = block_conjugate_gradient(op, b, precond);
  EXPECT_TRUE(pc.converged[0]);
  EXPECT_LE(pc.iterations[0], plain.iterations[0]);
  EXPECT_LE(pc.iterations[0], 3u);  // Jacobi is exact for diagonal systems
}

TEST(ConjugateGradient, SizeMismatchThrows) {
  auto op = [](const Matrix&, Matrix&) {};
  const Matrix b(3, 1, 1.0);
  const Matrix guess(2, 1);
  EXPECT_THROW((void)block_conjugate_gradient(op, b, {}, {}, &guess),
               std::invalid_argument);
}

SparseMatrix path_laplacian(std::size_t n) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.push_back({i, i, 1.0});
    t.push_back({i + 1, i + 1, 1.0});
    t.push_back({i, i + 1, -1.0});
    t.push_back({i + 1, i, -1.0});
  }
  return SparseMatrix::from_triplets(n, n, std::move(t));
}

TEST(LaplacianSolver, SingularSystemWithDeflation) {
  // Path graph P4: solve L x = e0 - e3. Effective resistance between the
  // endpoints is 3 (three unit resistors in series), so x0 - x3 = 3.
  LaplacianSolver solver(path_laplacian(4));
  BlockSolveStats stats;
  const Matrix x =
      solver.solve_block(column({1.0, 0.0, 0.0, -1.0}), nullptr, &stats);
  EXPECT_NEAR(x(0, 0) - x(3, 0), 3.0, 1e-8);
  EXPECT_LT(stats.max_residual, 1e-8);
}

TEST(LaplacianSolver, RegularizedSystemIsNonsingular) {
  LaplacianSolver solver(path_laplacian(4), /*regularization=*/0.5);
  // (L + 0.5 I) x = 1 has the unique solution x = 2 * 1 (L 1 = 0).
  std::vector<double> b(4, 1.0);
  const auto x = solver.solve(b);
  for (double v : x) EXPECT_NEAR(v, 2.0, 1e-8);
}

TEST(LaplacianSolver, ResidualIsSmall) {
  Rng rng(23);
  const std::size_t n = 64;
  // Random connected graph: ring + chords.
  std::vector<Triplet> t;
  auto add_edge = [&t](std::size_t u, std::size_t v, double w) {
    t.push_back({u, u, w});
    t.push_back({v, v, w});
    t.push_back({u, v, -w});
    t.push_back({v, u, -w});
  };
  for (std::size_t i = 0; i < n; ++i) add_edge(i, (i + 1) % n, 1.0);
  for (int k = 0; k < 40; ++k)
    add_edge(rng.index(n), rng.index(n) == 0 ? 1 : rng.index(n), 0.5);
  // Remove accidental self-loops by rebuilding: simpler to filter.
  std::vector<Triplet> clean;
  for (auto& tr : t)
    if (!(tr.row == tr.col && tr.value < 0)) clean.push_back(tr);
  LaplacianSolver solver(
      SparseMatrix::from_triplets(n, n, std::move(clean)), 1e-3);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal();
  BlockSolveStats stats;
  (void)solver.solve_block(column(b), nullptr, &stats);
  EXPECT_LT(stats.max_residual, 1e-8);
}

TEST(LaplacianSolver, NonSquareThrows) {
  auto m = SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(LaplacianSolver{std::move(m)}, std::invalid_argument);
}

}  // namespace
