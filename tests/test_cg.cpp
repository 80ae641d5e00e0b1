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

SparseMatrix diagonal_matrix(const std::vector<double>& d) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < d.size(); ++i) t.push_back({i, i, d[i]});
  return SparseMatrix::from_triplets(d.size(), d.size(), std::move(t));
}

/// Plain (unpreconditioned) CG is Jacobi with a unit inverse diagonal.
std::vector<double> unit_diagonal(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

TEST(ConjugateGradient, SolvesSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}});
  const auto unit = unit_diagonal(2);
  const auto res = block_conjugate_gradient({a, 0.0, unit}, column({1.0, 2.0}));
  EXPECT_TRUE(res.converged[0]);
  EXPECT_NEAR(res.solutions(0, 0), 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(res.solutions(1, 0), 7.0 / 11.0, 1e-8);
}

TEST(ConjugateGradient, ZeroRhsReturnsZero) {
  const SparseMatrix a = diagonal_matrix({1.0});
  const auto unit = unit_diagonal(1);
  const auto res = block_conjugate_gradient({a, 0.0, unit}, column({0.0}));
  EXPECT_TRUE(res.converged[0]);
  EXPECT_DOUBLE_EQ(res.solutions(0, 0), 0.0);
  EXPECT_EQ(res.iterations[0], 0u);
}

TEST(ConjugateGradient, PreconditionerReducesIterations) {
  // Badly scaled diagonal system.
  const std::size_t n = 50;
  std::vector<double> diag(n), inv_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 1.0 + 1000.0 * i;
    inv_diag[i] = 1.0 / diag[i];
  }
  const SparseMatrix a = diagonal_matrix(diag);
  const auto unit = unit_diagonal(n);
  const Matrix b = column(std::vector<double>(n, 1.0));
  const auto plain = block_conjugate_gradient({a, 0.0, unit}, b);
  const auto pc = block_conjugate_gradient({a, 0.0, inv_diag}, b);
  EXPECT_TRUE(pc.converged[0]);
  EXPECT_LE(pc.iterations[0], plain.iterations[0]);
  EXPECT_LE(pc.iterations[0], 3u);  // Jacobi is exact for diagonal systems
}

TEST(ConjugateGradient, SizeMismatchThrows) {
  const SparseMatrix zero = SparseMatrix::from_triplets(3, 3, {});
  const auto unit = unit_diagonal(3);
  const Matrix b(3, 1, 1.0);
  const Matrix guess(2, 1);
  EXPECT_THROW((void)block_conjugate_gradient({zero, 0.0, unit}, b, {}, &guess),
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
