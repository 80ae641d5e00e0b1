#include "linalg/cg.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "linalg/block_cg.hpp"
#include "obs/metrics.hpp"

namespace cirstag::linalg {

LaplacianSolver::LaplacianSolver(SparseMatrix laplacian, double regularization,
                                 CgOptions opts)
    : LaplacianSolver(std::move(laplacian), regularization, opts,
                      TreeFactorization{}) {}

LaplacianSolver::LaplacianSolver(SparseMatrix laplacian, double regularization,
                                 CgOptions opts, TreeFactorization tree)
    : laplacian_(std::move(laplacian)),
      regularization_(regularization),
      opts_(opts),
      tree_(std::move(tree)) {
  if (laplacian_.rows() != laplacian_.cols())
    throw std::invalid_argument("LaplacianSolver: matrix not square");
  if (!tree_.empty() && tree_.dimension() != laplacian_.rows())
    throw std::invalid_argument("LaplacianSolver: tree dimension mismatch");
  inv_diag_ = laplacian_.diagonal();
  for (auto& d : inv_diag_) {
    d += regularization_;
    d = (d > 1e-300) ? 1.0 / d : 1.0;
  }
}

std::vector<double> LaplacianSolver::solve(
    std::span<const double> b, std::span<const double> initial_guess) const {
  const std::size_t n = dimension();
  if (b.size() != n || (!initial_guess.empty() && initial_guess.size() != n))
    throw std::invalid_argument("LaplacianSolver::solve: size mismatch");
  Matrix rhs(n, 1), guess;
  rhs.set_col(0, b);
  if (!initial_guess.empty()) {
    guess = Matrix(n, 1);
    guess.set_col(0, initial_guess);
  }
  return solve_block(rhs, guess.empty() ? nullptr : &guess).col(0);
}

Matrix LaplacianSolver::solve_block(const Matrix& rhs,
                                    const Matrix* initial_guess,
                                    BlockSolveStats* stats) const {
  if (rhs.rows() != dimension())
    throw std::invalid_argument("LaplacianSolver::solve_block: size mismatch");
  const std::size_t k = rhs.cols();
  BlockCgResult res = block_conjugate_gradient(
      {laplacian_, regularization_, inv_diag_,
       tree_.empty() ? nullptr : &tree_, regularization_ == 0.0},
      rhs, opts_, initial_guess);
  double worst = 0.0;
  std::size_t slowest = 0;
  for (std::size_t j = 0; j < k; ++j) {
    worst = std::max(worst, res.residuals[j]);
    slowest = std::max(slowest, res.iterations[j]);
  }
  static const obs::Counter block_solves("laplacian_solver.block_solves");
  static const obs::Counter iterations("laplacian_solver.iterations");
  block_solves.add();
  iterations.add(res.total_iterations);
  if (stats) {
    stats->total_iterations = res.total_iterations;
    stats->max_iterations = slowest;
    stats->max_residual = worst;
    stats->all_converged = res.all_converged();
  }
  return std::move(res.solutions);
}

}  // namespace cirstag::linalg
