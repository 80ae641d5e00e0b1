#pragma once

#include <cstddef>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/dense_eigen.hpp"
#include "linalg/rng.hpp"

namespace cirstag::linalg {

/// Options for the Lanczos extreme-eigenpair solver.
struct LanczosOptions {
  std::size_t num_eigenpairs = 8;    ///< how many pairs to return
  std::size_t max_subspace = 0;      ///< Krylov dimension (0 = auto: 4k+32)
  double tolerance = 1e-8;           ///< residual bound on Ritz pairs
  bool want_smallest = true;         ///< smallest vs largest eigenvalues
  std::uint64_t seed = 1234;         ///< start-vector seed
};

/// Lanczos with full reorthogonalization for a symmetric operator.
///
/// This stands in for the paper's "fast multilevel eigensolver [31]": it
/// computes the first few eigenpairs of the normalized Laplacian needed for
/// the Phase-1 spectral embedding. Full reorthogonalization keeps the basis
/// numerically orthogonal at the modest subspace sizes CirSTAG uses
/// (tens of vectors), avoiding ghost eigenvalues.
///
/// Returns pairs sorted ascending (if want_smallest) or descending.
[[nodiscard]] EigenDecomposition lanczos_eigen(const LinearOperator& op,
                                               std::size_t n,
                                               const LanczosOptions& opts = {});

/// Smallest-k eigenpairs of a sparse symmetric matrix (e.g. a normalized
/// Laplacian). Internally runs Lanczos on (shift*I - A) so that the smallest
/// eigenvalues of A become the dominant end of the spectrum, which Lanczos
/// resolves fastest; `spectrum_upper_bound` must be >= λ_max(A)
/// (2.0 for normalized Laplacians).
[[nodiscard]] EigenDecomposition smallest_eigenpairs(
    const SparseMatrix& a, std::size_t k, double spectrum_upper_bound,
    std::size_t max_subspace = 0, std::uint64_t seed = 1234);

}  // namespace cirstag::linalg
