#pragma once

#include <cstddef>

#include "linalg/cg.hpp"
#include "linalg/dense_eigen.hpp"

namespace cirstag::linalg {

/// Options for the sparse generalized eigensolver.
struct GeneralizedEigenOptions {
  std::size_t num_pairs = 8;        ///< s, the eigensubspace dimension
  std::size_t iterations = 40;      ///< subspace-iteration sweeps
  std::uint64_t seed = 99;
  /// Diagonal regularization applied to l_y before inversion (Θ = L + I/σ²
  /// in the paper's PGM formulation). Must be > 0 unless deflation suffices.
  double ly_regularization = 1e-6;
  double cg_tolerance = 1e-8;
  std::size_t cg_max_iterations = 1500;
  /// Optional warm start (multilevel refinement): the first `num_pairs`
  /// columns seed the subspace instead of the random init, after constant
  /// deflation and re-orthonormalization. Changes results at convergence-
  /// tolerance level — bit-exact paths must leave this null. Must outlive
  /// the call; needs >= num_pairs columns and matching row count. Note that
  /// on near-degenerate spectra a warm subspace does NOT converge in fewer
  /// sweeps than the random init (the rate is set by the eigengap).
  const Matrix* initial_subspace = nullptr;
  /// Adaptive early stop: after each sweep, compare the sorted Rayleigh
  /// quotients ρ_j = v_jᵀ(Mv)_j of the iterate block against the previous
  /// sweep's; stop once the largest change is ≤ ritz_tolerance·ρ_max (and at
  /// least `min_iterations` sweeps ran). The stopping decision is a pure
  /// function of the inputs — deterministic and thread-count invariant —
  /// but the executed sweep count adapts to the spectrum: well-separated
  /// eigenvalues converge in a handful of sweeps while near-degenerate
  /// spectra run to the full `iterations` budget. 0 disables (fixed count,
  /// the bit-exact historical behaviour).
  double ritz_tolerance = 0.0;
  /// Sweeps that must run before `ritz_tolerance` may stop the iteration.
  std::size_t min_iterations = 4;
};

/// Result: values[i] descending (largest generalized eigenvalues of
/// L_Y^+ L_X), vectors in columns.
struct GeneralizedEigenResult {
  std::vector<double> values;
  Matrix vectors;  // n x s
  /// Subspace sweeps actually executed — equals opts.iterations unless
  /// ritz_tolerance stopped the iteration early. Deterministic, so callers
  /// can lock it into perf-regression baselines.
  std::size_t sweeps_executed = 0;
};

/// Top-s generalized eigenpairs of L_X v = ζ L_Y v with L_X, L_Y symmetric
/// PSD graph Laplacians sharing the constant nullspace.
///
/// This is CirSTAG Phase 3's core computation: the dominant eigenpairs of
/// L_Y^+ L_X measure the largest distance-mapping distortions between the
/// input manifold (L_X) and output manifold (L_Y).
///
/// Implementation: subspace (orthogonal) iteration on the operator
/// x -> (L_Y + εI)^{-1} L_X x with constant-vector deflation, followed by a
/// dense Rayleigh-Ritz projection solving the small generalized problem
/// (Vᵀ L_X V) c = ζ (Vᵀ L_Y V) c exactly.
/// `external_solver` (optional) supplies a prebuilt solver for
/// (L_Y + ly_regularization·I) — e.g. from the pipeline's solver cache — and
/// must have been constructed with the same regularization and CG options;
/// results are then identical to the internally-built solver (same
/// construction), merely skipping reassembly.
[[nodiscard]] GeneralizedEigenResult generalized_eigen_sparse(
    const SparseMatrix& l_x, const SparseMatrix& l_y,
    const GeneralizedEigenOptions& opts = {},
    const LaplacianSolver* external_solver = nullptr);

}  // namespace cirstag::linalg
