#pragma once

#include "graphs/coarsen.hpp"
#include "graphs/graph.hpp"
#include "graphs/solver_cache.hpp"
#include "linalg/generalized_eigen.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::core {

/// Options for CirSTAG Phase 3 (DMD-based stability scoring).
struct StabilityOptions {
  std::size_t eigensubspace_dim = 8;  ///< s
  /// Prior feature variance σ² of the PGM (Θ = L + I/σ²); its inverse
  /// regularizes both Laplacians.
  double sigma2 = 1e4;
  std::size_t subspace_iterations = 25;
  /// CG budget for the inner (L_Y + I/σ²)⁻¹ applications. Subspace
  /// iteration tolerates inexact solves, and the final Rayleigh-Ritz
  /// projection is exact on the converged subspace, so a bounded iteration
  /// count keeps Phase 3 near-linear without hurting the ranking.
  double cg_tolerance = 1e-7;
  std::size_t cg_max_iterations = 400;
  std::uint64_t seed = 99;
  /// Preconditioner for the inner L_Y solves (jacobi reproduces the
  /// historical iterates bit-for-bit; spanning_tree converges faster).
  graphs::SolverPreconditioner preconditioner =
      graphs::SolverPreconditioner::jacobi;
  /// Adaptive subspace-iteration early stop: finish once the sorted
  /// Rayleigh quotients change by ≤ ritz_tolerance·ρ_max between sweeps
  /// (see GeneralizedEigenOptions::ritz_tolerance). Deterministic and
  /// thread-count invariant; the executed count lands in
  /// StabilityResult::subspace_sweeps. 0 = fixed `subspace_iterations`
  /// count, the bit-exact historical behaviour.
  double ritz_tolerance = 0.0;
  /// Multilevel coarsening policy (DESIGN.md §12): coarsen both manifolds
  /// through one shared matching, solve the generalized problem at the
  /// coarsest level, refine upward. The default `automatic` engages only at
  /// coarsen.auto_threshold nodes and above.
  graphs::CoarsenOptions coarsen;
};

/// Phase-3 output: the DMD spectrum and per-edge/per-node stability scores.
struct StabilityResult {
  /// Largest s generalized eigenvalues ζ of L_Y^+ L_X (descending) —
  /// upper bounds on the squared distance-mapping distortion.
  std::vector<double> eigenvalues;
  /// Weighted eigensubspace V_s = [v_1 √ζ_1, ..., v_s √ζ_s].
  linalg::Matrix weighted_subspace;
  /// ‖V_sᵀ e_pq‖² for every edge of the input manifold G_X.
  std::vector<double> edge_scores;
  /// Eq. 9 node scores: neighbor-average of incident edge scores over G_X.
  std::vector<double> node_scores;
  /// Subspace sweeps the eigensolver executed (< subspace_iterations when
  /// ritz_tolerance stopped early). Deterministic — usable as a locked
  /// perf-regression metric.
  std::size_t subspace_sweeps = 0;

  /// Stability score ‖V_sᵀ e_pq‖² of an arbitrary node pair — the paper's
  /// edge-stability measure evaluated on any candidate edge (e.g. the edges
  /// of the original circuit rather than the manifold).
  [[nodiscard]] double pair_score(std::size_t p, std::size_t q) const {
    return weighted_subspace.row_distance2(p, q);
  }

  /// Scores for every edge of an arbitrary graph over the same node set
  /// (e.g. the original circuit graph for Case-B edge selection).
  [[nodiscard]] std::vector<double> scores_for_edges(
      const graphs::Graph& g) const;
};

/// Compute CirSTAG stability scores from the input/output manifolds.
///
/// Implements Algorithm 1 steps 6-11: Laplacians of both manifolds, top-s
/// generalized eigenpairs of L_Y^+ L_X, the √ζ-weighted eigensubspace
/// embedding, and edge/node scores. A large score marks a node whose
/// neighborhood the GNN stretches the most — the local Lipschitz surrogate.
///
/// `cache` (optional) supplies/keeps the (L_Y + I/σ²) solver so it is shared
/// with other phases operating on the same manifold; results are identical
/// with or without it.
[[nodiscard]] StabilityResult stability_scores(
    const graphs::Graph& manifold_x, const graphs::Graph& manifold_y,
    const StabilityOptions& opts = {},
    graphs::LaplacianSolverCache* cache = nullptr);

/// The Eq. 9 loops stability_scores ends with: `edge_scores` ‖V_sᵀ e_pq‖²
/// over G_X's edges and `node_scores` their neighbor average (0 when
/// isolated). A snapshot restore derives its scores through this. Throws
/// std::invalid_argument when V_s's rows differ from G_X's nodes.
void eq9_scores(const graphs::Graph& manifold_x,
                const linalg::Matrix& weighted_subspace,
                std::vector<double>& edge_scores,
                std::vector<double>& node_scores);

/// Direct per-edge DMD ratios δ(p,q) = d_Y(p,q)/d_X(p,q) using effective-
/// resistance distances on both manifolds (diagnostic / validation of the
/// eigensubspace scores; O(edges) solves, use on small graphs).
[[nodiscard]] std::vector<double> edge_dmd_ratios(
    const graphs::Graph& manifold_x, const graphs::Graph& manifold_y,
    double sigma2 = 1e4);

}  // namespace cirstag::core
