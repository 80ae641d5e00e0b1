#pragma once

#include "graphs/effective_resistance.hpp"
#include "graphs/graph.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::graphs {

/// Options for iterative SGL-style PGM learning (the baseline of [15], [30]
/// that CirSTAG's one-shot spectral sparsification replaces).
struct SglOptions {
  std::size_t iterations = 30;
  /// Step size of the projected gradient ascent on F(Θ) (Eq. 6).
  double step_size = 0.2;
  /// Prior feature variance σ² (Θ = L + I/σ²).
  double sigma2 = 1e4;
  /// Minimum admissible edge weight (projection floor).
  double weight_floor = 1e-6;
  /// After convergence, prune edges whose weight fell below this fraction
  /// of the median weight (keeping a spanning forest for connectivity).
  double prune_fraction_of_median = 0.05;
  /// Track the exact objective per iteration (dense logdet, O(n³) — only
  /// sensible for graphs up to a few hundred nodes).
  bool track_objective = false;
  ResistanceSketchOptions resistance;
};

/// Result of the iterative learning loop.
struct SglResult {
  Graph graph;
  /// F(Θ) per iteration when track_objective is set (else empty).
  std::vector<double> objective_history;
  std::size_t edges_pruned = 0;
};

/// Maximum-likelihood PGM learning by projected gradient ascent (Eqs. 6–7):
///
///   ∂F/∂w_pq = R_eff(p,q) − ‖Xᵀe_pq‖²
///
/// Each iteration re-estimates all effective resistances (a JL sketch with
/// O(probes) Laplacian solves) and moves every edge weight along the
/// gradient, projecting onto w ≥ floor. This converges to the stationarity
/// condition w_pq = 1/D_pq^data but needs many sweeps — the superlinear
/// behaviour the paper's Phase-2 sparsifier avoids; kept as the reference
/// the one-shot sparsifier's PGM objective is tested against
/// (SglLearning.ComparableObjectiveToOneShotSparsifier).
/// `cache` (optional) hosts the per-iteration Laplacian solvers; the result
/// is bit-identical with or without it.
[[nodiscard]] SglResult learn_pgm_sgl(const Graph& initial,
                                      const linalg::Matrix& data,
                                      const SglOptions& opts = {},
                                      LaplacianSolverCache* cache = nullptr);

/// Exact PGM objective F(Θ) = logdet(Θ) − (1/M)·Tr(XᵀΘX) via dense
/// Cholesky — test oracle and objective tracker (O(n³)).
[[nodiscard]] double pgm_objective(const Graph& g, const linalg::Matrix& data,
                                   double sigma2);

}  // namespace cirstag::graphs
