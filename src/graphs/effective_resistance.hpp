#pragma once

#include <vector>

#include "graphs/graph.hpp"
#include "graphs/solver_cache.hpp"
#include "linalg/cg.hpp"

namespace cirstag::graphs {

/// Exact effective resistance between two nodes via a Laplacian solve:
/// R_eff(u,v) = (e_u - e_v)^T L^+ (e_u - e_v). The graph must be connected
/// (or u, v in the same component).
[[nodiscard]] double effective_resistance(const linalg::LaplacianSolver& solver,
                                          NodeId u, NodeId v);

/// Options for the sketched all-edges effective-resistance estimator.
struct ResistanceSketchOptions {
  std::size_t num_probes = 24;   ///< JL dimension k (error ~ 1/sqrt(k))
  /// Solver budget per probe. The JL sketch itself carries ~1/sqrt(k)
  /// relative error, so tight CG tolerances buy nothing; a bounded
  /// iteration count keeps the sketch near-linear on ill-conditioned
  /// weighted kNN graphs.
  double cg_tolerance = 1e-6;
  std::size_t cg_max_iterations = 300;
  std::uint64_t seed = 7;
  /// Preconditioner for the probe solves. Jacobi reproduces the historical
  /// iterates bit-for-bit; spanning_tree typically converges in far fewer
  /// iterations but follows a different (equally valid) iterate path.
  SolverPreconditioner preconditioner = SolverPreconditioner::jacobi;
};

/// Diagnostics from one sketch run (all optional to consume).
struct ResistanceSketchStats {
  std::size_t cg_iterations = 0;  ///< Σ iterations across probe solves
  bool cache_hit = false;         ///< solver came from the cache
};

/// Approximate effective resistance of every edge of `g` simultaneously
/// using the Spielman–Srivastava Johnson–Lindenstrauss sketch:
///   Z = Q W^{1/2} B L^+,  R_eff(u,v) ≈ ||Z(e_u - e_v)||²,
/// computed with `num_probes` Laplacian solves. This is the near-linear
/// R_eff engine backing the paper's η = w·R_eff pruning criterion (Eq. 8)
/// and LRD decomposition.
///
/// `cache` (optional) reuses/persists the Laplacian solver across calls with
/// the same graph and solver options — the cross-phase solver cache.
[[nodiscard]] std::vector<double> edge_effective_resistances(
    const Graph& g, const ResistanceSketchOptions& opts = {},
    LaplacianSolverCache* cache = nullptr,
    ResistanceSketchStats* stats = nullptr);

/// Options for the exact per-edge solver (satellite of the sketch).
struct ExactResistanceOptions {
  linalg::CgOptions cg;  ///< defaults: 1e-10 tolerance, 2000 iterations
  SolverPreconditioner preconditioner = SolverPreconditioner::jacobi;
  /// Chain each solve from the previous edge's solution within a chunk of
  /// 32 edges — consecutive edges share endpoints in kNN graphs, so the
  /// guesses are close. Chunk boundaries are fixed by that constant alone,
  /// keeping results thread-count independent.
  bool warm_start = true;
};

/// Exact per-edge effective resistances (one solve per edge); quadratic-ish,
/// used as a test oracle and for small graphs.
[[nodiscard]] std::vector<double> edge_effective_resistances_exact(
    const Graph& g, const ExactResistanceOptions& opts = {});

}  // namespace cirstag::graphs
