#pragma once

#include "graphs/graph.hpp"
#include "graphs/knn.hpp"
#include "graphs/sparsify.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::core {

/// Options for CirSTAG Phase 2 (graph-based manifold construction via PGM).
struct ManifoldOptions {
  graphs::KnnGraphOptions knn;
  graphs::SparsifyOptions sparsify;
  /// Skip the spectral-sparsification refinement and use the raw kNN graph
  /// (ablation knob; the paper's full pipeline sparsifies).
  bool apply_sparsification = true;
  /// Weight used for bridges inserted to reconnect kNN components
  /// (relative to the post-normalization scale).
  double bridge_weight = 1e-3;
};

/// Build a graph-based manifold over embedding rows: kNN graph with
/// PGM-stationary weights w = 1/dist², rescaled so the median weight is 1,
/// reconnected if the kNN graph is disconnected (effective resistance needs
/// a connected support), then refined by η-pruning spectral sparsification
/// (Eq. 8). Stability scores are invariant to a global rescaling of each
/// manifold, but the absolute scale of 1/dist² weights varies wildly across
/// embeddings and would otherwise wreck the conditioning of the Laplacian
/// solves in Phase 3.
///
/// `cache` (optional) is forwarded to the sparsifier's resistance sketch.
[[nodiscard]] graphs::Graph build_manifold(
    const linalg::Matrix& embedding, const ManifoldOptions& opts = {},
    graphs::LaplacianSolverCache* cache = nullptr);

}  // namespace cirstag::core
