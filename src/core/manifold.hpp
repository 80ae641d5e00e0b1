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
/// `capture` (optional) receives the kNN baseline for later
/// build_manifold_delta calls; the manifold is the same bytes either way.
[[nodiscard]] graphs::Graph build_manifold(
    const linalg::Matrix& embedding, const ManifoldOptions& opts = {},
    graphs::LaplacianSolverCache* cache = nullptr,
    graphs::KnnBaseline* capture = nullptr);

/// Fast-mode manifold rebuild for an embedding whose rows moved only at
/// `moved_rows`: delta kNN re-query against the baseline lists (see
/// graphs::update_knn_graph for the documented approximation), then the
/// normal normalize/connect/sparsify tail. With empty `moved_rows` the kNN
/// stage reproduces the baseline graph exactly.
[[nodiscard]] graphs::Graph build_manifold_delta(
    const graphs::KnnBaseline& baseline, const linalg::Matrix& embedding,
    std::span<const std::uint32_t> moved_rows, const ManifoldOptions& opts = {},
    graphs::LaplacianSolverCache* cache = nullptr,
    graphs::KnnUpdateStats* stats = nullptr);

}  // namespace cirstag::core
