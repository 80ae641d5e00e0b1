#pragma once

#include <span>
#include <vector>

#include "graphs/graph.hpp"
#include "graphs/kdtree.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::graphs {

/// Options for the initial dense manifold graph (CirSTAG Phase 2a).
struct KnnGraphOptions {
  std::size_t k = 10;
  /// Absolute floor added to squared distances before inversion so
  /// coincident points get a large-but-finite weight.
  double distance_floor = 1e-12;
  /// Relative floor as a fraction of the median kNN squared distance.
  /// Structurally-equivalent circuit nodes embed to (nearly) identical
  /// coordinates; without a relative floor their edges would get weights
  /// orders of magnitude above everything else and dominate the PGM
  /// spectrum. 0 disables.
  double relative_floor = 0.01;
  /// Approximate search: the KD-tree indexes a `search_dims`-dimensional
  /// Johnson–Lindenstrauss random projection of the points (where KD
  /// pruning is effective), retrieves `k * oversample` candidates, and
  /// re-ranks them with exact full-dimension distances.
  /// 0 = exact search in full dimension.
  std::size_t search_dims = 8;
  std::size_t oversample = 6;
  std::uint64_t projection_seed = 909;
};

/// Build the mutual kNN graph over the rows of `points`.
///
/// Edge weights follow the PGM stationarity condition (Eq. 7):
/// ∂F2/∂w_pq = D_pq^data = 1/w_pq, i.e. w_pq = 1 / ||x_p - x_q||².
/// An undirected edge appears once even if the relation holds both ways.
/// Every neighbor list is in (distance², index) order. Throws
/// std::invalid_argument naming the first row that holds a NaN or ±Inf; so
/// do capture_knn_baseline and update_knn_graph.
[[nodiscard]] Graph build_knn_graph(const linalg::Matrix& points,
                                    const KnnGraphOptions& opts = {});

/// Frozen result of one kNN build: the points, every point's candidate
/// list and the k they were queried with. The baseline that
/// update_knn_graph patches for perturbation-sweep variants.
struct KnnBaseline {
  linalg::Matrix points;
  std::vector<std::vector<Neighbor>> hits;  ///< per-point nearest neighbors
  std::size_t k = 0;
};

/// Reuse accounting of one update_knn_graph call.
struct KnnUpdateStats {
  std::size_t requeried_points = 0;  ///< points whose kNN query re-ran
  std::size_t total_points = 0;
};

/// build_knn_graph that also keeps the points and the per-point candidate
/// lists in `baseline`; the returned graph is byte-identical to
/// build_knn_graph(points, opts).
[[nodiscard]] Graph capture_knn_baseline(const linalg::Matrix& points,
                                         KnnBaseline& baseline,
                                         const KnnGraphOptions& opts = {});

/// Delta kNN re-query for a variant whose rows differ from the baseline
/// only at `moved_rows`: re-queries the moved points plus every point whose
/// baseline list references a moved point, reusing all other lists, then
/// reassembles the graph (including the median relative floor) from the
/// merged lists.
///
/// Approximation (fast sweep mode only): a stationary point that would
/// newly pick up a moved point as a neighbor is caught when the moved
/// point's fresh list names it (the undirected union), but not when the
/// relation is one-sided — those few edges can differ from a full rebuild.
/// With an empty `moved_rows` the result is byte-identical to the baseline
/// graph.
[[nodiscard]] Graph update_knn_graph(const KnnBaseline& baseline,
                                     const linalg::Matrix& points,
                                     std::span<const std::uint32_t> moved_rows,
                                     const KnnGraphOptions& opts = {},
                                     KnnUpdateStats* stats = nullptr);

}  // namespace cirstag::graphs
