#pragma once

#include "graphs/graph.hpp"
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
/// std::invalid_argument naming the first row that holds a NaN or ±Inf.
[[nodiscard]] Graph build_knn_graph(const linalg::Matrix& points,
                                    const KnnGraphOptions& opts = {});

}  // namespace cirstag::graphs
