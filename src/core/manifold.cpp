#include "core/manifold.hpp"

#include <algorithm>
#include <vector>

#include "graphs/components.hpp"
#include "obs/metrics.hpp"

namespace cirstag::core {

namespace {

/// Rescale all edge weights so the median weight becomes 1.
graphs::Graph normalize_median_weight(const graphs::Graph& g) {
  if (g.num_edges() == 0) return g;
  std::vector<double> weights;
  weights.reserve(g.num_edges());
  for (const auto& e : g.edges()) weights.push_back(e.weight);
  std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                   weights.end());
  const double median = weights[weights.size() / 2];
  if (median <= 0.0) return g;
  graphs::Graph out(g.num_nodes());
  for (const auto& e : g.edges()) out.add_edge(e.u, e.v, e.weight / median);
  return out;
}

}  // namespace

graphs::Graph build_manifold(const linalg::Matrix& embedding,
                             const ManifoldOptions& opts,
                             graphs::LaplacianSolverCache* cache) {
  graphs::Graph knn = graphs::build_knn_graph(embedding, opts.knn);
  static const obs::Counter builds("manifold.builds");
  static const obs::Counter knn_edges("manifold.knn_edges");
  static const obs::Counter final_edges("manifold.final_edges");
  builds.add();
  knn = normalize_median_weight(knn);
  knn = graphs::connect_components(knn, opts.bridge_weight);
  knn_edges.add(knn.num_edges());
  if (!opts.apply_sparsification) {
    final_edges.add(knn.num_edges());
    return knn;
  }
  graphs::SparsifyResult sparse =
      graphs::sparsify_pgm(knn, opts.sparsify, cache);
  final_edges.add(sparse.graph.num_edges());
  return std::move(sparse.graph);
}

}  // namespace cirstag::core
