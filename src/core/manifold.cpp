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

/// Shared tail of every manifold build: median normalization, component
/// bridging, PGM sparsification.
graphs::Graph finish_manifold(graphs::Graph knn, const ManifoldOptions& opts,
                              graphs::LaplacianSolverCache* cache) {
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

}  // namespace

graphs::Graph build_manifold(const linalg::Matrix& embedding,
                             const ManifoldOptions& opts,
                             graphs::LaplacianSolverCache* cache,
                             graphs::KnnBaseline* capture) {
  return finish_manifold(
      capture != nullptr
          ? graphs::capture_knn_baseline(embedding, *capture, opts.knn)
          : graphs::build_knn_graph(embedding, opts.knn),
      opts, cache);
}

graphs::Graph build_manifold_delta(const graphs::KnnBaseline& baseline,
                                   const linalg::Matrix& embedding,
                                   std::span<const std::uint32_t> moved_rows,
                                   const ManifoldOptions& opts,
                                   graphs::LaplacianSolverCache* cache,
                                   graphs::KnnUpdateStats* stats) {
  return finish_manifold(graphs::update_knn_graph(baseline, embedding,
                                                  moved_rows, opts.knn, stats),
                         opts, cache);
}

}  // namespace cirstag::core
