#include "graphs/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graphs/kdtree.hpp"
#include "linalg/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"

namespace cirstag::graphs {

namespace {

/// Query points per parallel chunk. Each query is independent and writes
/// only its own result slot, so parallel construction is bit-identical to
/// the serial loop at any thread count.
constexpr std::size_t kKnnQueryGrain = 32;

/// Neighbor candidates of every point: exact, or approximate via a KD-tree
/// over a JL projection with exact full-dimension re-ranking. Opens one
/// `knn.index` span (projection and tree build) and one `knn.query` span
/// (every query and re-rank) under the caller's span.
std::vector<std::vector<Neighbor>> all_knn(const linalg::Matrix& points,
                                           std::size_t k,
                                           const KnnGraphOptions& opts) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const bool approximate = opts.search_dims > 0 && opts.search_dims < d;

  const KdTree tree = [&] {
    const obs::TraceSpan index_span("knn.index", "graphs");
    if (!approximate) return KdTree(points);
    // JL projection: distances are approximately preserved, so the candidate
    // pool found in the projected space almost surely contains the true
    // neighbors, which the exact re-rank below then orders.
    linalg::Rng proj_rng(opts.projection_seed);
    const linalg::Matrix projection = linalg::Matrix::random_normal(
        d, opts.search_dims, proj_rng, 0.0,
        1.0 / std::sqrt(static_cast<double>(opts.search_dims)));
    return KdTree(linalg::matmul(points, projection));
  }();

  const obs::TraceSpan query_span("knn.query", "graphs");
  static const obs::Counter distance_evals("knn.distance_evals");
  std::vector<std::vector<Neighbor>> result(n);
  const std::size_t pool =
      approximate
          ? std::min(n - 1, k * std::max<std::size_t>(opts.oversample, 1))
          : k;
  runtime::parallel_for_chunks(
      0, n, kKnnQueryGrain, [&](std::size_t lo, std::size_t hi) {
        std::uint64_t evals = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          std::vector<Neighbor> hits = tree.knn_of_point(i, pool, &evals);
          if (approximate) {
            for (auto& c : hits)
              c.distance2 = points.row_distance2(i, c.index);
            const auto kept = hits.begin() + static_cast<long>(
                                                 std::min(k, hits.size()));
            std::partial_sort(hits.begin(), kept, hits.end(), nearer);
            hits.erase(kept, hits.end());
          }
          result[i] = std::move(hits);
        }
        distance_evals.add(evals);
      });
  return result;
}

/// Assemble the undirected graph from per-point candidate lists: median
/// relative floor, symmetric dedup, w = 1/(d² + floor), edges in ascending
/// (u, v) order.
Graph assemble_knn_graph(const std::vector<std::vector<Neighbor>>& hits,
                         std::size_t n, const KnnGraphOptions& opts) {
  Graph g(n);

  // Bucket each hit (v, d²) under its smaller endpoint u, a counting sort.
  std::vector<std::size_t> start(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (const Neighbor& nb : hits[i]) ++start[std::min(i, nb.index) + 1];
  for (std::size_t u = 0; u < n; ++u) start[u + 1] += start[u];
  std::vector<std::pair<NodeId, double>> buckets(start[n]);
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    for (const Neighbor& nb : hits[i])
      buckets[next[std::min(i, nb.index)]++] = {
          static_cast<NodeId>(std::max(i, nb.index)), nb.distance2};

  // Relative floor: a fraction of the median kNN squared distance, so the
  // weight dynamic range stays bounded even with coincident points.
  double floor = opts.distance_floor;
  if (opts.relative_floor > 0.0 && !buckets.empty()) {
    std::vector<double> sorted(buckets.size());
    for (std::size_t t = 0; t < sorted.size(); ++t)
      sorted[t] = buckets[t].second;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    floor = std::max(floor, opts.relative_floor * sorted[sorted.size() / 2]);
  }

  // Deduplicate symmetric hits: i->j and j->i yield the same pair with the
  // same distance bits, because the distance kernels are symmetric.
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = buckets.begin() + static_cast<long>(start[u]);
    const auto last = buckets.begin() + static_cast<long>(start[u + 1]);
    std::sort(first, last, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (auto it = first; it != last; ++it) {
      if (it != first && it->first == (it - 1)->first) continue;
      g.add_edge(static_cast<NodeId>(u), it->first,
                 1.0 / (it->second + floor));
    }
  }
  static const obs::Counter builds("knn.builds");
  static const obs::Counter edges("knn.edges");
  builds.add();
  edges.add(g.num_edges());
  return g;
}

}  // namespace

Graph build_knn_graph(const linalg::Matrix& points,
                      const KnnGraphOptions& opts) {
  require_finite_rows(points, "build_knn_graph");
  const std::size_t n = points.rows();
  if (n < 2) return Graph(n);
  const obs::TraceSpan trace_span("knn.build", "graphs");

  const std::size_t k = std::min(opts.k, n - 1);
  const auto hits = all_knn(points, k, opts);
  return assemble_knn_graph(hits, n, opts);
}

}  // namespace cirstag::graphs
