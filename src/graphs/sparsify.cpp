#include "graphs/sparsify.hpp"

#include <algorithm>
#include <numeric>

#include "graphs/spanning_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cirstag::graphs {

SparsifyResult sparsify_pgm(const Graph& g, const SparsifyOptions& opts,
                            LaplacianSolverCache* cache) {
  SparsifyResult out;
  const std::size_t m = g.num_edges();
  if (m == 0) {
    out.graph = g;
    return out;
  }
  const obs::TraceSpan trace_span("sparsify.pgm", "graphs");

  const std::vector<double> r_eff =
      edge_effective_resistances(g, opts.resistance, cache);

  out.eta.resize(m);
  for (std::size_t e = 0; e < m; ++e)
    out.eta[e] = g.edge(e).weight * r_eff[e];

  const std::vector<EdgeId> tree = max_weight_spanning_forest(g);
  out.tree_edges = tree.size();
  std::vector<bool> in_tree(m, false);
  for (EdgeId e : tree) in_tree[e] = true;

  std::vector<EdgeId> offtree;
  offtree.reserve(m - tree.size());
  for (EdgeId e = 0; e < m; ++e)
    if (!in_tree[e]) offtree.push_back(e);

  // Rank the off-tree edges by η descending; keep the top fraction.
  std::sort(offtree.begin(), offtree.end(),
            [&](EdgeId a, EdgeId b) { return out.eta[a] > out.eta[b]; });
  const auto frac = std::clamp(opts.offtree_keep_fraction, 0.0, 1.0);
  const auto keep_count = static_cast<std::size_t>(
      frac * static_cast<double>(offtree.size()) + 0.5);

  out.kept_edges = tree;
  out.kept_edges.insert(out.kept_edges.end(), offtree.begin(),
                        offtree.begin() + static_cast<long>(keep_count));
  std::sort(out.kept_edges.begin(), out.kept_edges.end());
  out.graph = g.edge_subgraph(out.kept_edges);
  static const obs::Counter runs("sparsify.runs");
  static const obs::Counter input_edges("sparsify.input_edges");
  static const obs::Counter kept_edges("sparsify.kept_edges");
  static const obs::Counter tree_edges("sparsify.tree_edges");
  runs.add();
  input_edges.add(m);
  kept_edges.add(out.kept_edges.size());
  tree_edges.add(out.tree_edges);
  return out;
}

}  // namespace cirstag::graphs
