#include "graphs/sgl.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graphs/laplacian.hpp"
#include "graphs/spanning_tree.hpp"
#include "linalg/dense_eigen.hpp"

namespace cirstag::graphs {

namespace {

/// ‖Xᵀ e_pq‖² per edge — the data-distance term of the gradient.
std::vector<double> edge_data_distances(const Graph& g,
                                        const linalg::Matrix& data) {
  std::vector<double> d(g.num_edges(), 0.0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    d[e] = data.row_distance2(ed.u, ed.v);
  }
  return d;
}

}  // namespace

double pgm_objective(const Graph& g, const linalg::Matrix& data,
                     double sigma2) {
  const std::size_t n = g.num_nodes();
  if (data.rows() != n)
    throw std::invalid_argument("pgm_objective: data row mismatch");

  linalg::Matrix theta = laplacian(g).to_dense();
  for (std::size_t i = 0; i < n; ++i) theta(i, i) += 1.0 / sigma2;

  const linalg::Matrix chol = linalg::cholesky(theta);
  double logdet = 0.0;
  for (std::size_t i = 0; i < n; ++i) logdet += 2.0 * std::log(chol(i, i));

  // Tr(XᵀΘX) = Tr(XᵀX)/σ² + Σ w ‖Xᵀe_pq‖².
  double trace = 0.0;
  for (double v : data.data()) trace += v * v;
  trace /= sigma2;
  for (const auto& e : g.edges())
    trace += e.weight * data.row_distance2(e.u, e.v);

  const double m = static_cast<double>(std::max<std::size_t>(data.cols(), 1));
  return logdet - trace / m;
}

SglResult learn_pgm_sgl(const Graph& initial, const linalg::Matrix& data,
                        const SglOptions& opts, LaplacianSolverCache* cache) {
  if (data.rows() != initial.num_nodes())
    throw std::invalid_argument("learn_pgm_sgl: data row mismatch");

  SglResult res;
  res.graph = initial;
  const std::vector<double> d_data = edge_data_distances(res.graph, data);
  const double m = static_cast<double>(std::max<std::size_t>(data.cols(), 1));

  for (std::size_t it = 0; it < opts.iterations; ++it) {
    if (opts.track_objective)
      res.objective_history.push_back(
          pgm_objective(res.graph, data, opts.sigma2));

    const std::vector<double> r_eff =
        edge_effective_resistances(res.graph, opts.resistance, cache);
    for (std::size_t e = 0; e < res.graph.num_edges(); ++e) {
      // ∂F/∂w = R_eff − D_data/M; scale the step by the current weight so
      // updates are relative (weights span orders of magnitude).
      const double grad = r_eff[e] - d_data[e] / m;
      const double w = res.graph.edge(e).weight;
      const double updated =
          std::max(opts.weight_floor, w * (1.0 + opts.step_size * grad * w));
      res.graph.set_weight(e, updated);
    }
  }
  if (opts.track_objective)
    res.objective_history.push_back(
        pgm_objective(res.graph, data, opts.sigma2));

  // Prune collapsed edges, preserving a spanning forest.
  std::vector<double> weights;
  weights.reserve(res.graph.num_edges());
  for (const auto& e : res.graph.edges()) weights.push_back(e.weight);
  if (!weights.empty()) {
    std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                     weights.end());
    const double cutoff =
        opts.prune_fraction_of_median * weights[weights.size() / 2];
    const std::vector<EdgeId> tree = max_weight_spanning_forest(res.graph);
    std::vector<bool> keep(res.graph.num_edges(), false);
    for (EdgeId e : tree) keep[e] = true;
    std::vector<EdgeId> kept;
    for (EdgeId e = 0; e < res.graph.num_edges(); ++e) {
      if (keep[e] || res.graph.edge(e).weight >= cutoff) kept.push_back(e);
      else ++res.edges_pruned;
    }
    res.graph = res.graph.edge_subgraph(kept);
  }
  return res;
}

}  // namespace cirstag::graphs
