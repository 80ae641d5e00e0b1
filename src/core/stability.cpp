#include "core/stability.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "graphs/coarsen.hpp"
#include "graphs/effective_resistance.hpp"
#include "graphs/laplacian.hpp"
#include "linalg/multilevel_eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"

namespace cirstag::core {

namespace {
/// Nodes/edges per parallel chunk for the score loops; each element is
/// independent, so parallel execution is bit-identical to serial.
constexpr std::size_t kScoreGrain = 256;
}  // namespace

std::vector<double> StabilityResult::scores_for_edges(
    const graphs::Graph& g) const {
  std::vector<double> edges, nodes;
  eq9_scores(g, weighted_subspace, edges, nodes);
  return edges;
}

StabilityResult stability_scores(const graphs::Graph& manifold_x,
                                 const graphs::Graph& manifold_y,
                                 const StabilityOptions& opts,
                                 graphs::LaplacianSolverCache* cache) {
  if (manifold_x.num_nodes() != manifold_y.num_nodes())
    throw std::invalid_argument("stability_scores: manifold size mismatch");
  const std::size_t n = manifold_x.num_nodes();

  const linalg::SparseMatrix l_x = graphs::laplacian(manifold_x);
  const linalg::SparseMatrix l_y = graphs::laplacian(manifold_y);

  linalg::GeneralizedEigenOptions eopts;
  eopts.num_pairs = std::min(opts.eigensubspace_dim, n > 1 ? n - 1 : 1);
  eopts.iterations = opts.subspace_iterations;
  eopts.seed = opts.seed;
  eopts.ly_regularization = 1.0 / opts.sigma2;
  eopts.cg_tolerance = opts.cg_tolerance;
  eopts.cg_max_iterations = opts.cg_max_iterations;
  eopts.ritz_tolerance = opts.ritz_tolerance;

  // Build (or fetch) the (L_Y + I/σ²) solver through the shared path so the
  // rest of the pipeline can reuse it; same construction as the solver
  // generalized_eigen_sparse would build internally.
  graphs::SolverOptions sopts;
  sopts.regularization = eopts.ly_regularization;
  sopts.preconditioner = opts.preconditioner;
  sopts.cg.tolerance = eopts.cg_tolerance;
  sopts.cg.max_iterations = eopts.cg_max_iterations;
  // Deliberate iteration budget (see StabilityOptions::cg_max_iterations):
  // subspace iteration tolerates inexact inner solves, so hitting the cap
  // is normal and must not raise "unconverged" health warnings.
  sopts.cg.budget_bounded = true;
  // Phase 3a: DMD spectrum — the generalized eigenpairs of L_Y^+ L_X.
  std::shared_ptr<const linalg::LaplacianSolver> ly_solver;
  linalg::GeneralizedEigenResult eig;
  {
    const obs::TraceSpan span("phase.dmd", "pipeline");
    if (cache) {
      ly_solver = cache->solver(manifold_y, sopts);
    } else {
      ly_solver = std::make_shared<const linalg::LaplacianSolver>(
          graphs::make_laplacian_solver(manifold_y, sopts));
    }
    if (graphs::coarsen_engaged(opts.coarsen, n)) {
      // Multilevel path (DESIGN.md §12): one shared matching per level over
      // the edge union of both manifolds, coarsest-level solve, then
      // warm-started refinement sweeps up the hierarchy. The finest level
      // reuses the cached (L_Y + I/σ²) solver built above.
      const graphs::CoarsenPairHierarchy hier =
          graphs::coarsen_pair(manifold_x, manifold_y, opts.coarsen);
      std::vector<linalg::SparseMatrix> lx_levels;
      std::vector<linalg::SparseMatrix> ly_levels;
      lx_levels.reserve(hier.maps.size() + 1);
      ly_levels.reserve(hier.maps.size() + 1);
      lx_levels.push_back(l_x);
      ly_levels.push_back(l_y);
      for (std::size_t l = 0; l < hier.maps.size(); ++l) {
        lx_levels.push_back(graphs::laplacian(hier.x_levels[l]));
        ly_levels.push_back(graphs::laplacian(hier.y_levels[l]));
      }
      linalg::MultilevelStats stats;
      eig = linalg::multilevel_generalized_eigen(
          lx_levels, ly_levels, hier.maps, eopts, opts.coarsen.refine_sweeps,
          ly_solver.get(), &stats);
      static const obs::Gauge levels_gauge("coarsen.levels");
      static const obs::Gauge coarsest_gauge("coarsen.coarsest_n");
      levels_gauge.set(static_cast<double>(stats.levels));
      coarsest_gauge.set(static_cast<double>(stats.coarsest_n));
    } else {
      eig =
          linalg::generalized_eigen_sparse(l_x, l_y, eopts, ly_solver.get());
    }
  }

  // Phase 3b: edge/node stability scores from the weighted eigensubspace.
  const obs::TraceSpan span("phase.scores", "pipeline");
  static const obs::Counter score_runs("stability.score_runs");
  score_runs.add();

  StabilityResult out;
  out.subspace_sweeps = eig.sweeps_executed;
  out.eigenvalues = eig.values;
  const std::size_t s = eig.values.size();
  out.weighted_subspace = linalg::Matrix(n, s);
  std::vector<double> col_weight(s);
  for (std::size_t j = 0; j < s; ++j)
    col_weight[j] = std::sqrt(std::max(eig.values[j], 0.0));
  runtime::parallel_for(0, n, kScoreGrain, [&](std::size_t i) {
    for (std::size_t j = 0; j < s; ++j)
      out.weighted_subspace(i, j) = col_weight[j] * eig.vectors(i, j);
  });
  eq9_scores(manifold_x, out.weighted_subspace, out.edge_scores,
             out.node_scores);
  return out;
}

void eq9_scores(const graphs::Graph& manifold_x,
                const linalg::Matrix& weighted_subspace,
                std::vector<double>& edge_scores,
                std::vector<double>& node_scores) {
  const std::size_t n = manifold_x.num_nodes();
  if (weighted_subspace.rows() != n)
    throw std::invalid_argument("eq9_scores: node-count mismatch");

  // Edge scores ‖V_sᵀ e_pq‖² on the input manifold.
  edge_scores.resize(manifold_x.num_edges());
  runtime::parallel_for(0, manifold_x.num_edges(), kScoreGrain,
                        [&](std::size_t e) {
    const auto& ed = manifold_x.edge(e);
    edge_scores[e] = weighted_subspace.row_distance2(ed.u, ed.v);
  });

  // Eq. 9: node score = mean incident edge score over G_X neighbors.
  node_scores.assign(n, 0.0);
  runtime::parallel_for(0, n, kScoreGrain, [&](std::size_t p) {
    const auto nbrs = manifold_x.neighbors(static_cast<graphs::NodeId>(p));
    if (nbrs.empty()) return;
    double acc = 0.0;
    for (const auto& inc : nbrs) acc += edge_scores[inc.edge];
    node_scores[p] = acc / static_cast<double>(nbrs.size());
  });
}

std::vector<double> edge_dmd_ratios(const graphs::Graph& manifold_x,
                                    const graphs::Graph& manifold_y,
                                    double sigma2) {
  if (manifold_x.num_nodes() != manifold_y.num_nodes())
    throw std::invalid_argument("edge_dmd_ratios: manifold size mismatch");
  graphs::SolverOptions sopts;
  sopts.regularization = 1.0 / sigma2;
  const linalg::LaplacianSolver sx =
      graphs::make_laplacian_solver(manifold_x, sopts);
  const linalg::LaplacianSolver sy =
      graphs::make_laplacian_solver(manifold_y, sopts);

  std::vector<double> ratios(manifold_x.num_edges(), 0.0);
  runtime::parallel_for(0, manifold_x.num_edges(), 1, [&](std::size_t e) {
    const auto& ed = manifold_x.edge(e);
    const double dx = graphs::effective_resistance(sx, ed.u, ed.v);
    const double dy = graphs::effective_resistance(sy, ed.u, ed.v);
    ratios[e] = dx > 1e-300 ? dy / dx : 0.0;
  });
  return ratios;
}

}  // namespace cirstag::core
