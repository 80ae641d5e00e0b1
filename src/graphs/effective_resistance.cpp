#include "graphs/effective_resistance.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "graphs/laplacian.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"

namespace cirstag::graphs {

namespace {
/// Edges per chunk for the per-edge distance loops (cheap, memory bound).
constexpr std::size_t kEdgeGrain = 512;

/// Edges per chunk of the exact solver; warm starts chain within a chunk.
constexpr std::size_t kExactChunkGrain = 32;

/// Fetch the solver from the cache (if any) or build a one-shot instance.
std::shared_ptr<const linalg::LaplacianSolver> obtain_solver(
    const Graph& g, const SolverOptions& sopts, LaplacianSolverCache* cache,
    bool* was_hit) {
  if (cache) {
    const std::size_t before = cache->hits();
    auto solver = cache->solver(g, sopts);
    if (was_hit) *was_hit = cache->hits() > before;
    return solver;
  }
  if (was_hit) *was_hit = false;
  return std::make_shared<const linalg::LaplacianSolver>(
      make_laplacian_solver(g, sopts));
}
}  // namespace

double effective_resistance(const linalg::LaplacianSolver& solver, NodeId u,
                            NodeId v) {
  const std::size_t n = solver.dimension();
  if (u >= n || v >= n)
    throw std::out_of_range("effective_resistance: node out of range");
  if (u == v) return 0.0;
  std::vector<double> b(n, 0.0);
  b[u] = 1.0;
  b[v] = -1.0;
  const std::vector<double> x = solver.solve(b);
  return x[u] - x[v];
}

std::vector<double> edge_effective_resistances(
    const Graph& g, const ResistanceSketchOptions& opts,
    LaplacianSolverCache* cache, ResistanceSketchStats* stats) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  if (stats) *stats = {};
  if (m == 0) return {};
  const obs::TraceSpan trace_span("sketch.reff", "graphs");

  SolverOptions sopts;
  sopts.preconditioner = opts.preconditioner;
  sopts.cg.tolerance = opts.cg_tolerance;
  sopts.cg.max_iterations = opts.cg_max_iterations;
  // The sketch's JL error (~1/sqrt(k)) dwarfs a tighter solve, so hitting
  // the iteration cap here is the intended budget, not a health problem.
  sopts.cg.budget_bounded = true;
  bool cache_hit = false;
  auto solver = obtain_solver(g, sopts, cache, &cache_hit);

  linalg::Rng rng(opts.seed);
  const std::size_t k = std::max<std::size_t>(1, opts.num_probes);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));

  // Probe vectors y_i = B^T W^{1/2} q_i, q_i Rademacher over edges, stored
  // as columns of Y. Drawn serially from the single seed stream (probe-major,
  // the historical order) so the sketch is identical at every thread count.
  linalg::Matrix probes(n, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t e = 0; e < m; ++e) {
      const Edge& ed = g.edge(e);
      const double q = rng.rademacher() * inv_sqrt_k * std::sqrt(ed.weight);
      probes(ed.u, i) += q;
      probes(ed.v, i) -= q;
    }
  }

  // Z columns z_i = L^+ y_i, all probes in one block-CG call.
  linalg::BlockSolveStats bstats;
  const linalg::Matrix z = solver->solve_block(probes, nullptr, &bstats);

  std::vector<double> r(m, 0.0);
  runtime::parallel_for_chunks(0, m, kEdgeGrain,
                               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      const Edge& ed = g.edge(e);
      const auto zu = z.row(ed.u);
      const auto zv = z.row(ed.v);
      double s = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        const double d = zu[i] - zv[i];
        s += d * d;
      }
      r[e] = s;
    }
  });

  static const obs::Counter sketch_runs("sketch.runs");
  static const obs::Counter sketch_iters("sketch.cg_iterations");
  static const obs::Counter sketch_cache_hits("sketch.cache_hits");
  sketch_runs.add();
  sketch_iters.add(bstats.total_iterations);
  if (cache_hit) sketch_cache_hits.add();
  if (stats) {
    stats->cg_iterations = bstats.total_iterations;
    stats->cache_hit = cache_hit;
  }
  return r;
}

std::vector<double> edge_effective_resistances_exact(
    const Graph& g, const ExactResistanceOptions& opts) {
  SolverOptions sopts;
  sopts.preconditioner = opts.preconditioner;
  sopts.cg = opts.cg;
  const linalg::LaplacianSolver solver = make_laplacian_solver(g, sopts);
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  std::vector<double> r(m, 0.0);
  runtime::parallel_for_chunks(0, m, kExactChunkGrain,
                               [&](std::size_t lo, std::size_t hi) {
    std::vector<double> b(n, 0.0);
    std::vector<double> prev;  // previous edge's solution in this chunk
    for (std::size_t e = lo; e < hi; ++e) {
      const Edge& ed = g.edge(e);
      b[ed.u] = 1.0;
      b[ed.v] = -1.0;
      std::vector<double> x =
          (opts.warm_start && !prev.empty())
              ? solver.solve(b, prev)
              : solver.solve(b);
      r[e] = x[ed.u] - x[ed.v];
      b[ed.u] = 0.0;
      b[ed.v] = 0.0;
      if (opts.warm_start) prev = std::move(x);
    }
  });
  return r;
}

}  // namespace cirstag::graphs
