// Tests for the fast Laplacian-solve engine: blocked multi-RHS CG
// bit-identity, the spanning-tree preconditioner, CG breakdown reporting,
// and the cross-phase solver cache.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graphs/effective_resistance.hpp"
#include "graphs/sgl.hpp"
#include "graphs/solver_cache.hpp"
#include "graphs/spanning_tree.hpp"
#include "linalg/block_cg.hpp"
#include "linalg/cg.hpp"
#include "linalg/rng.hpp"
#include "linalg/tree_precond.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cirstag;
using graphs::Graph;
using graphs::LaplacianSolverCache;
using graphs::SolverOptions;
using graphs::SolverPreconditioner;
using linalg::Matrix;

/// Ring + random chords: connected, irregular weights.
Graph random_connected_graph(std::size_t n, std::size_t chords,
                             std::uint64_t seed) {
  linalg::Rng rng(seed);
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i)
    g.add_edge(static_cast<graphs::NodeId>(i),
               static_cast<graphs::NodeId>((i + 1) % n),
               rng.uniform(0.5, 2.0));
  for (std::size_t c = 0; c < chords; ++c) {
    const auto u = static_cast<graphs::NodeId>(rng.index(n));
    const auto v = static_cast<graphs::NodeId>(rng.index(n));
    if (u != v) g.add_edge(u, v, rng.uniform(0.1, 3.0));
  }
  return g;
}

Matrix random_rhs(std::size_t n, std::size_t k, std::uint64_t seed,
                  bool deflate) {
  linalg::Rng rng(seed);
  Matrix b(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> col(n);
    for (auto& v : col) v = rng.normal();
    if (deflate) linalg::deflate_constant(col);
    b.set_col(j, col);
  }
  return b;
}

/// Every column of a k-column solve_block must equal the corresponding
/// k = 1 solve() bit-for-bit — the core contract of the blocked engine. The
/// block runs on a 4-lane pool, so k > 4 splits into column groups.
void expect_block_matches_single(const linalg::LaplacianSolver& solver,
                                 const Matrix& rhs,
                                 const Matrix* guess = nullptr) {
  runtime::set_global_threads(4);
  const Matrix z = solver.solve_block(rhs, guess);
  runtime::set_global_threads(0);
  for (std::size_t j = 0; j < rhs.cols(); ++j) {
    const std::vector<double> b = rhs.col(j);
    const std::vector<double> x =
        guess ? solver.solve(b, guess->col(j)) : solver.solve(b);
    for (std::size_t i = 0; i < rhs.rows(); ++i)
      EXPECT_EQ(z(i, j), x[i]) << "column " << j << " row " << i;
  }
}

TEST(BlockCg, BitIdenticalToSingleRhsJacobiSingular) {
  const Graph g = random_connected_graph(60, 80, 11);
  const auto solver = graphs::make_laplacian_solver(g);
  expect_block_matches_single(solver, random_rhs(60, 10, 21, true));
}

TEST(BlockCg, BitIdenticalToSingleRhsTreeSingular) {
  const Graph g = random_connected_graph(60, 80, 12);
  SolverOptions opts;
  opts.preconditioner = SolverPreconditioner::spanning_tree;
  const auto solver = graphs::make_laplacian_solver(g, opts);
  ASSERT_TRUE(solver.has_tree_preconditioner());
  expect_block_matches_single(solver, random_rhs(60, 10, 22, true));
}

TEST(BlockCg, BitIdenticalToSingleRhsRegularized) {
  const Graph g = random_connected_graph(50, 60, 13);
  SolverOptions opts;
  opts.regularization = 1e-4;
  const auto solver = graphs::make_laplacian_solver(g, opts);
  expect_block_matches_single(solver, random_rhs(50, 4, 23, false));

  // The Phase-3 configuration — Jacobi, shift 1e-4 — at k = 10: groups of
  // 4, 4 and 2, the last with a masked 2-column tail, cold and warm.
  const Matrix rhs = random_rhs(50, 10, 29, false);
  const Matrix guess = random_rhs(50, 10, 30, false);
  expect_block_matches_single(solver, rhs);
  expect_block_matches_single(solver, rhs, &guess);
  // Columns retire mid-block: their iteration counts are not all equal.
  linalg::BlockSolveStats stats;
  (void)solver.solve_block(rhs, nullptr, &stats);
  EXPECT_LT(stats.total_iterations, rhs.cols() * stats.max_iterations);
}

TEST(BlockCg, BitIdenticalToSingleRhsWithInitialGuess) {
  const Graph g = random_connected_graph(50, 60, 14);
  SolverOptions opts;
  opts.regularization = 1e-4;
  opts.preconditioner = SolverPreconditioner::spanning_tree;
  const auto solver = graphs::make_laplacian_solver(g, opts);
  const Matrix rhs = random_rhs(50, 4, 24, false);
  const Matrix guess = random_rhs(50, 4, 25, false);
  expect_block_matches_single(solver, rhs, &guess);
}

TEST(BlockCg, ThreadCountDoesNotChangeBits) {
  const Graph g = random_connected_graph(120, 200, 15);
  SolverOptions opts;
  opts.preconditioner = SolverPreconditioner::spanning_tree;
  const auto solver = graphs::make_laplacian_solver(g, opts);
  const Matrix rhs = random_rhs(120, 10, 26, true);  // groups of 4, 4, 2

  runtime::set_global_threads(1);
  const Matrix z1 = solver.solve_block(rhs);
  runtime::set_global_threads(4);
  const Matrix z4 = solver.solve_block(rhs);
  runtime::set_global_threads(0);

  for (std::size_t i = 0; i < z1.rows(); ++i)
    for (std::size_t j = 0; j < z1.cols(); ++j)
      EXPECT_EQ(z1(i, j), z4(i, j));

  // Regularized Jacobi: one 10-wide loop on 1 lane, groups of 4, 4 and 2
  // on 4 lanes.
  SolverOptions reg;
  reg.regularization = 1e-4;
  const auto jacobi = graphs::make_laplacian_solver(g, reg);
  const Matrix wide = random_rhs(120, 10, 31, false);
  runtime::set_global_threads(1);
  const Matrix w1 = jacobi.solve_block(wide);
  runtime::set_global_threads(4);
  const Matrix w4 = jacobi.solve_block(wide);
  runtime::set_global_threads(0);

  for (std::size_t i = 0; i < w1.rows(); ++i)
    for (std::size_t j = 0; j < w1.cols(); ++j)
      EXPECT_EQ(w1(i, j), w4(i, j));
}

TEST(BlockCg, ColumnGroupsDispatchOncePerSolve) {
  // n·k = 32,000 elements: large enough that a row-parallel update would
  // wake the pool on every iteration. Each 4-column group is one task, so
  // the whole 50-iteration solve is a single pool run.
  const Graph g = random_connected_graph(4000, 200, 17);
  SolverOptions opts;
  opts.cg.max_iterations = 50;
  opts.cg.budget_bounded = true;
  const auto solver = graphs::make_laplacian_solver(g, opts);
  const Matrix rhs = random_rhs(4000, 8, 28, true);

  runtime::set_global_threads(4);
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t runs_before = reg.counter_value("runtime.pool.runs");
  linalg::BlockSolveStats stats;
  (void)solver.solve_block(rhs, nullptr, &stats);
  const std::uint64_t runs =
      reg.counter_value("runtime.pool.runs") - runs_before;
  runtime::set_global_threads(0);

  EXPECT_EQ(stats.max_iterations, 50u);
  EXPECT_LE(runs, 4u);
}

TEST(BlockCg, ZeroColumnsConvergeImmediately) {
  const Graph g = random_connected_graph(30, 20, 16);
  const auto solver = graphs::make_laplacian_solver(g);
  Matrix rhs = random_rhs(30, 3, 27, true);
  for (std::size_t i = 0; i < 30; ++i) rhs(i, 1) = 0.0;  // zero middle column
  linalg::BlockSolveStats stats;
  const Matrix z = solver.solve_block(rhs, nullptr, &stats);
  EXPECT_TRUE(stats.all_converged);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(z(i, 1), 0.0);
}

TEST(TreePreconditioner, ExactOnTreeGraphs) {
  // On a spanning tree the preconditioner is the exact inverse, so CG needs
  // only a couple of iterations regardless of the tree's conditioning.
  linalg::Rng rng(31);
  Graph g(64);
  for (std::size_t i = 1; i < 64; ++i)
    g.add_edge(static_cast<graphs::NodeId>(rng.index(i)),
               static_cast<graphs::NodeId>(i), rng.uniform(0.01, 100.0));
  SolverOptions opts;
  opts.preconditioner = SolverPreconditioner::spanning_tree;
  const auto solver = graphs::make_laplacian_solver(g, opts);

  std::vector<double> b(64);
  for (auto& v : b) v = rng.normal();
  linalg::deflate_constant(b);
  Matrix rhs(64, 1);
  rhs.set_col(0, b);
  linalg::BlockSolveStats stats;
  (void)solver.solve_block(rhs, nullptr, &stats);
  EXPECT_LE(stats.total_iterations, 3u);
  EXPECT_LT(stats.max_residual, 1e-10);
}

TEST(TreePreconditioner, AgreesWithJacobiWithinTolerance) {
  const Graph g = random_connected_graph(80, 160, 32);
  SolverOptions jac;
  SolverOptions tree;
  tree.preconditioner = SolverPreconditioner::spanning_tree;
  const auto sj = graphs::make_laplacian_solver(g, jac);
  const auto st = graphs::make_laplacian_solver(g, tree);

  linalg::Rng rng(33);
  std::vector<double> b(80);
  for (auto& v : b) v = rng.normal();
  linalg::deflate_constant(b);
  const auto xj = sj.solve(b);
  const auto xt = st.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xj[i], xt[i], 1e-7);
}

TEST(TreePreconditioner, CutsIterationsOnIllConditionedGraphs) {
  // Weights spanning 4 orders of magnitude: Jacobi struggles, the tree
  // preconditioner absorbs the dominant backbone.
  linalg::Rng rng(34);
  Graph g(200);
  for (std::size_t i = 0; i + 1 < 200; ++i)
    g.add_edge(static_cast<graphs::NodeId>(i),
               static_cast<graphs::NodeId>(i + 1), rng.uniform(1.0, 1e4));
  for (std::size_t c = 0; c < 100; ++c) {
    const auto u = static_cast<graphs::NodeId>(rng.index(200));
    const auto v = static_cast<graphs::NodeId>(rng.index(200));
    if (u != v) g.add_edge(u, v, rng.uniform(1e-2, 1.0));
  }
  SolverOptions jac;
  SolverOptions tree;
  tree.preconditioner = SolverPreconditioner::spanning_tree;
  const auto sj = graphs::make_laplacian_solver(g, jac);
  const auto st = graphs::make_laplacian_solver(g, tree);
  std::vector<double> b(200);
  for (auto& v : b) v = rng.normal();
  linalg::deflate_constant(b);
  Matrix rhs(200, 1);
  rhs.set_col(0, b);
  linalg::BlockSolveStats jacobi_stats, tree_stats;
  (void)sj.solve_block(rhs, nullptr, &jacobi_stats);
  (void)st.solve_block(rhs, nullptr, &tree_stats);
  EXPECT_LT(tree_stats.total_iterations, jacobi_stats.total_iterations);
}

/// -I on n rows: negative definite, so pᵀAp < 0 on the very first
/// iteration. Solved as plain CG (unit inverse diagonal).
linalg::SparseMatrix negative_identity(std::size_t n) {
  std::vector<linalg::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) t.push_back({i, i, -1.0});
  return linalg::SparseMatrix::from_triplets(n, n, std::move(t));
}

TEST(CgBreakdown, IndefiniteOperatorSetsFlagAndResidual) {
  const linalg::SparseMatrix op = negative_identity(3);
  const std::vector<double> unit(3, 1.0);
  Matrix b(3, 1);
  b(0, 0) = 1.0;
  b(1, 0) = 2.0;
  b(2, 0) = 3.0;
  const auto res = linalg::block_conjugate_gradient({op, 0.0, unit}, b);
  EXPECT_TRUE(res.breakdown[0]);
  EXPECT_FALSE(res.converged[0]);
  EXPECT_EQ(res.iterations[0], 0u);
  EXPECT_DOUBLE_EQ(res.residuals[0], 1.0);  // nothing solved: ||r|| == ||b||
}

TEST(CgBreakdown, SolveBlockReportsBreakdownEvenWhenBudgeted) {
  // A negative-definite operator (-I + 0.5 I) through the production entry
  // point, with the budget-bounded options every pipeline solve uses: the
  // breakdown must surface as cg.breakdown, not as an iteration-cap event.
  linalg::CgOptions opts;
  opts.budget_bounded = true;
  linalg::LaplacianSolver solver(
      linalg::SparseMatrix::from_triplets(
          3, 3, {{0, 0, -1.0}, {1, 1, -1.0}, {2, 2, -1.0}}),
      /*regularization=*/0.5, opts);
  Matrix b(3, 1);
  b(0, 0) = 1.0;
  b(2, 0) = -2.0;
  const std::uint64_t begin = obs::HealthMonitor::global().next_index();
  (void)solver.solve_block(b);
  const obs::HealthReport health =
      obs::HealthMonitor::global().collect_since(begin);
  ASSERT_EQ(health.events.size(), 1u) << health.to_json();
  EXPECT_EQ(health.events[0].kind, "cg.breakdown");
  EXPECT_EQ(health.events[0].severity, obs::HealthSeverity::warning);
  EXPECT_DOUBLE_EQ(health.events[0].value, 1.0);

  // A budget too small for the residual to fall below kBudgetResidualAlarm,
  // on 8 columns that a 4-lane pool splits into two groups: the call still
  // reports one cg.unconverged event covering all of them.
  SolverOptions capped;
  capped.cg.max_iterations = 1;
  capped.cg.budget_bounded = true;
  const Graph g = random_connected_graph(200, 300, 18);
  const auto capped_solver = graphs::make_laplacian_solver(g, capped);
  runtime::set_global_threads(4);
  const std::uint64_t capped_begin = obs::HealthMonitor::global().next_index();
  linalg::BlockSolveStats stats;
  (void)capped_solver.solve_block(random_rhs(200, 8, 29, true), nullptr,
                                  &stats);
  const obs::HealthReport capped_health =
      obs::HealthMonitor::global().collect_since(capped_begin);
  runtime::set_global_threads(0);
  EXPECT_GT(stats.max_residual, linalg::kBudgetResidualAlarm);
  ASSERT_EQ(capped_health.events.size(), 1u) << capped_health.to_json();
  EXPECT_EQ(capped_health.events[0].kind, "cg.unconverged");
  EXPECT_NE(capped_health.events[0].detail.find("8 of 8"), std::string::npos)
      << capped_health.events[0].detail;
}

TEST(CgBreakdown, BlockReportsPerColumn) {
  const linalg::SparseMatrix op = negative_identity(3);
  const std::vector<double> unit(3, 1.0);
  Matrix b(3, 2);
  b(0, 0) = 1.0;
  b(1, 1) = 2.0;
  const auto res = linalg::block_conjugate_gradient({op, 0.0, unit}, b);
  EXPECT_FALSE(res.all_converged());
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_TRUE(res.breakdown[j]);
    EXPECT_FALSE(res.converged[j]);
    EXPECT_DOUBLE_EQ(res.residuals[j], 1.0);
  }
}

TEST(ResistanceSketch, FastPathMatchesExactWithinJlError) {
  const Graph g = random_connected_graph(80, 120, 41);
  graphs::ExactResistanceOptions exact_opts;
  const auto exact = graphs::edge_effective_resistances_exact(g, exact_opts);

  graphs::ResistanceSketchOptions opts;
  opts.num_probes = 400;
  opts.preconditioner = SolverPreconditioner::spanning_tree;
  const auto approx = graphs::edge_effective_resistances(g, opts);

  ASSERT_EQ(exact.size(), approx.size());
  double worst = 0.0;
  for (std::size_t e = 0; e < exact.size(); ++e) {
    const double rel = std::abs(approx[e] - exact[e]) / exact[e];
    worst = std::max(worst, rel);
  }
  // JL error ~ 1/sqrt(k) = 0.05; allow generous slack for the tail.
  EXPECT_LT(worst, 0.35);
}

TEST(ExactResistance, WarmStartMatchesColdWithinTolerance) {
  const Graph g = random_connected_graph(50, 80, 43);
  graphs::ExactResistanceOptions cold;
  cold.warm_start = false;
  graphs::ExactResistanceOptions warm;
  warm.warm_start = true;
  const auto rc = graphs::edge_effective_resistances_exact(g, cold);
  const auto rw = graphs::edge_effective_resistances_exact(g, warm);
  ASSERT_EQ(rc.size(), rw.size());
  for (std::size_t e = 0; e < rc.size(); ++e)
    EXPECT_NEAR(rc[e], rw[e], 1e-7 * (1.0 + rc[e]));
}

TEST(GraphFingerprint, TracksContent) {
  Graph a = random_connected_graph(20, 10, 51);
  const Graph copy = a;
  EXPECT_EQ(a.fingerprint(), copy.fingerprint());

  const auto before = a.fingerprint();
  a.set_weight(0, 42.0);
  EXPECT_FALSE(a.fingerprint() == before);

  Graph b = random_connected_graph(20, 10, 51);
  b.add_nodes(1);
  EXPECT_FALSE(b.fingerprint() == copy.fingerprint());
}

TEST(SolverCache, HitsOnSameGraphMissesAfterMutation) {
  LaplacianSolverCache cache;
  Graph g = random_connected_graph(30, 30, 52);
  const SolverOptions opts;
  const auto s1 = cache.solver(g, opts);
  const auto s2 = cache.solver(g, opts);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  const Graph copy = g;  // same content, different object: still a hit
  EXPECT_EQ(cache.solver(copy, opts).get(), s1.get());
  EXPECT_EQ(cache.hits(), 2u);

  g.set_weight(0, 9.0);
  const auto s3 = cache.solver(g, opts);
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(cache.misses(), 2u);

  SolverOptions tree;
  tree.preconditioner = SolverPreconditioner::spanning_tree;
  EXPECT_NE(cache.solver(copy, tree).get(), s1.get());  // options in the key
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(SolverCache, SketchIsBitIdenticalWithAndWithoutCache) {
  const Graph g = random_connected_graph(60, 90, 53);
  graphs::ResistanceSketchOptions opts;
  opts.num_probes = 8;
  LaplacianSolverCache cache;
  const auto plain = graphs::edge_effective_resistances(g, opts);
  const auto cached = graphs::edge_effective_resistances(g, opts, &cache);
  ASSERT_EQ(plain.size(), cached.size());
  for (std::size_t e = 0; e < plain.size(); ++e)
    EXPECT_EQ(plain[e], cached[e]);
}

linalg::Matrix sgl_data(std::size_t n, std::size_t m, std::uint64_t seed) {
  linalg::Rng rng(seed);
  return Matrix::random_normal(n, m, rng);
}

TEST(SolverCache, SglOutputIdenticalWithCacheOnAndOff) {
  const Graph initial = random_connected_graph(40, 50, 54);
  const Matrix data = sgl_data(40, 6, 55);
  graphs::SglOptions opts;
  opts.iterations = 5;
  opts.resistance.num_probes = 6;

  const auto plain = graphs::learn_pgm_sgl(initial, data, opts);
  LaplacianSolverCache cache;
  const auto cached = graphs::learn_pgm_sgl(initial, data, opts, &cache);

  ASSERT_EQ(plain.graph.num_edges(), cached.graph.num_edges());
  EXPECT_EQ(plain.graph.fingerprint(), cached.graph.fingerprint());
  for (std::size_t e = 0; e < plain.graph.num_edges(); ++e)
    EXPECT_EQ(plain.graph.edge(e).weight, cached.graph.edge(e).weight);
}

TEST(RootedForest, OrientsAwayFromRootsDeterministically) {
  const Graph g = random_connected_graph(25, 30, 58);
  const auto tree = graphs::max_weight_spanning_forest(g);
  const auto forest = graphs::rooted_forest(g, tree);

  ASSERT_EQ(forest.parent.size(), 25u);
  ASSERT_EQ(forest.order.size(), 25u);
  EXPECT_EQ(forest.parent[forest.order[0]], forest.order[0]);  // root first

  // Topological: every node's parent appears earlier in `order`.
  std::vector<std::size_t> pos(25);
  for (std::size_t i = 0; i < 25; ++i) pos[forest.order[i]] = i;
  std::size_t roots = 0;
  for (std::size_t u = 0; u < 25; ++u) {
    if (forest.parent[u] == u) {
      ++roots;
    } else {
      EXPECT_LT(pos[forest.parent[u]], pos[u]);
      EXPECT_GT(forest.parent_weight[u], 0.0);
    }
  }
  EXPECT_EQ(roots, 25u - tree.size());  // one root per component
}

}  // namespace
