// Multilevel coarsening contracts (DESIGN.md §12): hierarchy invariants
// (valid Laplacians per level, aggregate maps partition the fine nodes,
// aggregate_graph ≡ the Galerkin triple product Pᵀ L P), byte-determinism
// across thread counts and kernel tables, `--coarsen off` byte-identity vs
// the default automatic mode on small graphs, and multilevel-vs-exact
// eigensolver agreement within the documented residual bound.

#include "graphs/coarsen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/query.hpp"
#include "gnn/timing_gnn.hpp"
#include "graphs/laplacian.hpp"
#include "kernels/kernels.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/multilevel_eigen.hpp"
#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cirstag;
using graphs::CoarsenHierarchy;
using graphs::CoarsenMode;
using graphs::CoarsenOptions;
using graphs::CoarsenPairHierarchy;
using graphs::Graph;
using graphs::NodeId;

/// Connected weighted test graph: a ring (connectivity) plus random chords.
Graph random_graph(std::size_t n, std::size_t chords, std::uint64_t seed) {
  Graph g(n);
  linalg::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
               rng.uniform(0.5, 2.0));
  for (std::size_t c = 0; c < chords; ++c) {
    const auto u = static_cast<NodeId>(rng.index(n));
    const auto v = static_cast<NodeId>(rng.index(n));
    if (u != v) g.add_edge(u, v, rng.uniform(0.1, 1.5));
  }
  return g;
}

CoarsenOptions force_engage() {
  CoarsenOptions opts;
  opts.auto_threshold = 0;
  opts.coarsest_target = 64;
  return opts;
}

TEST(Coarsen, EngagementGate) {
  CoarsenOptions opts;  // defaults: automatic, threshold 20000
  EXPECT_FALSE(graphs::coarsen_engaged(opts, 0));
  EXPECT_FALSE(graphs::coarsen_engaged(opts, 19999));
  EXPECT_TRUE(graphs::coarsen_engaged(opts, 20000));
  opts.mode = CoarsenMode::off;
  EXPECT_FALSE(graphs::coarsen_engaged(opts, 1000000));
  opts.mode = CoarsenMode::automatic;
  opts.max_levels = 0;
  EXPECT_FALSE(graphs::coarsen_engaged(opts, 1000000));
  opts.max_levels = 12;
  opts.auto_threshold = 0;
  // Still needs more nodes than the coarsest target to be worth a level.
  EXPECT_FALSE(graphs::coarsen_engaged(opts, opts.coarsest_target));
  EXPECT_TRUE(graphs::coarsen_engaged(opts, opts.coarsest_target + 1));
}

TEST(Coarsen, MatchingPartitionsNodes) {
  const Graph g = random_graph(500, 400, 7);
  std::size_t num_coarse = 0;
  const std::vector<std::uint32_t> map =
      graphs::heavy_edge_matching(g, num_coarse);
  ASSERT_EQ(map.size(), g.num_nodes());
  ASSERT_GT(num_coarse, 0u);
  ASSERT_LT(num_coarse, g.num_nodes());
  // Every aggregate id is hit by one or two fine nodes (a matched pair or a
  // singleton) — together they partition the fine node set.
  std::vector<std::size_t> size(num_coarse, 0);
  for (const std::uint32_t a : map) {
    ASSERT_LT(a, num_coarse);
    ++size[a];
  }
  for (const std::size_t s : size) EXPECT_TRUE(s == 1 || s == 2);
  // Matched pairs must be actual neighbors.
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    for (std::size_t v = u + 1; v < g.num_nodes(); ++v) {
      if (map[u] != map[v]) continue;
      bool adjacent = false;
      for (const auto& inc : g.neighbors(static_cast<NodeId>(u)))
        adjacent |= inc.neighbor == v;
      EXPECT_TRUE(adjacent) << "non-adjacent pair " << u << "," << v;
    }
  }
}

TEST(Coarsen, AggregateEqualsGalerkinTripleProduct) {
  const Graph g = random_graph(80, 60, 11);
  std::size_t num_coarse = 0;
  const std::vector<std::uint32_t> map =
      graphs::heavy_edge_matching(g, num_coarse);
  const Graph coarse = graphs::aggregate_graph(g, map, num_coarse);

  // Dense Pᵀ L P with the piecewise-constant P from the map.
  const linalg::SparseMatrix l = graphs::laplacian(g);
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<double>> dense(num_coarse,
                                         std::vector<double>(num_coarse, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> e(n, 0.0);
    e[i] = 1.0;
    const std::vector<double> le = l.multiply(e);
    for (std::size_t j = 0; j < n; ++j)
      dense[map[j]][map[i]] += le[j];
  }
  const linalg::SparseMatrix lc = graphs::laplacian(coarse);
  for (std::size_t i = 0; i < num_coarse; ++i) {
    std::vector<double> e(num_coarse, 0.0);
    e[i] = 1.0;
    const std::vector<double> col = lc.multiply(e);
    for (std::size_t j = 0; j < num_coarse; ++j)
      EXPECT_NEAR(col[j], dense[j][i], 1e-9)
          << "L_coarse(" << j << "," << i << ") != (PᵀLP)(" << j << "," << i
          << ")";
  }
}

TEST(Coarsen, HierarchyLevelsAreValidLaplacians) {
  const Graph g = random_graph(1500, 1200, 3);
  const CoarsenHierarchy hier = graphs::coarsen_graph(g, force_engage());
  ASSERT_FALSE(hier.empty());
  EXPECT_LE(hier.coarsest_n(), g.num_nodes());
  std::size_t prev_n = g.num_nodes();
  for (const graphs::CoarsenLevel& level : hier.levels) {
    const std::size_t cn = level.graph.num_nodes();
    EXPECT_LT(cn, prev_n);
    ASSERT_EQ(level.map.size(), prev_n);
    for (const std::uint32_t a : level.map) ASSERT_LT(a, cn);
    // Laplacian rows of every level sum to zero (constant nullspace) and
    // all edge weights stay positive.
    const linalg::SparseMatrix l = graphs::laplacian(level.graph);
    const std::vector<double> ones(cn, 1.0);
    const std::vector<double> l1 = l.multiply(ones);
    for (const double v : l1) EXPECT_NEAR(v, 0.0, 1e-9);
    for (const auto& e : level.graph.edges()) EXPECT_GT(e.weight, 0.0);
    prev_n = cn;
  }
}

TEST(Coarsen, DeterministicAcrossThreadsAndSimdModes) {
  const Graph g = random_graph(2000, 1500, 19);
  struct Shape {
    std::vector<graphs::GraphFingerprint> fingerprints;
    std::vector<std::vector<std::uint32_t>> maps;
  };
  std::vector<Shape> shapes;
  for (const char* mode : {"auto", "off"}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ASSERT_TRUE(kernels::set_simd_mode(mode));
      runtime::set_global_threads(threads);
      Shape s;
      const CoarsenHierarchy hier = graphs::coarsen_graph(g, force_engage());
      for (const auto& level : hier.levels) {
        s.fingerprints.push_back(level.graph.fingerprint());
        s.maps.push_back(level.map);
      }
      shapes.push_back(std::move(s));
    }
  }
  kernels::set_simd_mode("auto");
  runtime::set_global_threads(0);
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_EQ(shapes[0].fingerprints, shapes[i].fingerprints);
    EXPECT_EQ(shapes[0].maps, shapes[i].maps);
  }
}

TEST(Coarsen, PairHierarchySharesOneMatching) {
  const Graph x = random_graph(900, 700, 23);
  const Graph y = random_graph(900, 500, 29);
  const CoarsenPairHierarchy hier =
      graphs::coarsen_pair(x, y, force_engage());
  ASSERT_FALSE(hier.empty());
  ASSERT_EQ(hier.x_levels.size(), hier.maps.size());
  ASSERT_EQ(hier.y_levels.size(), hier.maps.size());
  for (std::size_t l = 0; l < hier.maps.size(); ++l) {
    // Both sides live on the same coarse node set (the shared matching).
    EXPECT_EQ(hier.x_levels[l].num_nodes(), hier.y_levels[l].num_nodes());
    const std::size_t fine_n =
        l == 0 ? x.num_nodes() : hier.x_levels[l - 1].num_nodes();
    ASSERT_EQ(hier.maps[l].size(), fine_n);
  }
  EXPECT_THROW(graphs::coarsen_pair(x, Graph(10), force_engage()),
               std::invalid_argument);
}

TEST(MultilevelEigen, SmallestPairsWithinDocumentedResidualBound) {
  const Graph g = random_graph(1800, 1400, 41);
  const linalg::SparseMatrix l_norm = graphs::normalized_laplacian(g);
  const CoarsenHierarchy hier = graphs::coarsen_graph(g, force_engage());
  ASSERT_FALSE(hier.empty());

  std::vector<linalg::SparseMatrix> coarse;
  std::vector<linalg::ProlongMap> maps;
  for (const auto& level : hier.levels) {
    coarse.push_back(graphs::normalized_laplacian(level.graph));
    maps.push_back(level.map);
  }
  const std::size_t k = 8;
  linalg::MultilevelSmallestOptions mopts;
  linalg::MultilevelStats stats;
  const linalg::EigenDecomposition ml = linalg::multilevel_smallest_eigenpairs(
      l_norm, coarse, maps, k, mopts, &stats);
  ASSERT_EQ(ml.values.size(), k);
  EXPECT_EQ(stats.levels, hier.levels.size());
  EXPECT_EQ(stats.coarsest_n, hier.coarsest_n());
  EXPECT_GT(stats.ritz_refine_sweeps, 0u);

  const linalg::EigenDecomposition exact =
      linalg::smallest_eigenpairs(l_norm, k, 2.0);
  for (std::size_t j = 0; j < k; ++j) {
    // Rayleigh-Ritz values from a subspace bound the true eigenvalues from
    // above (Cauchy interlacing; small slack because the Lanczos reference
    // is itself iterative) and must land within the documented drift.
    EXPECT_GE(ml.values[j], exact.values[j] - 0.02);
    EXPECT_LE(ml.values[j] - exact.values[j],
              linalg::kMultilevelResidualBound);
    // The documented contract itself: spectrum-relative residual
    // ‖A u − θ u‖ / b on the fine operator below kMultilevelResidualBound.
    const std::vector<double> u = ml.vectors.col(j);
    const std::vector<double> au = l_norm.multiply(u);
    std::vector<double> r(u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
      r[i] = au[i] - ml.values[j] * u[i];
    EXPECT_LE(linalg::norm2(r) / 2.0, linalg::kMultilevelResidualBound)
        << "pair " << j;
  }
}

TEST(MultilevelEigen, GeneralizedAgreesWithExactSolver) {
  const Graph x = random_graph(1400, 1100, 53);
  // y = x with perturbed weights plus extra chords — a realistic
  // input/output manifold pair sharing connectivity.
  Graph y(x.num_nodes());
  {
    linalg::Rng rng(59);
    for (const auto& e : x.edges())
      y.add_edge(e.u, e.v, e.weight * rng.uniform(0.6, 1.6));
    for (std::size_t c = 0; c < 300; ++c) {
      const auto u = static_cast<NodeId>(rng.index(x.num_nodes()));
      const auto v = static_cast<NodeId>(rng.index(x.num_nodes()));
      if (u != v) y.add_edge(u, v, rng.uniform(0.1, 0.8));
    }
  }
  const CoarsenPairHierarchy hier =
      graphs::coarsen_pair(x, y, force_engage());
  ASSERT_FALSE(hier.empty());

  std::vector<linalg::SparseMatrix> lx{graphs::laplacian(x)};
  std::vector<linalg::SparseMatrix> ly{graphs::laplacian(y)};
  for (std::size_t l = 0; l < hier.maps.size(); ++l) {
    lx.push_back(graphs::laplacian(hier.x_levels[l]));
    ly.push_back(graphs::laplacian(hier.y_levels[l]));
  }
  linalg::GeneralizedEigenOptions opts;
  opts.num_pairs = 6;
  opts.iterations = 30;
  opts.ly_regularization = 1e-4;
  linalg::MultilevelStats stats;
  const linalg::GeneralizedEigenResult ml = linalg::multilevel_generalized_eigen(
      lx, ly, hier.maps, opts, /*refine_sweeps=*/8, nullptr, &stats);
  const linalg::GeneralizedEigenResult exact =
      linalg::generalized_eigen_sparse(lx[0], ly[0], opts);
  ASSERT_EQ(ml.values.size(), exact.values.size());
  EXPECT_EQ(stats.levels, hier.maps.size());
  EXPECT_GT(stats.ritz_refine_sweeps, 0u);
  EXPECT_GT(ml.sweeps_executed, stats.ritz_refine_sweeps);

  // Dominant distortion eigenvalues agree to within the documented drift.
  for (std::size_t j = 0; j < 3; ++j) {
    const double rel = std::abs(ml.values[j] - exact.values[j]) /
                       std::max(std::abs(exact.values[j]), 1e-12);
    EXPECT_LE(rel, linalg::kMultilevelResidualBound) << "pair " << j;
  }
}

TEST(MultilevelEigen, DegenerateHierarchyFallsBackToExact) {
  const Graph g = random_graph(300, 200, 61);
  const linalg::SparseMatrix l_norm = graphs::normalized_laplacian(g);
  const linalg::EigenDecomposition direct =
      linalg::smallest_eigenpairs(l_norm, 6, 2.0);
  // Empty hierarchy => byte-identical to the exact path (same seed).
  linalg::MultilevelSmallestOptions mopts;
  mopts.seed = 1234;
  const linalg::EigenDecomposition ml =
      linalg::multilevel_smallest_eigenpairs(l_norm, {}, {}, 6, mopts);
  ASSERT_EQ(ml.values.size(), direct.values.size());
  for (std::size_t j = 0; j < ml.values.size(); ++j)
    EXPECT_EQ(ml.values[j], direct.values[j]);
}

core::CirStagConfig pipeline_config() {
  core::CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.offtree_keep_fraction = 0.3;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  return cfg;
}

TEST(Coarsen, OffModeByteIdenticalToDefaultOnSmallGraphs) {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  circuit::RandomCircuitSpec spec;
  spec.num_gates = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.seed = 67;
  const circuit::Netlist nl = circuit::generate_random_logic(lib, spec);
  gnn::TimingGnnOptions gopts;
  gopts.epochs = 40;
  gopts.hidden_dim = 16;
  const linalg::Matrix f = circuit::pin_features(nl);

  std::vector<core::CirStagReport> reports;
  for (const CoarsenMode mode : {CoarsenMode::automatic, CoarsenMode::off}) {
    gnn::TimingGnn model(nl, gopts);
    model.train();
    core::CirStagConfig cfg = pipeline_config();
    cfg.embedding.coarsen.mode = mode;
    cfg.stability.coarsen.mode = mode;
    reports.push_back(
        core::CirStag(cfg).analyze(circuit::pin_graph(nl), f, model.embed(f)));
  }
  // Below the auto threshold, `automatic` must be byte-for-byte the exact
  // path `off` runs — same checksums at every phase boundary.
  EXPECT_EQ(reports[0].checksums.node_scores, reports[1].checksums.node_scores);
  EXPECT_EQ(reports[0].checksums.edge_scores, reports[1].checksums.edge_scores);
  EXPECT_EQ(reports[0].checksums.eigenvalues, reports[1].checksums.eigenvalues);
  ASSERT_EQ(reports[0].node_scores.size(), reports[1].node_scores.size());
  for (std::size_t i = 0; i < reports[0].node_scores.size(); ++i)
    EXPECT_EQ(reports[0].node_scores[i], reports[1].node_scores[i]);
  // The cached design mean matches the serial scan bit for bit.
  EXPECT_EQ(reports[0].node_score_mean,
            core::mean_node_score(reports[0].node_scores));
}

TEST(Query, ScoreConeExpandsFanInFanOut) {
  // Path graph 0-1-2-3-4-5: the 1-hop cone of {2} is {1,2,3}.
  Graph g(6);
  for (NodeId i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1, 1.0);
  core::CirStagReport report;
  report.node_scores = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};

  const std::vector<std::size_t> seeds{2};
  const core::ConeRegion cone0 = core::expand_cone(g, seeds, 0);
  EXPECT_EQ(cone0.nodes, (std::vector<std::size_t>{2}));
  const core::ConeRegion cone1 = core::expand_cone(g, seeds, 1);
  EXPECT_EQ(cone1.nodes, (std::vector<std::size_t>{1, 2, 3}));
  const core::ConeRegion cone9 = core::expand_cone(g, seeds, 9);
  EXPECT_EQ(cone9.nodes.size(), 6u);

  const core::RegionScore region = core::score_cone(report, g, seeds, 1);
  EXPECT_DOUBLE_EQ(region.mean, 3.0);
  EXPECT_DOUBLE_EQ(region.max, 4.0);
  EXPECT_EQ(region.argmax, 3u);
  // Hand-built report: design_mean comes from the fallback scan; caching the
  // mean must not change the bits.
  EXPECT_DOUBLE_EQ(region.design_mean, 3.5);
  report.node_score_mean = core::mean_node_score(report.node_scores);
  const core::RegionScore cached = core::score_cone(report, g, seeds, 1);
  EXPECT_EQ(cached.design_mean, region.design_mean);

  EXPECT_THROW(core::expand_cone(g, std::vector<std::size_t>{99}, 1),
               std::out_of_range);
}

}  // namespace
