#include "core/cirstag.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "circuit/generator.hpp"
#include "circuit/perturb.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "gnn/timing_gnn.hpp"
#include "runtime/thread_pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace cirstag;
using namespace cirstag::core;

CirStagConfig fast_config() {
  CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.offtree_keep_fraction = 0.3;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  return cfg;
}

TEST(CirStagPipeline, RunsEndToEndOnSyntheticEmbedding) {
  // Input: ring graph. Output embedding: ring coordinates with a distorted
  // sector, standing in for a GNN.
  const std::size_t n = 60;
  graphs::Graph g(n);
  for (graphs::NodeId i = 0; i < n; ++i)
    g.add_edge(i, static_cast<graphs::NodeId>((i + 1) % n));
  linalg::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double theta = 2.0 * M_PI * static_cast<double>(i) / n;
    // Stretch nodes 10..15 far from the ring.
    const double r = (i >= 10 && i <= 15) ? 6.0 : 1.0;
    y(i, 0) = r * std::cos(theta);
    y(i, 1) = r * std::sin(theta);
  }

  const CirStag analyzer(fast_config());
  const CirStagReport rep = analyzer.analyze(g, y);
  ASSERT_EQ(rep.node_scores.size(), n);
  ASSERT_FALSE(rep.eigenvalues.empty());
  EXPECT_GT(rep.eigenvalues[0], 0.0);
  // Timings recorded.
  EXPECT_GT(rep.timings.total(), 0.0);

  // The stretched sector should dominate the top scores: at least 3 of the
  // top 8 nodes fall in (or adjacent to) 9..16.
  const auto top = circuit::select_top_fraction(rep.node_scores, 8.0 / n);
  std::size_t hits = 0;
  for (std::size_t idx : top)
    if (idx >= 9 && idx <= 16) ++hits;
  EXPECT_GE(hits, 3u) << "top size " << top.size();
}

TEST(CirStagPipeline, AblationSkipsEmbedding) {
  graphs::Graph g(30);
  for (graphs::NodeId i = 0; i + 1 < 30; ++i) g.add_edge(i, i + 1);
  linalg::Rng rng(5);
  const linalg::Matrix y = linalg::Matrix::random_normal(30, 4, rng);

  CirStagConfig cfg = fast_config();
  cfg.use_dimension_reduction = false;
  const CirStag analyzer(cfg);
  const CirStagReport rep = analyzer.analyze(g, y);
  EXPECT_TRUE(rep.input_embedding.empty());
  // Input manifold is the raw graph itself.
  EXPECT_EQ(rep.manifold_x.num_edges(), g.num_edges());
  EXPECT_EQ(rep.node_scores.size(), 30u);
}

TEST(CirStagPipeline, ValidatesInputs) {
  const CirStag analyzer(fast_config());
  graphs::Graph g(4);
  linalg::Matrix y(3, 2);
  EXPECT_THROW(analyzer.analyze(g, y), std::invalid_argument);
  EXPECT_THROW(analyzer.analyze(graphs::Graph(0), linalg::Matrix{}),
               std::invalid_argument);
  // Feature row count must match the graph.
  linalg::Matrix y4(4, 2);
  linalg::Matrix bad_features(3, 5);
  EXPECT_THROW(analyzer.analyze(g, bad_features, y4), std::invalid_argument);
}

TEST(CirStagPipeline, FeatureChannelShapesTheInputManifold) {
  // Ring graph, uniform structure; features split the nodes into two groups.
  const std::size_t n = 40;
  graphs::Graph g(n);
  for (graphs::NodeId i = 0; i < n; ++i)
    g.add_edge(i, static_cast<graphs::NodeId>((i + 1) % n));
  linalg::Rng rng(7);
  const linalg::Matrix y = linalg::Matrix::random_normal(n, 3, rng);
  linalg::Matrix features(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    features(i, 0) = (i % 2 == 0) ? 1.0 : -1.0;
    features(i, 1) = rng.normal();
  }
  CirStagConfig cfg = fast_config();
  cfg.feature_weight = 3.0;
  const CirStag analyzer(cfg);
  const auto with_features = analyzer.analyze(g, features, y);
  const auto without = analyzer.analyze(g, y);
  // The embedding gains the feature columns...
  EXPECT_EQ(with_features.input_embedding.cols(),
            without.input_embedding.cols() + features.cols());
  // ...and the resulting manifold (hence scores) differ.
  double diff = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    diff += std::abs(with_features.node_scores[i] - without.node_scores[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(CirStagPipeline, ZeroFeatureWeightMatchesStructureOnly) {
  const std::size_t n = 24;
  graphs::Graph g(n);
  for (graphs::NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  linalg::Rng rng(9);
  const linalg::Matrix y = linalg::Matrix::random_normal(n, 3, rng);
  const linalg::Matrix features = linalg::Matrix::random_normal(n, 4, rng);
  CirStagConfig cfg = fast_config();
  cfg.feature_weight = 0.0;
  const CirStag analyzer(cfg);
  const auto a = analyzer.analyze(g, features, y);
  const auto b = analyzer.analyze(g, y);
  ASSERT_EQ(a.node_scores.size(), b.node_scores.size());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(a.node_scores[i], b.node_scores[i]);
}

/// The parallel-runtime determinism contract, end to end: on a 2k-gate
/// netlist, node and edge scores must be bit-identical whether the analysis
/// runs on 1 thread or on every hardware thread.
TEST(CirStagPipeline, ScoresBitIdenticalAcrossThreadCounts) {
  using namespace cirstag::circuit;
  const CellLibrary lib = CellLibrary::standard();
  RandomCircuitSpec spec;
  spec.num_gates = 2000;
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.num_levels = 14;
  spec.seed = 77;
  const Netlist nl = generate_random_logic(lib, spec);

  // Untrained surrogate embeddings: deterministic from the seed and cheap,
  // which is all a determinism test needs.
  gnn::TimingGnnOptions gopts;
  gopts.hidden_dim = 16;
  gnn::TimingGnn model(nl, gopts);
  const linalg::Matrix embedding = model.embed(model.base_features());

  auto run_with_threads = [&](std::size_t threads) {
    runtime::set_global_threads(threads);
    const CirStag analyzer(fast_config());
    return analyzer.analyze(pin_graph(nl), model.base_features(), embedding);
  };

  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const CirStagReport serial = run_with_threads(1);
  const CirStagReport parallel = run_with_threads(hw);
  runtime::set_global_threads(0);  // restore the default for later tests

  EXPECT_EQ(serial.timings.threads, 1u);
  EXPECT_EQ(parallel.timings.threads, hw);
  ASSERT_EQ(serial.node_scores.size(), parallel.node_scores.size());
  for (std::size_t i = 0; i < serial.node_scores.size(); ++i)
    ASSERT_EQ(serial.node_scores[i], parallel.node_scores[i]) << "node " << i;
  ASSERT_EQ(serial.edge_scores.size(), parallel.edge_scores.size());
  for (std::size_t e = 0; e < serial.edge_scores.size(); ++e)
    ASSERT_EQ(serial.edge_scores[e], parallel.edge_scores[e]) << "edge " << e;
  ASSERT_EQ(serial.eigenvalues.size(), parallel.eigenvalues.size());
  for (std::size_t j = 0; j < serial.eigenvalues.size(); ++j)
    ASSERT_EQ(serial.eigenvalues[j], parallel.eigenvalues[j]);
}

/// Full Case-A integration: train the timing GNN on a small circuit, run
/// CirSTAG, perturb unstable vs stable pins, and require the paper's
/// headline ordering (unstable >> stable).
TEST(CirStagPipeline, CaseAIntegrationUnstableBeatsStable) {
  using namespace cirstag::circuit;
  const CellLibrary lib = CellLibrary::standard();
  RandomCircuitSpec spec;
  spec.num_gates = 200;
  spec.num_inputs = 16;
  spec.num_outputs = 10;
  spec.num_levels = 9;
  spec.seed = 202;
  const Netlist nl = generate_random_logic(lib, spec);

  gnn::TimingGnnOptions gopts;
  gopts.epochs = 300;
  gopts.hidden_dim = 24;
  gnn::TimingGnn model(nl, gopts);
  const auto stats = model.train();
  ASSERT_GT(stats.r2, 0.85) << "GNN failed to fit";

  const CirStag analyzer(fast_config());
  const CirStagReport rep =
      analyzer.analyze(pin_graph(nl), model.base_features(),
                       model.embed(model.base_features()));

  // Exclude output pins, as the paper does.
  std::vector<std::size_t> excluded;
  for (PinId po : nl.primary_outputs()) excluded.push_back(po);

  const auto unstable =
      select_top_fraction(rep.node_scores, 0.10, excluded);
  const auto stable =
      select_bottom_fraction(rep.node_scores, 0.10, excluded);

  const auto base_pred = model.predict(model.base_features());
  std::vector<double> base_po;
  for (PinId po : nl.primary_outputs()) base_po.push_back(base_pred[po]);

  auto perturbed_mean_change = [&](const std::vector<std::size_t>& pins) {
    const auto feats = perturb_capacitance_features(
        model.base_features(), pins, 10.0, kPinCapFeature);
    const auto pred = model.predict(feats);
    std::vector<double> po;
    for (PinId p : nl.primary_outputs()) po.push_back(pred[p]);
    return util::mean(relative_changes(base_po, po));
  };

  const double unstable_change = perturbed_mean_change(unstable);
  const double stable_change = perturbed_mean_change(stable);
  EXPECT_GT(unstable_change, stable_change)
      << "unstable " << unstable_change << " stable " << stable_change;
}

}  // namespace
