#include "graphs/sparsify.hpp"

#include <gtest/gtest.h>

#include "graphs/components.hpp"
#include "graphs/laplacian.hpp"
#include "linalg/dense_eigen.hpp"
#include "linalg/rng.hpp"

namespace {

using namespace cirstag::graphs;

Graph random_connected_graph(std::size_t n, std::size_t extra,
                             std::uint64_t seed) {
  cirstag::linalg::Rng rng(seed);
  Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
               rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<NodeId>(rng.index(n));
    const auto v = static_cast<NodeId>(rng.index(n));
    if (u != v) g.add_edge(u, v, rng.uniform(0.5, 2.0));
  }
  return g;
}

TEST(Sparsify, PreservesConnectivity) {
  const Graph g = random_connected_graph(40, 80, 43);
  SparsifyOptions opts;
  opts.offtree_keep_fraction = 0.0;  // tree only
  const auto res = sparsify_pgm(g, opts);
  EXPECT_TRUE(is_connected(res.graph));
  EXPECT_EQ(res.graph.num_edges(), res.tree_edges);
  EXPECT_EQ(res.tree_edges, 39u);
}

TEST(Sparsify, KeepFractionControlsEdgeCount) {
  const Graph g = random_connected_graph(30, 100, 47);
  SparsifyOptions half;
  half.offtree_keep_fraction = 0.5;
  SparsifyOptions all;
  all.offtree_keep_fraction = 1.0;
  const auto rh = sparsify_pgm(g, half);
  const auto ra = sparsify_pgm(g, all);
  EXPECT_EQ(ra.graph.num_edges(), g.num_edges());
  EXPECT_LT(rh.graph.num_edges(), ra.graph.num_edges());
  EXPECT_GE(rh.graph.num_edges(), rh.tree_edges);
}

TEST(Sparsify, EtaScoresArePositiveAndBounded) {
  const Graph g = random_connected_graph(25, 50, 53);
  const auto res = sparsify_pgm(g, {});
  ASSERT_EQ(res.eta.size(), g.num_edges());
  for (double eta : res.eta) {
    EXPECT_GT(eta, 0.0);
    // η = w · R_eff <= 1 + sketch error (leverage scores are <= 1 exactly).
    EXPECT_LE(eta, 1.8);
  }
}

TEST(Sparsify, TreeEdgesHaveHighEta) {
  // For a tree edge, R_eff = 1/w exactly so η = 1; off-tree edges have
  // η < 1. Build a graph where one edge is a bridge.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);  // bridge
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 1.0);  // closes a 4-cycle -> all η = ... not bridge
  Graph h(5);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  h.add_edge(2, 0, 1.0);
  h.add_edge(2, 3, 1.0);  // bridge to node 3
  h.add_edge(3, 4, 1.0);  // bridge to node 4
  SparsifyOptions opts;
  opts.resistance.num_probes = 256;
  const auto res = sparsify_pgm(h, opts);
  // Bridges (edges 3 and 4) must have η ≈ 1, cycle edges ≈ 2/3.
  EXPECT_NEAR(res.eta[3], 1.0, 0.25);
  EXPECT_NEAR(res.eta[4], 1.0, 0.25);
  EXPECT_NEAR(res.eta[0], 2.0 / 3.0, 0.25);
}

TEST(Sparsify, SpectralApproximationOfKeptGraph) {
  // Keeping a healthy fraction of off-tree edges must keep the spectrum
  // within a modest factor: check λ_2 (algebraic connectivity) doesn't
  // collapse.
  const Graph g = random_connected_graph(20, 60, 59);
  SparsifyOptions opts;
  opts.offtree_keep_fraction = 0.5;
  const auto res = sparsify_pgm(g, opts);
  const auto eig_g =
      cirstag::linalg::jacobi_eigen(laplacian(g).to_dense());
  const auto eig_h =
      cirstag::linalg::jacobi_eigen(laplacian(res.graph).to_dense());
  const double lambda2_g = eig_g.values[1];
  const double lambda2_h = eig_h.values[1];
  EXPECT_GT(lambda2_h, 0.05 * lambda2_g);
  EXPECT_LE(lambda2_h, lambda2_g + 1e-9);  // subgraph Laplacian ⪯ original
}

TEST(Sparsify, EmptyGraphPassesThrough) {
  Graph g(4);
  const auto res = sparsify_pgm(g, {});
  EXPECT_EQ(res.graph.num_edges(), 0u);
  EXPECT_EQ(res.graph.num_nodes(), 4u);
}

}  // namespace
