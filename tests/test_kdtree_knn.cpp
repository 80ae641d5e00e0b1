#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graphs/kdtree.hpp"
#include "graphs/knn.hpp"
#include "linalg/rng.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cirstag::graphs;
using cirstag::linalg::Matrix;
using cirstag::linalg::Rng;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Brute-force kNN oracle: every other point through Matrix::row_distance2,
/// ordered by (distance2, index), the first k kept.
std::vector<Neighbor> brute_knn(const Matrix& pts, std::size_t q,
                                std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    if (i == q) continue;
    all.push_back({i, pts.row_distance2(q, i)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance2 < b.distance2 ||
           (a.distance2 == b.distance2 && a.index < b.index);
  });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Every query of `pts` returns the oracle's list: same indices, same order,
/// same distance bits. Returns how many (query, k) lists had a distance tie
/// straddling rank k, which the oracle's index order had to settle.
std::size_t expect_matches_oracle(const Matrix& pts, const std::string& what) {
  const std::size_t n = pts.rows();
  const KdTree tree(pts);
  std::size_t straddling = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const auto full = brute_knn(pts, q, n);
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n - 1, n + 5}) {
      const auto got = tree.knn_of_point(q, k);
      const std::size_t want = std::min(k, full.size());
      if (k < full.size() && full[k - 1].distance2 == full[k].distance2)
        ++straddling;
      EXPECT_EQ(got.size(), want) << what << " q=" << q << " k=" << k;
      for (std::size_t r = 0; r < std::min(got.size(), want); ++r) {
        EXPECT_EQ(got[r].index, full[r].index)
            << what << " q=" << q << " k=" << k << " rank " << r;
        EXPECT_EQ(bits(got[r].distance2), bits(full[r].distance2))
            << what << " q=" << q << " k=" << k << " rank " << r;
      }
      if (::testing::Test::HasFailure()) return straddling;
    }
  }
  return straddling;
}

TEST(KdTree, MatchesBruteForceOnRandomPoints) {
  constexpr std::size_t leaf = KdTree::kLeafSize;
  Rng rng(67);
  for (const std::size_t d : {1, 3, 8, 27})
    for (const std::size_t n : {std::size_t{2}, leaf - 1, leaf, leaf + 1,
                                std::size_t{1000}}) {
      const Matrix pts = Matrix::random_normal(n, d, rng);
      expect_matches_oracle(pts, "d=" + std::to_string(d) +
                                     " n=" + std::to_string(n));
      if (HasFailure()) return;
    }
}

TEST(KdTree, MatchesOrderedBruteForceBitForBit) {
  // Integer lattice: many equal distances, so rank k often splits a tie.
  Matrix lattice(6 * 6 * 5, 3);
  for (std::size_t i = 0; i < lattice.rows(); ++i) {
    lattice(i, 0) = static_cast<double>(i % 6);
    lattice(i, 1) = static_cast<double>(i / 6 % 6);
    lattice(i, 2) = static_cast<double>(i / 36);
  }
  EXPECT_GT(expect_matches_oracle(lattice, "lattice"), lattice.rows());
}

TEST(KdTree, DuplicatePointsHandled) {
  // Two coincident pairs: zero distances, ordered by index.
  Matrix dup(4, 2);
  dup(2, 0) = dup(2, 1) = dup(3, 0) = dup(3, 1) = 1.0;
  expect_matches_oracle(dup, "duplicates");
  const auto nn = KdTree(dup).knn_of_point(0, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].index, 1u);
  EXPECT_EQ(bits(nn[0].distance2), bits(0.0));
}

TEST(KdTree, ExcludesQueryPoint) {
  Rng rng(71);
  const Matrix pts = Matrix::random_normal(20, 3, rng);
  const KdTree tree(pts);
  const auto nn = tree.knn_of_point(4, 5);
  for (const auto& n : nn) EXPECT_NE(n.index, 4u);
}

TEST(KdTree, KLargerThanPointCount) {
  Rng rng(73);
  const Matrix pts = Matrix::random_normal(5, 2, rng);
  const KdTree tree(pts);
  const auto nn = tree.knn_of_point(0, 100);
  EXPECT_EQ(nn.size(), 4u);
}

TEST(KdTree, EmptyOrBadInputsThrow) {
  EXPECT_THROW(KdTree{Matrix{}}, std::invalid_argument);
  Rng rng(79);
  const Matrix pts = Matrix::random_normal(3, 2, rng);
  const KdTree tree(pts);
  EXPECT_THROW(tree.knn_of_point(5, 1), std::out_of_range);
  std::vector<double> bad_query{1.0};
  EXPECT_THROW(tree.knn(bad_query, 1, 0), std::invalid_argument);
}

TEST(KnnGraph, DegreesAtLeastK) {
  Rng rng(83);
  const Matrix pts = Matrix::random_normal(60, 4, rng);
  KnnGraphOptions opts;
  opts.k = 5;
  const Graph g = build_knn_graph(pts, opts);
  EXPECT_EQ(g.num_nodes(), 60u);
  for (NodeId u = 0; u < 60; ++u) EXPECT_GE(g.degree(u), 5u);
}

TEST(KnnGraph, WeightsAreInverseSquaredDistance) {
  Matrix pts(3, 1);
  pts(0, 0) = 0.0;
  pts(1, 0) = 1.0;
  pts(2, 0) = 3.0;
  KnnGraphOptions opts;
  opts.k = 1;
  opts.distance_floor = 0.0;
  opts.relative_floor = 0.0;
  const Graph g = build_knn_graph(pts, opts);
  // Nearest pairs: (0,1) dist²=1, (2,1) dist²=4.
  bool found01 = false, found12 = false;
  for (const auto& e : g.edges()) {
    if ((e.u == 0 && e.v == 1)) {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);
      found01 = true;
    }
    if ((e.u == 1 && e.v == 2)) {
      EXPECT_DOUBLE_EQ(e.weight, 0.25);
      found12 = true;
    }
  }
  EXPECT_TRUE(found01);
  EXPECT_TRUE(found12);
}

TEST(KnnGraph, NoDuplicateEdges) {
  Rng rng(89);
  const Matrix pts = Matrix::random_normal(40, 3, rng);
  KnnGraphOptions opts;
  opts.k = 6;
  const Graph g = build_knn_graph(pts, opts);
  std::vector<std::pair<NodeId, NodeId>> seen;
  for (const auto& e : g.edges())
    seen.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(KnnGraph, TinyInputs) {
  Matrix one(1, 2, 0.0);
  EXPECT_EQ(build_knn_graph(one).num_edges(), 0u);
}

TEST(KnnGraph, NonFiniteRowsThrowTypedError) {
  Rng rng(97);
  const Matrix clean = Matrix::random_normal(200, 8, rng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix pts = clean;
    pts(57, 3) = bad;
    const auto expect_row_57 = [&](const auto& call, const char* who) {
      try {
        call();
        ADD_FAILURE() << who << " accepted " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("row 57"), std::string::npos)
            << who << ": " << e.what();
      }
    };
    expect_row_57([&] { (void)build_knn_graph(pts); }, "build_knn_graph");
    expect_row_57([&] { (void)KdTree(pts); }, "KdTree");
  }
}

/// Edges compared on their bits.
void expect_same_graph(const Graph& ga, const Graph& gb) {
  const auto ea = ga.edges(), eb = gb.edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t e = 0; e < ea.size(); ++e) {
    EXPECT_EQ(ea[e].u, eb[e].u) << "edge " << e;
    EXPECT_EQ(ea[e].v, eb[e].v) << "edge " << e;
    EXPECT_EQ(bits(ea[e].weight), bits(eb[e].weight)) << "edge " << e;
  }
}

TEST(KnnGraph, BuildIdenticalOnOneAndFourLanes) {
  const auto evals = [] {
    return cirstag::obs::MetricsRegistry::global().counter_value(
        "knn.distance_evals");
  };
  Rng rng(101);
  constexpr std::size_t n = 1500;
  // 27 dimensions take the projected search and its re-rank; 8 the exact one.
  for (const std::size_t d : {27, 8}) {
    const Matrix pts = Matrix::random_normal(n, d, rng);
    cirstag::runtime::set_global_threads(1);
    std::uint64_t before = evals();
    const Graph serial = build_knn_graph(pts);
    const std::uint64_t serial_evals = evals() - before;
    cirstag::runtime::set_global_threads(4);
    before = evals();
    const Graph parallel = build_knn_graph(pts);
    const std::uint64_t parallel_evals = evals() - before;
    cirstag::runtime::set_global_threads(0);  // restore the default
    expect_same_graph(serial, parallel);
    EXPECT_GT(serial.num_edges(), 0u) << "d=" << d;
    // The work counter is exact too, and pruning skipped part of the search.
    EXPECT_EQ(serial_evals, parallel_evals) << "d=" << d;
    EXPECT_GT(serial_evals, 0u);
    EXPECT_LT(serial_evals, n * n) << "d=" << d;
  }
}

}  // namespace
