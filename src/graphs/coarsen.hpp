#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphs/graph.hpp"

namespace cirstag::graphs {

/// Multilevel spectral coarsening (DESIGN.md §12).
///
/// A hierarchy of successively smaller graphs built by deterministic
/// heavy-edge matching. Each level's prolongation P is piecewise constant
/// (every fine node belongs to exactly one aggregate), so the Galerkin
/// coarse operator Pᵀ L P of a combinatorial Laplacian is again the
/// Laplacian of a graph — the aggregated graph produced here, with
/// intra-aggregate edges collapsed and inter-aggregate parallel edges
/// summed. The eigensolvers in linalg/multilevel_eigen.hpp solve at the
/// coarsest level and Rayleigh-Ritz-refine back up the hierarchy.
///
/// Everything in this header is a pure function of the input graph:
/// hierarchies are bit-identical across thread counts and SIMD modes, which
/// is what lets the multilevel pipeline keep the repo's byte-determinism
/// contract. Construction is parallel internally (a fixed-chunk
/// propose/resolve matching scheme plus a chunked Galerkin triplet fill on
/// runtime::parallel_for_chunks), but every parallel stage reproduces the
/// historical serial output byte for byte — see heavy_edge_matching.

/// Coarsening policy of a pipeline phase.
enum class CoarsenMode {
  off,        ///< never coarsen — the historical byte-exact path
  automatic,  ///< coarsen when the graph has >= auto_threshold nodes
};

struct CoarsenOptions {
  CoarsenMode mode = CoarsenMode::automatic;
  /// `automatic` engages only at or above this node count, so every small
  /// graph (all the repo's locked manifests and tests) keeps the exact
  /// single-level path byte for byte.
  std::size_t auto_threshold = 20000;
  /// Hierarchy depth cap.
  std::size_t max_levels = 12;
  /// Stop coarsening once a level has at most this many nodes; the coarsest
  /// eigenproblem is solved directly there.
  std::size_t coarsest_target = 1024;
  /// Subspace-iteration sweeps spent re-converging the interpolated
  /// eigenvectors on each finer level (consumed by linalg/multilevel_eigen;
  /// housed here so one knob configures both pipeline phases). Eight sweeps
  /// keep the finest-level residual inside the documented drift bound while
  /// staying far cheaper than a full single-level solve.
  std::size_t refine_sweeps = 8;
};

/// Whether the options engage coarsening for a graph of `num_nodes` nodes.
[[nodiscard]] bool coarsen_engaged(const CoarsenOptions& opts,
                                   std::size_t num_nodes);

/// One deterministic heavy-edge matching round: visit nodes in ascending id
/// order; an unmatched node pairs with its heaviest unmatched neighbor
/// (summing parallel edges; ties broken toward the smallest neighbor id), or
/// becomes a singleton aggregate. Aggregate ids are assigned in visit order.
/// Returns the fine-node -> aggregate map and writes the aggregate count.
///
/// Internally parallel, externally serial-equivalent: a parallel propose
/// phase computes every node's heaviest neighbor over ALL neighbors
/// (match-state-independent, so chunks are embarrassingly parallel), then a
/// serial resolve pass walks nodes in ascending order. When a node's
/// proposed partner is still unmatched it provably equals the serial greedy
/// choice (the unmatched argmax is dominated by the global argmax, and the
/// smallest-id tie-break agrees); otherwise the resolve pass falls back to
/// the exact historical serial scan for that node. The result is therefore
/// bit-identical to the original strictly-serial algorithm at every thread
/// count and SIMD mode.
[[nodiscard]] std::vector<std::uint32_t> heavy_edge_matching(
    const Graph& g, std::size_t& num_coarse);

/// Aggregate a graph under a node map: the Galerkin triple product Pᵀ L P
/// realized combinatorially. Intra-aggregate edges vanish; inter-aggregate
/// edges are summed per coarse pair in a fixed (sorted, insertion-stable)
/// order so the coarse weights are bit-reproducible.
[[nodiscard]] Graph aggregate_graph(const Graph& g,
                                    std::span<const std::uint32_t> map,
                                    std::size_t num_coarse);

/// One hierarchy level: the coarse graph plus the map from the previous
/// (finer) level's nodes into it.
struct CoarsenLevel {
  Graph graph;
  std::vector<std::uint32_t> map;  ///< finer-level node -> aggregate id
};

/// levels[0] coarsens the original graph; levels[l] coarsens
/// levels[l-1].graph. Empty when no round met the shrink/size criteria.
struct CoarsenHierarchy {
  std::vector<CoarsenLevel> levels;
  [[nodiscard]] bool empty() const { return levels.empty(); }
  [[nodiscard]] std::size_t coarsest_n() const {
    return levels.empty() ? 0 : levels.back().graph.num_nodes();
  }
};

/// Full single-graph hierarchy (Phase-1 embedding path).
[[nodiscard]] CoarsenHierarchy coarsen_graph(const Graph& g,
                                             const CoarsenOptions& opts);

/// Pair hierarchy for the Phase-3 generalized eigenproblem: one matching per
/// level, computed on the edge-weight union of both graphs, so a single
/// prolongation serves L_X and L_Y (the generalized Rayleigh quotient needs
/// both operators projected through the same P). x_levels/y_levels hold the
/// per-level aggregations of each side; maps[l] maps level-l nodes (l = 0 is
/// the original node set) to level l+1 aggregates.
struct CoarsenPairHierarchy {
  std::vector<std::vector<std::uint32_t>> maps;
  std::vector<Graph> x_levels;
  std::vector<Graph> y_levels;
  [[nodiscard]] bool empty() const { return maps.empty(); }
  [[nodiscard]] std::size_t coarsest_n() const {
    return x_levels.empty() ? 0 : x_levels.back().num_nodes();
  }
};

[[nodiscard]] CoarsenPairHierarchy coarsen_pair(const Graph& x,
                                                const Graph& y,
                                                const CoarsenOptions& opts);

}  // namespace cirstag::graphs
