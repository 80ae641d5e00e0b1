#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graphs/graph.hpp"
#include "linalg/cg.hpp"

namespace cirstag::graphs {

/// Preconditioner used by the Laplacian solvers built from graphs.
enum class SolverPreconditioner : std::uint8_t {
  jacobi,         ///< diagonal scaling (the historical default)
  spanning_tree,  ///< max-weight spanning-forest LDLᵀ (combinatorial)
};

/// Everything that determines a graph's Laplacian solver besides the graph
/// itself. Part of the cache key: two call sites with equal options share a
/// cached solver.
struct SolverOptions {
  double regularization = 0.0;
  SolverPreconditioner preconditioner = SolverPreconditioner::jacobi;
  linalg::CgOptions cg;
};

/// Assemble a LaplacianSolver for `g`: Laplacian + requested preconditioner
/// (spanning-tree kind runs Kruskal + BFS orientation + LDLᵀ, all O(m log m)
/// once — the point of caching it).
[[nodiscard]] linalg::LaplacianSolver make_laplacian_solver(
    const Graph& g, const SolverOptions& opts = {});

/// Cross-phase cache of Laplacian solvers, keyed on graph content fingerprint
/// plus solver options. Shared by the sparsifier's resistance sketches, the
/// SGL pruning loop, and the stability stage so each distinct manifold is
/// assembled/factored once per run.
///
/// The cache is purely an assembly cache: a cached solver is the same object
/// `make_laplacian_solver` would build, so results are bit-identical with the
/// cache on or off.
///
/// Thread-safe; solvers are immutable after construction and returned as
/// shared_ptr so entries may be evicted while still in use.
class LaplacianSolverCache {
 public:
  explicit LaplacianSolverCache(std::size_t capacity = 16)
      : capacity_(capacity ? capacity : 1) {}

  /// Solver for (g, opts) — builds and inserts on miss, reuses on hit.
  /// Mutating `g` after the call changes its fingerprint, so stale entries
  /// are never returned (they age out by LRU eviction).
  [[nodiscard]] std::shared_ptr<const linalg::LaplacianSolver> solver(
      const Graph& g, const SolverOptions& opts = {});

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t size() const;

  void clear();

 private:
  struct Key {
    GraphFingerprint graph;
    double regularization = 0.0;
    std::uint64_t tolerance_bits = 0;
    std::uint64_t max_iterations = 0;
    SolverPreconditioner preconditioner = SolverPreconditioner::jacobi;
    /// Part of the key so a budget-bounded caller (health events suppressed)
    /// never shares a solver object with one that wants them reported.
    bool budget_bounded = false;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const linalg::LaplacianSolver> solver;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;       // small N: linear scan beats hashing
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace cirstag::graphs
