#include "graphs/solver_cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "graphs/laplacian.hpp"
#include "graphs/spanning_tree.hpp"
#include "linalg/tree_precond.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace cirstag::graphs {

namespace {
const obs::Counter& cache_hits() {
  static const obs::Counter c("solver_cache.hits");
  return c;
}
const obs::Counter& cache_misses() {
  static const obs::Counter c("solver_cache.misses");
  return c;
}
const obs::Counter& cache_evictions() {
  static const obs::Counter c("solver_cache.evictions");
  return c;
}
}  // namespace

linalg::LaplacianSolver make_laplacian_solver(const Graph& g,
                                              const SolverOptions& opts) {
  linalg::SparseMatrix lap = laplacian(g);
  if (opts.preconditioner == SolverPreconditioner::spanning_tree) {
    const std::vector<EdgeId> tree = max_weight_spanning_forest(g);
    const RootedForest forest = rooted_forest(g, tree);
    auto fact = linalg::TreeFactorization::build(
        forest.parent, forest.parent_weight, forest.order,
        opts.regularization);
    if (fact.empty()) {
      // LaplacianSolver silently substitutes Jacobi for an empty
      // factorization; surface the substitution so a run that asked for the
      // tree preconditioner can see it did not get it.
      obs::record_health_event(
          "solver.tree_precond_fallback",
          "spanning-tree preconditioner unavailable (empty factorization, " +
              std::to_string(g.num_nodes()) + " nodes); using Jacobi",
          static_cast<double>(g.num_nodes()), 0.0,
          obs::HealthSeverity::warning);
    }
    return linalg::LaplacianSolver(std::move(lap), opts.regularization,
                                   opts.cg, std::move(fact));
  }
  return linalg::LaplacianSolver(std::move(lap), opts.regularization, opts.cg);
}

std::shared_ptr<const linalg::LaplacianSolver> LaplacianSolverCache::solver(
    const Graph& g, const SolverOptions& opts) {
  const Key key{g.fingerprint(),       opts.regularization,
                std::bit_cast<std::uint64_t>(opts.cg.tolerance),
                opts.cg.max_iterations, opts.preconditioner,
                opts.cg.budget_bounded};
  {
    std::lock_guard lock(mutex_);
    for (Entry& e : entries_) {
      if (e.key == key) {
        e.last_used = ++clock_;
        ++hits_;
        cache_hits().add();
        return e.solver;
      }
    }
    ++misses_;
    cache_misses().add();
  }
  // Build outside the lock — factorization is the expensive part and other
  // threads may be hitting unrelated entries meanwhile.
  auto built = std::make_shared<const linalg::LaplacianSolver>(
      make_laplacian_solver(g, opts));
  std::lock_guard lock(mutex_);
  // A racing builder may have inserted the same key; prefer the existing
  // entry so concurrent callers converge on one solver object.
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.last_used = ++clock_;
      return e.solver;
    }
  }
  if (entries_.size() >= capacity_) {
    auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
    entries_.erase(lru);
    cache_evictions().add();
  }
  entries_.push_back({key, built, ++clock_});
  return built;
}

std::size_t LaplacianSolverCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::size_t LaplacianSolverCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

std::size_t LaplacianSolverCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void LaplacianSolverCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  hits_ = misses_ = 0;
}

}  // namespace cirstag::graphs
