#include "linalg/tree_precond.hpp"

#include <stdexcept>

namespace cirstag::linalg {

TreeFactorization TreeFactorization::build(
    std::span<const std::uint32_t> parent,
    std::span<const double> parent_weight,
    std::span<const std::uint32_t> order, double diag_shift) {
  const std::size_t n = parent.size();
  if (parent_weight.size() != n || order.size() != n)
    throw std::invalid_argument("TreeFactorization::build: size mismatch");

  TreeFactorization f;
  f.parent_.assign(parent.begin(), parent.end());
  f.order_.assign(order.begin(), order.end());
  f.multiplier_.assign(n, 0.0);

  // Unfactored diagonal: weighted forest degree plus the shift.
  std::vector<double> diag(n, diag_shift);
  std::vector<double> degree(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t p = parent[u];
    if (p >= n) throw std::out_of_range("TreeFactorization::build: parent");
    if (p == u) continue;
    const double w = parent_weight[u];
    if (!(w > 0.0))
      throw std::invalid_argument(
          "TreeFactorization::build: non-positive edge weight");
    diag[u] += w;
    diag[p] += w;
    degree[u] += w;
    degree[p] += w;
  }

  // Leaf-to-root elimination (no fill on a forest).
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t u = f.order_[i];
    const std::uint32_t p = f.parent_[u];
    if (p == u) continue;
    const double w = parent_weight[u];
    const double l = -w / diag[u];
    f.multiplier_[u] = l;
    diag[p] += l * w;  // d_p -= w² / d_u
  }

  // Roots of a shift-free forest have an exactly-zero pivot (the constant
  // nullspace). Clamp them: with deflated right-hand sides the root equation
  // is 0 = 0, and the CG driver re-deflates after every apply, so any
  // positive pivot yields the same preconditioned iteration.
  f.inv_diag_.assign(n, 1.0);
  for (std::size_t u = 0; u < n; ++u) {
    const double floor_u = 1e-12 * (degree[u] > 0.0 ? degree[u] : 1.0);
    f.inv_diag_[u] = diag[u] > floor_u ? 1.0 / diag[u] : 1.0;
  }
  return f;
}

void TreeFactorization::apply(std::span<const double> r,
                              std::span<double> z) const {
  const std::size_t n = dimension();
  if (r.size() != n || z.size() != n)
    throw std::invalid_argument("TreeFactorization::apply: size mismatch");
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i];
  // Forward solve L v = r: reverse topological order finalizes every node
  // before scattering its contribution to the parent.
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t u = order_[i];
    const std::uint32_t p = parent_[u];
    if (p != u) z[p] -= multiplier_[u] * z[u];
  }
  for (std::size_t i = 0; i < n; ++i) z[i] *= inv_diag_[i];
  // Backward solve Lᵀ z = w: parents finalize before their children.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = order_[i];
    const std::uint32_t p = parent_[u];
    if (p != u) z[u] -= multiplier_[u] * z[p];
  }
}

}  // namespace cirstag::linalg
