#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cirstag::linalg {

/// Combinatorial (spanning-tree) preconditioner: an exact LDLᵀ factorization
/// of the Laplacian of a rooted spanning forest, optionally shifted by a
/// diagonal regularization. Elimination in leaf-to-root order is fill-free,
/// so both the factorization and each apply() are O(n).
///
/// For the ill-conditioned weighted kNN Laplacians of CirSTAG's manifolds a
/// low-stretch tree (the max-weight spanning forest — minimum data-distance
/// backbone) captures far more of the spectrum than the Jacobi diagonal,
/// cutting CG iteration counts severalfold. Singular (shift = 0) forests are
/// handled by clamping the vanishing root pivots; combined with the CG
/// driver's constant-vector deflation the operator stays SPD on the solve
/// subspace.
class TreeFactorization {
 public:
  TreeFactorization() = default;

  /// Factor the forest Laplacian + diag_shift·I.
  ///
  /// `parent[u]` is u's parent node (parent[u] == u marks a root),
  /// `parent_weight[u]` the weight of the edge to the parent (ignored for
  /// roots), and `order` a roots-first topological order (e.g. BFS) — the
  /// reverse of `order` must visit every child before its parent.
  [[nodiscard]] static TreeFactorization build(
      std::span<const std::uint32_t> parent,
      std::span<const double> parent_weight,
      std::span<const std::uint32_t> order, double diag_shift = 0.0);

  [[nodiscard]] bool empty() const { return inv_diag_.empty(); }
  [[nodiscard]] std::size_t dimension() const { return inv_diag_.size(); }

  /// z = M⁻¹ r via forward sweep (leaves→root), diagonal scaling, backward
  /// sweep (root→leaves). Deterministic and serial per call; independent
  /// calls may run concurrently (read-only state).
  void apply(std::span<const double> r, std::span<double> z) const;

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> order_;     // roots-first topological order
  std::vector<double> multiplier_;       // L(parent(u), u) = -w_u / d_u
  std::vector<double> inv_diag_;         // 1 / factored pivots
};

}  // namespace cirstag::linalg
