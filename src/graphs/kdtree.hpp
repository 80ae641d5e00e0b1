#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/aligned.hpp"

namespace cirstag::graphs {

/// A neighbor hit: point index and squared Euclidean distance.
struct Neighbor {
  std::size_t index = 0;
  double distance2 = 0.0;
};

/// The order of every neighbor list: by squared distance, ties by index.
inline bool nearer(const Neighbor& a, const Neighbor& b) {
  return a.distance2 < b.distance2 ||
         (a.distance2 == b.distance2 && a.index < b.index);
}

/// Throws std::invalid_argument, prefixed with `caller`, naming the first row
/// of `points` that holds a NaN or ±Inf. kNN search assumes finite
/// coordinates: the median split needs a strict weak order and the pruning
/// bound needs finite differences.
void require_finite_rows(const linalg::Matrix& points, const char* caller);

/// Static bucketed KD-tree over the rows of a point matrix (N points in R^d).
///
/// Exact k-nearest-neighbor queries under the total order (d², index): a
/// query returns the k smallest pairs, so ties resolve the same way for any
/// traversal and thread count. Construction splits at the median of the
/// widest axis (ties broken by index) down to leaves of at most kLeafSize
/// points, O(N log N) — the paper's kNN-stage complexity. Leaves are stored
/// contiguously in tree order as dimension-major groups of 4 points, so one
/// kernels leaf_distance2 call scores a whole leaf with the bits of
/// kernels::distance2 (and so of Matrix::row_distance2). DESIGN.md "kNN
/// search" has the layout and the proof that pruning stays exact.
class KdTree {
 public:
  /// Median splits stop at this many points or fewer.
  static constexpr std::size_t kLeafSize = 24;

  /// Builds the tree over `points`. Throws std::invalid_argument if the set
  /// is empty or a row is not finite.
  explicit KdTree(linalg::Matrix points);

  /// The k nearest neighbors of `query_index`'s own point, excluding itself.
  [[nodiscard]] std::vector<Neighbor> knn_of_point(
      std::size_t query_index, std::size_t k,
      std::uint64_t* distance_evals = nullptr) const;

  /// The k nearest stored points to `query`, skipping `exclude_index` (pass
  /// size() to skip none), in ascending (distance2, index) order. Adds the
  /// number of point distances computed to `*distance_evals` when given.
  [[nodiscard]] std::vector<Neighbor> knn(
      std::span<const double> query, std::size_t k, std::size_t exclude_index,
      std::uint64_t* distance_evals = nullptr) const;

  [[nodiscard]] std::size_t size() const { return points_.rows(); }
  [[nodiscard]] std::size_t dims() const { return points_.cols(); }

 private:
  /// Internal node (child != 0): nodes `child` and `child + 1` hold the
  /// points at or below and at or above `split` on `axis`. Leaf (child == 0;
  /// the root is never a child): `count` points from 4-point group `group`.
  struct Node {
    double split = 0.0;
    std::uint32_t axis = 0;
    std::uint32_t child = 0;
    std::uint32_t group = 0;
    std::uint32_t count = 0;
  };

  void build(std::size_t node, std::vector<std::uint32_t>& order,
             std::size_t lo, std::size_t hi);

  linalg::Matrix points_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  // Leaf groups in tree order: group g's coordinate a of lane l sits at
  // blocks_[(g*d + a)*4 + l], its point index at index_[g*4 + l]. Lanes past
  // a leaf's count are zero padding.
  std::vector<double, util::AlignedAllocator<double>> blocks_;
  std::vector<std::uint32_t> index_;
};

}  // namespace cirstag::graphs
