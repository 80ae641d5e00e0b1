#include "graphs/kdtree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/kernels.hpp"

namespace cirstag::graphs {

void require_finite_rows(const linalg::Matrix& points, const char* caller) {
  for (std::size_t r = 0; r < points.rows(); ++r)
    for (const double v : points.row(r))
      if (!std::isfinite(v))
        throw std::invalid_argument(std::string(caller) + ": row " +
                                    std::to_string(r) +
                                    " holds a NaN or infinite coordinate");
}

KdTree::KdTree(linalg::Matrix points) : points_(std::move(points)) {
  if (points_.rows() == 0 || points_.cols() == 0)
    throw std::invalid_argument("KdTree: empty point set");
  if (points_.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("KdTree: more than 2^32 - 1 points");
  require_finite_rows(points_, "KdTree");
  std::vector<std::uint32_t> order(points_.rows());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  // Once the root splits every leaf holds at least 12 points, so leaves pad
  // at most 3 lanes per 12 points.
  const std::size_t groups_upper = points_.rows() * 5 / 16 + 1;
  blocks_.reserve(groups_upper * 4 * points_.cols());
  index_.reserve(groups_upper * 4);
  nodes_.resize(1);
  build(0, order, 0, order.size());
}

void KdTree::build(std::size_t node, std::vector<std::uint32_t>& order,
                   std::size_t lo, std::size_t hi) {
  const std::size_t d = points_.cols();
  if (hi - lo <= kLeafSize) {
    nodes_[node].group = static_cast<std::uint32_t>(index_.size() / 4);
    nodes_[node].count = static_cast<std::uint32_t>(hi - lo);
    for (std::size_t g = lo; g < hi; g += 4) {
      for (std::size_t a = 0; a < d; ++a)
        for (std::size_t l = g; l < g + 4; ++l)
          blocks_.push_back(l < hi ? points_(order[l], a) : 0.0);
      for (std::size_t l = g; l < g + 4; ++l)
        index_.push_back(l < hi ? order[l] : 0);
    }
    return;
  }

  // Widest axis; the first one on ties.
  std::size_t axis = 0;
  double widest = -1.0;
  for (std::size_t a = 0; a < d; ++a) {
    double mn = points_(order[lo], a), mx = mn;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const double v = points_(order[i], a);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    if (mx - mn > widest) {
      widest = mx - mn;
      axis = a;
    }
  }
  // Median by (coordinate, index): a strict total order on finite points, so
  // [lo, mid) sits at or below the split coordinate and [mid, hi) at or above.
  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(order.begin() + static_cast<long>(lo),
                   order.begin() + static_cast<long>(mid),
                   order.begin() + static_cast<long>(hi),
                   [&](std::uint32_t x, std::uint32_t y) {
                     const double vx = points_(x, axis), vy = points_(y, axis);
                     return vx < vy || (vx == vy && x < y);
                   });
  const auto child = static_cast<std::uint32_t>(nodes_.size());
  nodes_.resize(nodes_.size() + 2);
  nodes_[node].split = points_(order[mid], axis);
  nodes_[node].axis = static_cast<std::uint32_t>(axis);
  nodes_[node].child = child;
  build(child, order, lo, mid);
  build(child + 1, order, mid, hi);
}

std::vector<Neighbor> KdTree::knn(std::span<const double> query, std::size_t k,
                                  std::size_t exclude_index,
                                  std::uint64_t* distance_evals) const {
  const std::size_t d = points_.cols();
  if (query.size() != d)
    throw std::invalid_argument("KdTree::knn: query dimension mismatch");
  k = std::min(k, size() - (exclude_index < size() ? 1 : 0));
  if (k == 0) return {};

  // The k best so far in ascending (distance2, index) order; `worst` is the
  // k-th distance once the list is full.
  std::vector<Neighbor> best;
  best.reserve(k);
  double worst = std::numeric_limits<double>::infinity();

  // Depth-first, near side first. A subtree carries a lower bound on every
  // distance inside it: the largest fl((q_a - s)²) over the ancestor splits
  // it lies beyond. It is skipped when popped with a bound strictly above
  // the k-th distance; a tie might still admit a smaller index.
  struct Pending {
    std::uint32_t node;
    double bound;
  };
  // Median splits keep the depth, and so the live stack, below 33 entries.
  std::array<Pending, 64> stack{};
  std::size_t top = 0;
  stack[top++] = {0, 0.0};
  const kernels::KernelTable& kt = kernels::table();
  std::array<double, kLeafSize> dist{};
  std::uint64_t evals = 0;
  while (top > 0) {
    const Pending cur = stack[--top];
    if (cur.bound > worst) continue;
    const Node& node = nodes_[cur.node];
    if (node.child != 0) {
      const double diff = query[node.axis] - node.split;
      const std::uint32_t near = diff < 0 ? 0 : 1;
      stack[top++] = {node.child + (1 - near),
                      std::max(cur.bound, diff * diff)};
      stack[top++] = {node.child + near, cur.bound};
      continue;
    }
    kt.leaf_distance2(blocks_.data() + std::size_t{node.group} * 4 * d,
                      query.data(), d, node.count, dist.data());
    evals += node.count;
    const std::uint32_t* ids = index_.data() + std::size_t{node.group} * 4;
    for (std::size_t l = 0; l < node.count; ++l) {
      const Neighbor hit{ids[l], dist[l]};
      if (hit.distance2 > worst || hit.index == exclude_index) continue;
      if (best.size() == k) {
        if (!nearer(hit, best.back())) continue;
        best.pop_back();
      }
      std::size_t pos = best.size();
      best.emplace_back();
      for (; pos > 0 && nearer(hit, best[pos - 1]); --pos)
        best[pos] = best[pos - 1];
      best[pos] = hit;
      if (best.size() == k) worst = best.back().distance2;
    }
  }
  if (distance_evals != nullptr) *distance_evals += evals;
  return best;
}

std::vector<Neighbor> KdTree::knn_of_point(
    std::size_t query_index, std::size_t k,
    std::uint64_t* distance_evals) const {
  if (query_index >= points_.rows())
    throw std::out_of_range("KdTree::knn_of_point");
  return knn(points_.row(query_index), k, query_index, distance_evals);
}

}  // namespace cirstag::graphs
