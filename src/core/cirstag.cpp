#include "core/cirstag.hpp"

#include <cmath>
#include <stdexcept>

#include "core/sweep.hpp"

namespace cirstag::core {

double mean_node_score(std::span<const double> scores) {
  if (scores.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

// Both fits run over rows with one accumulator per column, so each column
// still sums in row order, and the passes read memory in its layout.
FeatureColumnStats fit_feature_stats(const linalg::Matrix& x, double weight) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  std::vector<double> mean(d, 0.0), var(d, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) mean[c] += x(r, c);
  for (double& m : mean) m /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) {
      const double dd = x(r, c) - mean[c];
      var[c] += dd * dd;
    }
  FeatureColumnStats stats;
  stats.mean.assign(d, 0.0);
  stats.scale.assign(d, 0.0);
  for (std::size_t c = 0; c < d; ++c) {
    const double sd = std::sqrt(var[c] / static_cast<double>(n));
    if (sd <= 1e-12) continue;  // constant column carries no information
    stats.mean[c] = mean[c];
    stats.scale[c] = weight / sd;
  }
  return stats;
}

linalg::Matrix apply_feature_stats(const linalg::Matrix& x,
                                   const FeatureColumnStats& stats) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (stats.mean.size() != d || stats.scale.size() != d)
    throw std::invalid_argument("apply_feature_stats: dimension mismatch");
  linalg::Matrix out(n, d);  // a constant column (scale 0) stays zero
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c)
      if (stats.scale[c] != 0.0)
        out(r, c) = (x(r, c) - stats.mean[c]) * stats.scale[c];
  return out;
}

linalg::Matrix augment_embedding(const linalg::Matrix& u,
                                 const linalg::Matrix& f) {
  if (u.rows() != f.rows())
    throw std::invalid_argument("augment_embedding: row-count mismatch");
  linalg::Matrix out(u.rows(), u.cols() + f.cols());
  for (std::size_t r = 0; r < u.rows(); ++r) {
    auto dst = out.row(r);
    const auto su = u.row(r);
    const auto sf = f.row(r);
    for (std::size_t c = 0; c < su.size(); ++c) dst[c] = su[c];
    for (std::size_t c = 0; c < sf.size(); ++c) dst[su.size() + c] = sf[c];
  }
  return out;
}

CirStagReport CirStag::analyze(const graphs::Graph& input_graph,
                               const linalg::Matrix& output_embedding) const {
  return analyze(input_graph, linalg::Matrix{}, output_embedding);
}

CirStagReport CirStag::analyze(const graphs::Graph& input_graph,
                               const linalg::Matrix& node_features,
                               const linalg::Matrix& output_embedding) const {
  // Cross-phase solver cache: the resistance sketches of Phase 2 and the
  // L_Y solver of Phase 3 key their solvers here, so a manifold reused
  // across phases is assembled once. Purely an assembly cache: scores are
  // bit-identical to uncached solves.
  graphs::LaplacianSolverCache solver_cache;
  return compute_baseline(input_graph, node_features, output_embedding,
                          config_, solver_cache)
      .baseline;
}

}  // namespace cirstag::core
