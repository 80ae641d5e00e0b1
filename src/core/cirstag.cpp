#include "core/cirstag.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace cirstag::core {

double mean_node_score(std::span<const double> scores) {
  if (scores.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

namespace {

/// FNV-1a over a graph's defining content (counts, endpoints, weight bits) —
/// the manifest's phase checksum for graph-valued phase outputs.
std::uint64_t checksum_graph(const graphs::Graph& g) {
  std::uint64_t h = obs::kFnv1aOffset;
  h = obs::fnv1a_u64(h, g.num_nodes());
  h = obs::fnv1a_u64(h, g.num_edges());
  for (const graphs::Edge& e : g.edges()) {
    h = obs::fnv1a_u64(h, e.u);
    h = obs::fnv1a_u64(h, e.v);
    h = obs::fnv1a_double(h, e.weight);
  }
  return h;
}

std::uint64_t checksum_matrix(const linalg::Matrix& m) {
  std::uint64_t h = obs::kFnv1aOffset;
  h = obs::fnv1a_u64(h, m.rows());
  h = obs::fnv1a_u64(h, m.cols());
  return obs::fnv1a_doubles(m.data(), h);
}

/// NaN/Inf sentinel over a graph's edge weights (no allocation; skipped
/// entirely when the health monitor is off).
void check_graph_finite(const char* where, const graphs::Graph& g) {
  if (!obs::HealthMonitor::global().enabled()) return;
  std::size_t bad = 0;
  for (const graphs::Edge& e : g.edges())
    if (!std::isfinite(e.weight)) ++bad;
  if (bad == 0) return;
  obs::record_health_event(
      "sentinel.nonfinite",
      std::string(where) + ": " + std::to_string(bad) + " of " +
          std::to_string(g.num_edges()) + " edge weights non-finite",
      static_cast<double>(bad), 0.0, obs::HealthSeverity::error);
}

}  // namespace

FeatureColumnStats fit_feature_stats(const linalg::Matrix& x, double weight) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  FeatureColumnStats stats;
  stats.mean.assign(d, 0.0);
  stats.scale.assign(d, 0.0);
  for (std::size_t c = 0; c < d; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += x(r, c);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double dd = x(r, c) - mean;
      var += dd * dd;
    }
    const double sd = std::sqrt(var / static_cast<double>(n));
    if (sd <= 1e-12) continue;  // constant column carries no information
    stats.mean[c] = mean;
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
  linalg::Matrix out(n, d);
  for (std::size_t c = 0; c < d; ++c) {
    const double scale = stats.scale[c];
    if (scale == 0.0) continue;  // constant column: stays zero
    const double mean = stats.mean[c];
    for (std::size_t r = 0; r < n; ++r) out(r, c) = (x(r, c) - mean) * scale;
  }
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
  if (input_graph.num_nodes() != output_embedding.rows())
    throw std::invalid_argument(
        "CirStag::analyze: graph nodes != embedding rows");
  if (input_graph.num_nodes() == 0)
    throw std::invalid_argument("CirStag::analyze: empty graph");
  if (!node_features.empty() &&
      node_features.rows() != input_graph.num_nodes())
    throw std::invalid_argument(
        "CirStag::analyze: graph nodes != feature rows");

  if (config_.threads != 0) runtime::set_global_threads(config_.threads);

  static const obs::Counter analyze_runs("pipeline.analyze_runs");
  static const obs::Gauge nodes_gauge("pipeline.nodes");
  analyze_runs.add();
  nodes_gauge.set(static_cast<double>(input_graph.num_nodes()));

  // Health events recorded from here until the end of the call belong to
  // this run's report.
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();

  CirStagReport report;
  report.checksums.input_graph = checksum_graph(input_graph);
  check_graph_finite("analyze.input_graph", input_graph);
  obs::health_check_finite("analyze.output_embedding", output_embedding.data());
  report.timings.threads = runtime::global_pool().num_threads();

  // Each Fig. 5 phase is one span, whose wall and busy time are that
  // phase's PhaseTimings fields.

  // Phase 1: input spectral embedding (Eq. 4), optionally augmented with
  // the standardized node features so the input manifold reflects both
  // structure and feature proximity. The GNN's own embeddings are the
  // output side; they are already low-dimensional.
  {
    const obs::TraceSpan span("phase.embedding", "pipeline");
    if (config_.use_dimension_reduction) {
      const linalg::Matrix u =
          spectral_embedding(input_graph, config_.embedding);
      if (!node_features.empty() && config_.feature_weight > 0.0) {
        const linalg::Matrix f = apply_feature_stats(
            node_features,
            fit_feature_stats(node_features, config_.feature_weight));
        report.input_embedding = augment_embedding(u, f);
      } else {
        report.input_embedding = u;
      }
    }
    report.checksums.embedding = checksum_matrix(report.input_embedding);
    obs::health_check_finite("phase.embedding", report.input_embedding.data());
    report.timings.embedding_seconds = span.seconds();
    report.timings.embedding_busy_seconds = span.busy_seconds();
  }

  // Cross-phase solver cache: the resistance sketches of Phase 2 and the
  // L_Y solver of Phase 3 key their solvers here, so a manifold reused
  // across phases is assembled once. Purely an assembly cache: scores are
  // bit-identical to uncached solves.
  graphs::LaplacianSolverCache solver_cache;

  // Phase 2: kNN + PGM sparsification on both sides. Without dimension
  // reduction the raw input graph itself serves as the input manifold
  // (Fig. 4 ablation).
  {
    const obs::TraceSpan span("phase.manifold", "pipeline");
    {
      const obs::TraceSpan side("phase.manifold_x", "pipeline");
      if (config_.use_dimension_reduction) {
        report.manifold_x = build_manifold(report.input_embedding,
                                           config_.manifold, &solver_cache);
      } else {
        report.manifold_x = input_graph;
      }
    }
    {
      const obs::TraceSpan side("phase.manifold_y", "pipeline");
      report.manifold_y =
          build_manifold(output_embedding, config_.manifold, &solver_cache);
    }
    static const obs::Gauge mx_edges("pipeline.manifold_x_edges");
    static const obs::Gauge my_edges("pipeline.manifold_y_edges");
    mx_edges.set(static_cast<double>(report.manifold_x.num_edges()));
    my_edges.set(static_cast<double>(report.manifold_y.num_edges()));
    report.checksums.manifold_x = checksum_graph(report.manifold_x);
    report.checksums.manifold_y = checksum_graph(report.manifold_y);
    check_graph_finite("phase.manifold_x", report.manifold_x);
    check_graph_finite("phase.manifold_y", report.manifold_y);
    report.timings.manifold_seconds = span.seconds();
    report.timings.manifold_busy_seconds = span.busy_seconds();
  }

  // Phase 3: DMD spectrum + stability scores (Algorithm 1, steps 6-11).
  StabilityResult stab;
  {
    const obs::TraceSpan span("phase.stability", "pipeline");
    stab = stability_scores(report.manifold_x, report.manifold_y,
                            config_.stability, &solver_cache);
    report.timings.stability_seconds = span.seconds();
    report.timings.stability_busy_seconds = span.busy_seconds();
  }

  report.node_scores = std::move(stab.node_scores);
  report.edge_scores = std::move(stab.edge_scores);
  report.eigenvalues = std::move(stab.eigenvalues);
  report.weighted_subspace = std::move(stab.weighted_subspace);
  report.node_score_mean = mean_node_score(report.node_scores);

  report.checksums.eigenvalues =
      obs::fnv1a_doubles(report.eigenvalues);
  report.checksums.node_scores = obs::fnv1a_doubles(report.node_scores);
  report.checksums.edge_scores = obs::fnv1a_doubles(report.edge_scores);
  obs::health_check_finite("phase.dmd.eigenvalues", report.eigenvalues);
  obs::health_check_finite("phase.scores.node_scores", report.node_scores);
  obs::health_check_finite("phase.scores.edge_scores", report.edge_scores);

  report.health = obs::HealthMonitor::global().collect_since(health_begin);
  return report;
}

}  // namespace cirstag::core
