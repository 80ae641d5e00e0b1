#pragma once

#include <span>

#include "core/manifold.hpp"
#include "core/spectral_embedding.hpp"
#include "core/stability.hpp"
#include "graphs/graph.hpp"
#include "linalg/matrix.hpp"
#include "obs/health.hpp"
#include "obs/manifest.hpp"

namespace cirstag::core {

/// Full pipeline configuration (Algorithm 1).
struct CirStagConfig {
  SpectralEmbeddingOptions embedding;  ///< Phase 1 (input side)
  ManifoldOptions manifold;            ///< Phase 2 (both sides)
  StabilityOptions stability;          ///< Phase 3
  /// When false, skip the Phase-1 spectral dimensionality reduction and use
  /// the original input graph directly as the input manifold — the paper's
  /// Fig. 4 ablation, which degrades ranking quality.
  bool use_dimension_reduction = true;
  /// Weight of the (column-standardized) node features appended to the
  /// spectral coordinates when features are supplied to analyze(). This is
  /// how CirSTAG considers "both graph structure and node feature
  /// perturbations": input-manifold neighbors must agree on structure AND
  /// features, so a large output distance between them flags genuine
  /// mapping instability. 0 disables the feature channel.
  double feature_weight = 2.0;
};

/// Wall-clock per phase (Fig. 5 scalability series), plus the summed busy
/// time of parallel runtime tasks inside each phase: busy/wall ≈ effective
/// parallel speedup, so the Fig. 5 benchmarks can report per-phase scaling.
/// Both are read from the phase's span (`phase.embedding`, `phase.manifold`,
/// `phase.stability`; obs::TraceSpan seconds() and busy_seconds()).
struct PhaseTimings {
  double embedding_seconds = 0.0;
  double manifold_seconds = 0.0;
  double stability_seconds = 0.0;
  double embedding_busy_seconds = 0.0;
  double manifold_busy_seconds = 0.0;
  double stability_busy_seconds = 0.0;
  std::size_t threads = 1;  ///< pool width the analysis ran with
  [[nodiscard]] double total() const {
    return embedding_seconds + manifold_seconds + stability_seconds;
  }
  [[nodiscard]] double total_busy() const {
    return embedding_busy_seconds + manifold_busy_seconds +
           stability_busy_seconds;
  }
};

/// Everything CirSTAG produces for one (graph, GNN-embedding) pair.
struct CirStagReport {
  std::vector<double> node_scores;   ///< Eq. 9, per input-graph node
  std::vector<double> edge_scores;   ///< per manifold_x edge
  std::vector<double> eigenvalues;   ///< DMD spectrum (descending)
  /// √ζ-weighted eigensubspace V_s; lets callers score arbitrary node
  /// pairs — e.g. the original circuit's edges for topology studies.
  linalg::Matrix weighted_subspace;
  graphs::Graph manifold_x;
  graphs::Graph manifold_y;
  linalg::Matrix input_embedding;    ///< U_M (empty when reduction disabled)
  PhaseTimings timings;
  /// Numerical-health events (NaN/Inf sentinels, unconverged solves, Ritz
  /// residuals, …) recorded during the call that produced this report: the
  /// pipeline run for analyze() and sweep baselines, the whole
  /// SweepEngine::run() call for a sweep variant. health.ok() means nothing
  /// above info severity fired. Empty when the global HealthMonitor is
  /// disabled.
  obs::HealthReport health;
  /// FNV-1a checksums of each phase boundary's produced doubles — the run
  /// manifest's per-phase provenance (equal checksums certify bitwise-equal
  /// intermediates across thread counts / machines).
  obs::PhaseChecksums checksums;

  /// Design-wide mean of node_scores, cached at report assembly so localized
  /// queries (core::score_region / score_cone) answer without an O(n) scan
  /// over the whole design. Serial summation in node order — bit-equal to
  /// the scan it replaces. Negative = not cached (hand-built reports);
  /// queries then fall back to the scan.
  double node_score_mean = -1.0;

  /// Edge-stability score ‖V_sᵀ e_pq‖² for any node pair (p, q).
  [[nodiscard]] double pair_score(std::size_t p, std::size_t q) const {
    return weighted_subspace.row_distance2(p, q);
  }
};

/// Canonical design-mean of a node-score vector: strictly serial summation
/// in node order. CirStagReport::node_score_mean is always computed through
/// this, and so is the localized-query fallback scan, so cached and scanned
/// means are bit-equal.
[[nodiscard]] double mean_node_score(std::span<const double> scores);

/// Column standardization used by the Phase-1 feature augmentation: per-
/// column mean and multiplier (feature_weight / sd, or 0 for a constant
/// column, which is dropped to zero). analyze() refits these on every call,
/// and so does the sweep engine for every variant in both modes.
struct FeatureColumnStats {
  std::vector<double> mean;
  std::vector<double> scale;
};

/// Fit mean/scale on the columns of `x` exactly as analyze() does.
[[nodiscard]] FeatureColumnStats fit_feature_stats(const linalg::Matrix& x,
                                                   double weight);

/// Apply fitted stats: out(r,c) = (x(r,c) - mean[c]) * scale[c], with
/// constant columns (scale 0) left at zero. Row-local: rows equal in `x`
/// produce equal output rows.
[[nodiscard]] linalg::Matrix apply_feature_stats(
    const linalg::Matrix& x, const FeatureColumnStats& stats);

/// Row-concatenation [u ‖ f] used by analyze() for the augmented input
/// embedding.
[[nodiscard]] linalg::Matrix augment_embedding(const linalg::Matrix& u,
                                               const linalg::Matrix& f);

/// CirSTAG: node/edge stability analysis of a black-box GNN on graph-based
/// manifolds (DAC 2025). Usage:
///
///   core::CirStag analyzer(config);
///   auto report = analyzer.analyze(input_graph, gnn_node_embeddings);
///   // report.node_scores[i] large  =>  node i is unstable/sensitive
///
/// `input_graph` is the circuit graph the GNN consumed (pins or gates);
/// `output_embedding` is the GNN's node-embedding matrix (rows = nodes).
class CirStag {
 public:
  explicit CirStag(CirStagConfig config = {}) : config_(std::move(config)) {}

  /// Structure-only analysis (no node features on the input side).
  [[nodiscard]] CirStagReport analyze(const graphs::Graph& input_graph,
                                      const linalg::Matrix& output_embedding) const;

  /// Full analysis with node features: the Phase-1 input embedding is
  /// [U_M ‖ feature_weight · standardize(node_features)], making the input
  /// manifold sensitive to both structure and features (the configuration
  /// the Case-A capacitance-perturbation study requires).
  [[nodiscard]] CirStagReport analyze(const graphs::Graph& input_graph,
                                      const linalg::Matrix& node_features,
                                      const linalg::Matrix& output_embedding) const;

  [[nodiscard]] const CirStagConfig& config() const { return config_; }

 private:
  CirStagConfig config_;
};

}  // namespace cirstag::core
