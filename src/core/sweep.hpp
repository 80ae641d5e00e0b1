#pragma once

#include <memory>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/sta.hpp"
#include "core/cirstag.hpp"
#include "gnn/timing_gnn.hpp"
#include "graphs/solver_cache.hpp"

namespace cirstag::core {

/// One capacitance edit of a sweep variant.
struct CapScaling {
  circuit::PinId pin = 0;
  double factor = 1.0;
};

/// One variant of a perturbation sweep (Case A): the pin capacitances it
/// scales. The engine derives the perturbed netlist, pin features, GNN
/// forward and incremental STA itself.
struct SweepVariant {
  std::vector<CapScaling> cap_scalings;
};

/// Documented fast-mode drift bound: the relative L2 distance
/// ‖s_fast − s_naive‖₂ / ‖s_naive‖₂ between a fast variant's node-score
/// vector and the naive per-variant analyze() loop's stays below this
/// bound (validated on Case-A sweeps in test_sweep.cpp).
/// The drift is entirely the Phase-3 adaptive early stop (kFastRitzTolerance
/// in core/sweep.cpp): measured across 120..1500-gate Case-A circuits and
/// their perturbed variants, the spanning-tree preconditioner and the
/// relaxed CG tolerance each contribute ≤ 1e-4 while stopping the subspace
/// iteration at Ritz stability 1e-3 contributes up to ~5.7e-2 (a fixed
/// sweep cut, by contrast, drifts unboundedly on small-eigengap manifolds
/// — 0.26 observed — which is why the stop is adaptive). Top-50 ranking
/// overlap with the naive loop stays ≥ 0.98. The bound carries ~1.4x
/// margin over the worst observed value. Exact mode has zero drift by
/// construction.
inline constexpr double kFastScoreDriftTolerance = 0.08;

struct SweepOptions {
  /// Pipeline configuration shared by the baseline and every variant.
  CirStagConfig config;
  /// Restrict reuse to provably bit-identical caches (shared solver cache,
  /// incremental STA/GNN with equality pruning, spectral reuse on an
  /// unchanged input graph): every variant report is then byte-identical to
  /// CirStag::analyze on that variant. Fast mode (false) builds the same
  /// manifolds and accelerates Phase 3 only, with the spanning-tree
  /// preconditioner, a relaxed CG tolerance and an adaptive Ritz early
  /// stop — still deterministic at any thread count, but node scores drift
  /// from the naive loop by up to kFastScoreDriftTolerance (relative L2),
  /// all of it from the early stop.
  bool exact = false;
};

/// Per-variant reuse accounting.
struct SweepVariantStats {
  circuit::IncrementalStaStats sta;
  gnn::GnnIncrementalStats gnn;
  /// Phase-3 subspace sweeps executed (< the config budget when the fast
  /// mode's adaptive Ritz stop converged early). Deterministic.
  std::size_t subspace_sweeps = 0;
};

/// Result of one variant: the full CirSTAG report plus the side products
/// (GNN arrival predictions, incremental-STA worst arrival).
struct SweepVariantResult {
  CirStagReport report;
  std::vector<double> prediction;
  double worst_arrival = 0.0;
  SweepVariantStats stats;
};

/// Aggregated sweep-level reuse stats (also exported as sweep.* metrics).
struct SweepStats {
  std::size_t variants = 0;
  double baseline_seconds = 0.0;  ///< baseline capture (ctor)
  double sweep_seconds = 0.0;     ///< last run() wall-clock
  double avg_sta_cone_fraction = 1.0;
  double avg_gnn_row_fraction = 1.0;
  /// Mean executed / budgeted Phase-3 sweeps — the fraction of eigensolver
  /// work the adaptive Ritz stop left standing (1.0 in exact mode).
  double avg_subspace_sweep_fraction = 1.0;
  std::size_t solver_cache_hits = 0;  ///< cross-variant cache hits in run()
};

/// Output of the one CirSTAG pipeline (compute_baseline): the full report
/// plus what a sweep variant reads besides it, the spectral embedding U_M.
/// CirStag::analyze returns its `baseline`; a SweepEngine adopts the whole
/// state, computed by its constructor or restored from a binary snapshot
/// (io/snapshot). A snapshot keeps only what a solve produced (U_M, the DMD
/// eigenvalues and V_s, both manifolds); the restoring constructor derives
/// the rest through the calls the fresh pipeline makes and runs no
/// eigensolve at all (eigen.runs == 0).
struct SweepBaselineState {
  CirStagReport baseline;  ///< full baseline report (incl. manifolds)
  linalg::Matrix u0;       ///< baseline spectral embedding
};

/// The CirSTAG pipeline (Algorithm 1), each phase under its `phase.*` span:
/// spectral embedding of `input_graph` plus the standardized `node_features`
/// (may be empty), kNN/PGM manifolds on both sides, DMD eigensolve and Eq. 9
/// scores. The report carries all seven phase checksums and the health
/// events recorded during the call (NaN/Inf sentinels included). Throws
/// std::invalid_argument when the graph is empty or its node count disagrees
/// with the matrices' rows.
[[nodiscard]] SweepBaselineState compute_baseline(
    const graphs::Graph& input_graph, const linalg::Matrix& node_features,
    const linalg::Matrix& output_embedding, const CirStagConfig& config,
    graphs::LaplacianSolverCache& cache);

/// Batched perturbation-sweep engine: analyzes one baseline circuit plus N
/// capacitance-perturbed variants (Case A) while sharing work across them —
/// shared Laplacian solver cache, incremental STA (fanout-cone re-timing),
/// incremental GNN forward (changed-row re-propagation) and spectral-
/// embedding reuse, all seeded from the baseline only, so cross-variant
/// parallelism stays deterministic. Every manifold is built from its
/// embedding. A topology study (Case B) scores its unperturbed graph once
/// with CirStag::analyze and needs no engine.
///
/// Typical use:
///
///   gnn::TimingGnn model(netlist);  model.train();
///   SweepEngine engine(netlist, model, opts);
///   auto results = engine.run(variants);   // one CirStagReport per variant
class SweepEngine {
 public:
  /// Engine over a netlist and the timing GNN trained on it. Runs
  /// compute_baseline on the unperturbed circuit and adopts its state. The
  /// model must have been built on this very netlist object
  /// (`&model.netlist() == &netlist`; std::invalid_argument otherwise), and
  /// the netlist must not change afterwards: the engine reads the model's
  /// pin features and arc operators as the netlist's.
  SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
              SweepOptions opts = {});

  /// Restoring constructor (io/snapshot), with the same model/netlist
  /// check: adopt what a baseline solved — no spectral embedding, eigensolve
  /// or training. Reads only `state.u0` and the report's eigenvalues, V_s and
  /// manifolds; derives the rest through the fresh pipeline's own calls
  /// (set-up, feature_augmented, eq9_scores, the report tail), so it equals a
  /// computed baseline by construction, with zero phase times. `opts` must
  /// match the exporting engine's. Stored arrays that do not fit the netlist
  /// (DESIGN.md §13 lists the checks) throw std::invalid_argument.
  SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
              SweepOptions opts, SweepBaselineState state);

  /// The warm baseline; a binary snapshot stores its solved arrays.
  [[nodiscard]] const SweepBaselineState& export_baseline_state() const {
    return base_;
  }

  [[nodiscard]] const CirStagReport& baseline() const {
    return base_.baseline;
  }
  [[nodiscard]] const circuit::TimingReport& baseline_timing() const {
    return baseline_timing_;
  }
  [[nodiscard]] const SweepOptions& options() const { return opts_; }
  /// The pin-level connectivity graph — the cone topology behind localized
  /// score-region queries (core::score_cone).
  [[nodiscard]] const graphs::Graph& pin_graph() const { return pin_graph_; }

  /// Analyze every variant (cross-variant parallel on the deterministic
  /// runtime; results are bit-identical at any thread count). Each report's
  /// `health` holds every event recorded during this call: variants run as
  /// parallel tasks, so the variants of one call share their events.
  [[nodiscard]] std::vector<SweepVariantResult> run(
      std::span<const SweepVariant> variants);

  /// GNN-only Case-A fast path: arrival predictions for scaling the listed
  /// pins' capacitances by `factor`, skipping the manifold/stability phases.
  /// Byte-identical to model.predict(perturbed_pin_features(...)) in both
  /// modes (the incremental forward is exact).
  [[nodiscard]] std::vector<double> predict_case_a(
      std::span<const std::size_t> pins, double factor) const;

  /// Stats of the baseline capture plus the most recent run().
  [[nodiscard]] const SweepStats& stats() const { return stats_; }

 private:
  /// Set-up shared by the fresh and restoring constructors: the model/netlist
  /// check, then pin graph, GNN forward snapshot of the model's pin features
  /// and incremental-STA baseline, all cheap deterministic functions of the
  /// netlist and trained model.
  void set_up_case_a();
  SweepVariantResult run_case_a(const SweepVariant& v);

  SweepOptions opts_;

  const circuit::Netlist* netlist_;
  gnn::TimingGnn* model_;
  graphs::Graph pin_graph_;
  gnn::GnnSnapshot snap_;
  std::unique_ptr<circuit::IncrementalSta> sta_;
  circuit::TimingReport baseline_timing_;

  SweepBaselineState base_;  ///< baseline artifacts shared by every variant

  graphs::LaplacianSolverCache cache_;
  SweepStats stats_;
};

}  // namespace cirstag::core
