#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/perturb.hpp"
#include "circuit/views.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace cirstag::core {

namespace {

/// Fast mode: Phase-3 CG tolerance (the config's is 1e-7 by default).
/// Subspace iteration tolerates inexact inner solves and the Rayleigh-Ritz
/// projection is exact on the converged subspace, so 1e-5 leaves mid-size
/// node scores within ~1e-3 relative L2 of the tight solves while cutting
/// Phase-3 CG iterations by ~25%.
constexpr double kFastCgTolerance = 1e-5;

/// Fast mode: Phase-3 adaptive early stop — finish the subspace iteration
/// once the sorted Rayleigh quotients move by less than this fraction of
/// the largest between consecutive sweeps (config's subspace_iterations
/// stays the hard budget). Unlike a fixed truncated sweep count, whose
/// drift is set by the data-dependent eigengap and was measured anywhere
/// from 3e-3 to 0.26 at 10 sweeps, the adaptive stop runs exactly as long
/// as the spectrum requires (9-19 of 25 sweeps across 120..1500-gate
/// circuits). It keeps the deterministic cold start, so the iterate
/// trajectory tracks the naive loop's for the sweeps that do run. This is
/// the one fast-mode lever that moves scores measurably — the whole drift
/// budget, worst observed 5.7e-2, ranking nearly intact at top-50 overlap
/// ≥ 0.98.
constexpr double kFastRitzTolerance = 1e-3;

/// Fast mode: preconditioner of the Phase-3 subspace-sweep CG solves,
/// replacing the config's (Jacobi by default, kept there for
/// bit-compatibility with the historical iterates). Every solve still
/// converges to the same CG tolerance and Phase 3 makes no discrete
/// decisions, so scores track the naive loop at tolerance level (~4e-4
/// relative L2 mid-size) while the stability phase runs ~2.5x faster.
/// Deliberately NOT applied to the resistance-sketch solves: the sparsifier
/// ranks edges by sketched η = w·R_eff and thresholds them, so any
/// trajectory change there flips marginal edges and costs ~8e-2 drift for
/// no measured time win.
constexpr graphs::SolverPreconditioner kFastPreconditioner =
    graphs::SolverPreconditioner::spanning_tree;

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

/// NaN/Inf sentinel over a graph's edge weights (no allocation).
void check_graph_finite(const char* where, const graphs::Graph& g) {
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

/// The Phase-1 input embedding: U_M, with the column-standardized node
/// features appended when there are any and the weight is positive. The
/// column stats are refit on every call, so each variant is standardized in
/// its own frame, exactly as a fresh analysis of it would be.
linalg::Matrix feature_augmented(const linalg::Matrix& u,
                                 const linalg::Matrix& features,
                                 double weight) {
  if (features.empty() || weight <= 0.0) return u;
  return augment_embedding(
      u, apply_feature_stats(features, fit_feature_stats(features, weight)));
}

/// The tail of every report, computed or restored: the design mean cached,
/// all seven phase boundaries checksummed and the NaN/Inf sentinels run.
void close_report(CirStagReport& report, const graphs::Graph& input_graph,
                  const linalg::Matrix& output_embedding) {
  report.node_score_mean = mean_node_score(report.node_scores);

  obs::PhaseChecksums& sums = report.checksums;
  sums.input_graph = checksum_graph(input_graph);
  sums.embedding = checksum_matrix(report.input_embedding);
  sums.manifold_x = checksum_graph(report.manifold_x);
  sums.manifold_y = checksum_graph(report.manifold_y);
  sums.eigenvalues = obs::fnv1a_doubles(report.eigenvalues);
  sums.node_scores = obs::fnv1a_doubles(report.node_scores);
  sums.edge_scores = obs::fnv1a_doubles(report.edge_scores);

  check_graph_finite("input_graph", input_graph);
  obs::health_check_finite("output_embedding", output_embedding.data());
  obs::health_check_finite("phase.embedding", report.input_embedding.data());
  check_graph_finite("phase.manifold_x", report.manifold_x);
  check_graph_finite("phase.manifold_y", report.manifold_y);
  obs::health_check_finite("phase.dmd.eigenvalues", report.eigenvalues);
  obs::health_check_finite("phase.scores.node_scores", report.node_scores);
  obs::health_check_finite("phase.scores.edge_scores", report.edge_scores);
}

/// Phase 2 of every computed report, baseline or variant, under its span:
/// kNN + PGM manifolds on both sides, each built from its embedding. An
/// empty embedding (no dimension reduction) makes the raw input graph that
/// side's manifold (Fig. 4 ablation).
void manifold_phase(CirStagReport& report, const graphs::Graph& input_graph,
                    const linalg::Matrix& output_embedding,
                    const ManifoldOptions& opts,
                    graphs::LaplacianSolverCache& cache) {
  const auto manifold = [&](const char* side, const linalg::Matrix& emb) {
    const obs::TraceSpan span(side, "pipeline");
    if (emb.empty()) return input_graph;
    return build_manifold(emb, opts, &cache);
  };
  const obs::TraceSpan span("phase.manifold", "pipeline");
  report.manifold_x = manifold("phase.manifold_x", report.input_embedding);
  report.manifold_y = manifold("phase.manifold_y", output_embedding);
  report.timings.manifold_seconds = span.seconds();
  report.timings.manifold_busy_seconds = span.busy_seconds();
}

/// The step every computed report ends with: Phase 3 (DMD spectrum + Eq. 9
/// scores) under its span, then close_report. Returns the sweeps it ran.
std::size_t score_report(CirStagReport& report, const StabilityOptions& so,
                         graphs::LaplacianSolverCache& cache,
                         const graphs::Graph& input_graph,
                         const linalg::Matrix& output_embedding) {
  StabilityResult stab;
  {
    const obs::TraceSpan span("phase.stability", "pipeline");
    stab = stability_scores(report.manifold_x, report.manifold_y, so, &cache);
    report.timings.stability_seconds = span.seconds();
    report.timings.stability_busy_seconds = span.busy_seconds();
  }
  report.node_scores = std::move(stab.node_scores);
  report.edge_scores = std::move(stab.edge_scores);
  report.eigenvalues = std::move(stab.eigenvalues);
  report.weighted_subspace = std::move(stab.weighted_subspace);
  close_report(report, input_graph, output_embedding);
  return stab.subspace_sweeps;
}

/// The output side of a Case-A pipeline: the GNN's last-layer embedding, or
/// its standardized input features when it has no layers.
const linalg::Matrix& gnn_output(const gnn::GnnSnapshot& snap) {
  return snap.layer_outputs.empty() ? snap.std_features
                                    : snap.layer_outputs.back();
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

SweepBaselineState compute_baseline(const graphs::Graph& input_graph,
                                    const linalg::Matrix& node_features,
                                    const linalg::Matrix& output_embedding,
                                    const CirStagConfig& config,
                                    graphs::LaplacianSolverCache& cache) {
  if (input_graph.num_nodes() != output_embedding.rows())
    throw std::invalid_argument("CirSTAG: graph nodes != embedding rows");
  if (input_graph.num_nodes() == 0)
    throw std::invalid_argument("CirSTAG: empty graph");
  if (!node_features.empty() &&
      node_features.rows() != input_graph.num_nodes())
    throw std::invalid_argument("CirSTAG: graph nodes != feature rows");

  static const obs::Counter analyze_runs("pipeline.analyze_runs");
  static const obs::Gauge nodes_gauge("pipeline.nodes");
  analyze_runs.add();
  nodes_gauge.set(static_cast<double>(input_graph.num_nodes()));

  // Health events recorded from here until the end of the call belong to
  // this run's report.
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();

  SweepBaselineState state;
  CirStagReport& report = state.baseline;
  PhaseTimings& timings = report.timings;
  timings.threads = runtime::global_pool().num_threads();

  // Each Fig. 5 phase is one span, whose wall and busy time are that
  // phase's PhaseTimings fields.

  // Phase 1: input spectral embedding (Eq. 4), optionally augmented with
  // the standardized node features so the input manifold reflects both
  // structure and feature proximity. The GNN's own embeddings are the
  // output side; they are already low-dimensional.
  {
    const obs::TraceSpan span("phase.embedding", "pipeline");
    if (config.use_dimension_reduction) {
      state.u0 = spectral_embedding(input_graph, config.embedding);
      report.input_embedding =
          feature_augmented(state.u0, node_features, config.feature_weight);
    }
    timings.embedding_seconds = span.seconds();
    timings.embedding_busy_seconds = span.busy_seconds();
  }

  // Phase 2: kNN + PGM sparsification on both sides.
  manifold_phase(report, input_graph, output_embedding, config.manifold,
                 cache);
  static const obs::Gauge mx_edges("pipeline.manifold_x_edges");
  static const obs::Gauge my_edges("pipeline.manifold_y_edges");
  mx_edges.set(static_cast<double>(report.manifold_x.num_edges()));
  my_edges.set(static_cast<double>(report.manifold_y.num_edges()));

  // Phase 3: DMD spectrum + stability scores (Algorithm 1, steps 6-11) on
  // the config's own trajectory; the fast-mode levers apply to variants.
  (void)score_report(report, config.stability, cache, input_graph,
                     output_embedding);

  report.health = obs::HealthMonitor::global().collect_since(health_begin);
  return state;
}

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  const obs::TraceSpan span("sweep.baseline", "sweep");
  static const obs::Counter baselines("sweep.baselines");
  baselines.add();
  set_up_case_a();
  base_ = compute_baseline(pin_graph_, model_->base_features(),
                           gnn_output(snap_), opts_.config, cache_);
  stats_.baseline_seconds = span.seconds();
}

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts, SweepBaselineState state)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  const obs::TraceSpan span("sweep.restore", "sweep");
  static const obs::Counter restores("sweep.baseline_restores");
  restores.add();
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();
  set_up_case_a();

  // What the file carries must fit this netlist before anything indexes it.
  const std::size_t n = pin_graph_.num_nodes();
  CirStagReport& solved = state.baseline;
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("SweepEngine: snapshot " + what);
  };
  if ((opts_.config.use_dimension_reduction && state.u0.rows() != n) ||
      solved.weighted_subspace.rows() != n ||
      solved.eigenvalues.size() != solved.weighted_subspace.cols() ||
      solved.manifold_x.num_nodes() != n || solved.manifold_y.num_nodes() != n)
    reject("spectrum or manifolds do not match the netlist");
  if (!all_finite(state.u0.data()) ||
      !all_finite(solved.weighted_subspace.data()) ||
      !all_finite(solved.eigenvalues))
    reject("spectrum holds a NaN or infinite value");

  // The rest comes from the fresh pipeline's own calls: Phase 1's feature
  // augmentation, the Eq. 9 loops and the report tail.
  base_.u0 = std::move(state.u0);
  CirStagReport& report = base_.baseline;
  if (opts_.config.use_dimension_reduction)
    report.input_embedding = feature_augmented(
        base_.u0, model_->base_features(), opts_.config.feature_weight);
  report.eigenvalues = std::move(solved.eigenvalues);
  report.weighted_subspace = std::move(solved.weighted_subspace);
  report.manifold_x = std::move(solved.manifold_x);
  report.manifold_y = std::move(solved.manifold_y);
  eq9_scores(report.manifold_x, report.weighted_subspace, report.edge_scores,
             report.node_scores);
  close_report(report, pin_graph_, gnn_output(snap_));
  report.health = obs::HealthMonitor::global().collect_since(health_begin);
  stats_.baseline_seconds = span.seconds();
}

void SweepEngine::set_up_case_a() {
  // The model's pin features and arc operators stand for this netlist, so
  // it must be the object the model was built on (DESIGN.md §13).
  if (&model_->netlist() != netlist_)
    throw std::invalid_argument(
        "SweepEngine: the model was built on another netlist");
  if (!netlist_->finalized())
    throw std::invalid_argument("SweepEngine: netlist must be finalized");
  pin_graph_ = circuit::pin_graph(*netlist_);
  snap_ = model_->snapshot(model_->base_features());
  // Incremental STA re-times each variant's fanout cone (worst arrival +
  // cone stats).
  sta_ = std::make_unique<circuit::IncrementalSta>(*netlist_);
  baseline_timing_ = sta_->baseline_report();
}

std::vector<SweepVariantResult> SweepEngine::run(
    std::span<const SweepVariant> variants) {
  const obs::TraceSpan span("sweep.run", "sweep");
  static const obs::Counter runs("sweep.runs");
  static const obs::Counter variant_count("sweep.variants");
  static const obs::Counter exact_count("sweep.variants_exact");
  runs.add();
  variant_count.add(variants.size());
  if (opts_.exact) exact_count.add(variants.size());

  const std::size_t cache_hits_before = cache_.hits();
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();

  std::vector<SweepVariantResult> results(variants.size());
  // One task per variant: with two or more variants, inner phases' nested
  // parallel_for calls run serially inline; a one-variant run is a single
  // chunk, which parallel_for_chunks calls directly, so its inner phases
  // run at top level on the whole pool. Per-variant results are
  // bit-identical either way, and all reused data comes from the baseline
  // only — sibling variants never feed each other.
  runtime::parallel_for(0, variants.size(), 1, [&](std::size_t i) {
    results[i] = run_case_a(variants[i]);
  });
  // The tasks interleave their events, so every variant reports the call's.
  const obs::HealthReport health =
      obs::HealthMonitor::global().collect_since(health_begin);
  for (SweepVariantResult& r : results) r.report.health = health;

  stats_.sweep_seconds = span.seconds();
  stats_.variants = results.size();
  stats_.solver_cache_hits = cache_.hits() - cache_hits_before;
  double sta_sum = 0.0, gnn_sum = 0.0, sweep_sum = 0.0;
  std::size_t sweep_n = 0;
  const double sweep_budget =
      static_cast<double>(opts_.config.stability.subspace_iterations);
  for (const SweepVariantResult& r : results) {
    if (r.stats.subspace_sweeps > 0 && sweep_budget > 0.0) {
      sweep_sum += static_cast<double>(r.stats.subspace_sweeps) / sweep_budget;
      ++sweep_n;
    }
    sta_sum += r.stats.sta.cone_fraction();
    gnn_sum += r.stats.gnn.row_fraction();
  }
  const double n = static_cast<double>(results.size());
  stats_.avg_sta_cone_fraction = results.empty() ? 1.0 : sta_sum / n;
  stats_.avg_gnn_row_fraction = results.empty() ? 1.0 : gnn_sum / n;
  stats_.avg_subspace_sweep_fraction = sweep_n ? sweep_sum / sweep_n : 1.0;

  static const obs::Gauge g_sta("sweep.sta_cone_fraction");
  static const obs::Gauge g_gnn("sweep.gnn_row_fraction");
  static const obs::Gauge g_sweeps("sweep.subspace_sweep_fraction");
  static const obs::Gauge g_hits("sweep.solver_cache_hits");
  g_sta.set(stats_.avg_sta_cone_fraction);
  g_gnn.set(stats_.avg_gnn_row_fraction);
  g_sweeps.set(stats_.avg_subspace_sweep_fraction);
  g_hits.set(static_cast<double>(stats_.solver_cache_hits));
  return results;
}

SweepVariantResult SweepEngine::run_case_a(const SweepVariant& v) {
  const obs::TraceSpan span("sweep.variant_a", "sweep");
  SweepVariantResult out;

  // Perturbed netlist + the physically-consistent feature view (net loads
  // move together with the caps — the Table-I protocol).
  circuit::Netlist nlv = *netlist_;
  std::vector<circuit::PinId> touched;
  touched.reserve(v.cap_scalings.size());
  for (const CapScaling& cs : v.cap_scalings) {
    nlv.scale_pin_capacitance(cs.pin, cs.factor);
    touched.push_back(cs.pin);
  }
  const linalg::Matrix fv = circuit::pin_features(nlv);

  out.worst_arrival = sta_->run(nlv, touched, &out.stats.sta).worst_arrival;

  // Incremental GNN forward (bit-identical to a full forward).
  gnn::GnnIncrementalResult inc =
      model_->forward_incremental(snap_, fv, &out.stats.gnn);
  out.prediction = std::move(inc.prediction);

  // Input side: the pin graph is untouched by capacitance edits, so the
  // baseline spectral embedding is reused verbatim in both modes; only the
  // feature channel moves.
  const CirStagConfig& cfg = opts_.config;
  CirStagReport& report = out.report;
  report.timings.threads = runtime::global_pool().num_threads();
  if (cfg.use_dimension_reduction)
    report.input_embedding =
        feature_augmented(base_.u0, fv, cfg.feature_weight);

  // Phase 2 in both modes, as the baseline ran it.
  manifold_phase(report, pin_graph_, inc.embedding, cfg.manifold, cache_);

  // Phase 3 — accelerated in fast mode by three levers that each keep the
  // cold deterministic start: the spanning-tree preconditioner for the
  // inner solves and a relaxed CG tolerance (measured drift ≤ 1e-4 each —
  // Phase 3 makes no discrete decisions, so trajectory changes stay at
  // tolerance level), plus the adaptive Ritz early stop (the whole drift
  // budget; see kFastRitzTolerance).
  StabilityOptions so = cfg.stability;
  if (!opts_.exact) {
    so.preconditioner = kFastPreconditioner;
    so.cg_tolerance = kFastCgTolerance;
    so.ritz_tolerance = kFastRitzTolerance;
  }
  out.stats.subspace_sweeps =
      score_report(report, so, cache_, pin_graph_, inc.embedding);
  return out;
}

std::vector<double> SweepEngine::predict_case_a(
    std::span<const std::size_t> pins, double factor) const {
  const linalg::Matrix fv =
      circuit::perturbed_pin_features(*netlist_, pins, factor);
  return model_->forward_incremental(snap_, fv).prediction;
}

}  // namespace cirstag::core
