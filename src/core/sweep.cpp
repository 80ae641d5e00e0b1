#include "core/sweep.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/perturb.hpp"
#include "circuit/views.hpp"
#include "graphs/laplacian.hpp"
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

/// Rows of `a` that differ from the same row of `b` (same shape assumed).
std::vector<std::uint32_t> changed_rows(const linalg::Matrix& a,
                                        const linalg::Matrix& b) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    double d2 = 0.0;
    for (std::size_t c = 0; c < ra.size(); ++c) {
      const double d = ra[c] - rb[c];
      d2 += d * d;
    }
    if (d2 > 0.0) out.push_back(static_cast<std::uint32_t>(r));
  }
  return out;
}

}  // namespace

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  if (!netlist.finalized())
    throw std::invalid_argument("SweepEngine: netlist must be finalized");
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.baseline", "sweep");

  pin_graph_ = circuit::pin_graph(netlist);
  features0_ = circuit::pin_features(netlist);
  snap_ = model.snapshot(features0_);
  // Incremental STA re-times each Case-A variant's fanout cone (worst
  // arrival + cone stats).
  sta_ = std::make_unique<circuit::IncrementalSta>(netlist);
  baseline_timing_ = sta_->baseline_report();

  build_baseline(pin_graph_, features0_,
                 snap_.layer_outputs.empty() ? snap_.std_features
                                             : snap_.layer_outputs.back());
  stats_.baseline_seconds = span.seconds();
}

SweepEngine::SweepEngine(const graphs::Graph& input_graph,
                         const linalg::Matrix& node_features,
                         const linalg::Matrix& output_embedding,
                         SweepOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.baseline", "sweep");
  features0_ = node_features;
  build_baseline(input_graph, node_features, output_embedding);
  stats_.baseline_seconds = span.seconds();
}

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts, SweepBaselineState state)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  if (!netlist.finalized())
    throw std::invalid_argument("SweepEngine: netlist must be finalized");
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.restore", "sweep");
  static const obs::Counter restores("sweep.baseline_restores");
  restores.add();

  // Cheap derived state — recomputed, not serialized: the pin graph and
  // feature matrix are pure functions of the netlist, the GNN snapshot is
  // one forward pass on the already-trained model, and the incremental-STA
  // baseline is one levelized traversal. None of them touch an eigensolver.
  pin_graph_ = circuit::pin_graph(netlist);
  features0_ = circuit::pin_features(netlist);
  snap_ = model.snapshot(features0_);
  sta_ = std::make_unique<circuit::IncrementalSta>(netlist);
  baseline_timing_ = sta_->baseline_report();

  // Adopt the warm state after shape validation against this netlist/model.
  const std::size_t n = pin_graph_.num_nodes();
  const CirStagConfig& cfg = opts_.config;
  if (state.baseline.node_scores.size() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot node scores do not match the netlist (" +
        std::to_string(state.baseline.node_scores.size()) + " vs " +
        std::to_string(n) + " pins)");
  if (cfg.use_dimension_reduction && state.u0.rows() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot spectral embedding does not match the netlist");
  if (state.baseline.manifold_x.num_nodes() != n ||
      state.baseline.manifold_y.num_nodes() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot manifolds do not match the netlist");
  baseline_.timings.threads = runtime::global_pool().num_threads();
  u0_ = std::move(state.u0);
  raw_subspace0_ = std::move(state.raw_subspace0);
  mx_base_ = std::move(state.mx);
  my_base_ = std::move(state.my);
  hier0_ = std::move(state.hier0);
  hier_key_ = state.hier_key;
  baseline_ = std::move(state.baseline);

  // Pre-seed the solver cache with the variant-phase (L_Y + I/σ²) solver,
  // reattaching the snapshot's factored spanning-tree preconditioner so the
  // first variant skips the Kruskal + BFS + LDLᵀ build too. The Laplacian
  // assembly itself is O(m) and recomputed here.
  if (!state.variant_tree.empty()) {
    const graphs::SolverOptions vopts = variant_solver_options();
    if (state.variant_tree.dimension() == n) {
      auto solver = std::make_shared<const linalg::LaplacianSolver>(
          graphs::laplacian(baseline_.manifold_y), vopts.regularization,
          vopts.cg, std::move(state.variant_tree));
      cache_.insert(baseline_.manifold_y, vopts, std::move(solver));
    }
  }
  stats_.baseline_seconds = span.seconds();
}

graphs::SolverOptions SweepEngine::variant_solver_options() const {
  // Mirrors finish_variant's StabilityOptions overrides plus the
  // SolverOptions construction inside stability_scores — one place to keep
  // the snapshot export/restore key honest.
  const StabilityOptions& st = opts_.config.stability;
  const bool fast = !opts_.exact;
  graphs::SolverOptions s;
  s.regularization = 1.0 / st.sigma2;
  s.preconditioner = fast ? kFastPreconditioner : st.preconditioner;
  s.cg.tolerance = fast ? kFastCgTolerance : st.cg_tolerance;
  s.cg.max_iterations = st.cg_max_iterations;
  s.cg.budget_bounded = true;
  return s;
}

SweepBaselineState SweepEngine::export_baseline_state() {
  if (netlist_ == nullptr)
    throw std::logic_error(
        "SweepEngine: snapshot export needs a Case-A engine");
  SweepBaselineState state;
  state.baseline = baseline_;
  state.u0 = u0_;
  state.raw_subspace0 = raw_subspace0_;
  state.mx = mx_base_;
  state.my = my_base_;
  state.hier0 = hier0_;
  state.hier_key = hier_key_;
  state.baseline_seconds = stats_.baseline_seconds;
  // Export the variant-phase solver's tree factorization (builds through
  // the shared cache when no variant has demanded it yet — snapshot-write
  // time, so the one-off cost is fine).
  const graphs::SolverOptions vopts = variant_solver_options();
  if (vopts.preconditioner == graphs::SolverPreconditioner::spanning_tree) {
    const auto solver = cache_.solver(baseline_.manifold_y, vopts);
    if (solver->has_tree_preconditioner()) {
      const linalg::TreeFactorization& t = solver->tree();
      state.variant_tree = linalg::TreeFactorization::from_state(
          {t.parent().begin(), t.parent().end()},
          {t.order().begin(), t.order().end()},
          {t.multipliers().begin(), t.multipliers().end()},
          {t.inv_diag().begin(), t.inv_diag().end()});
    }
  }
  return state;
}

const circuit::TimingReport& SweepEngine::baseline_timing() const {
  if (netlist_ == nullptr)
    throw std::logic_error("SweepEngine: no netlist (graph-mode engine)");
  return baseline_timing_;
}

void SweepEngine::build_baseline(const graphs::Graph& input_graph,
                                 const linalg::Matrix& node_features,
                                 const linalg::Matrix& output_embedding) {
  static const obs::Counter baselines("sweep.baselines");
  baselines.add();
  const CirStagConfig& cfg = opts_.config;
  if (input_graph.num_nodes() != output_embedding.rows())
    throw std::invalid_argument("SweepEngine: graph nodes != embedding rows");

  PhaseTimings& timings = baseline_.timings;
  timings.threads = runtime::global_pool().num_threads();

  // Phase 1 — same construction as CirStag::analyze.
  linalg::Matrix x_emb;
  {
    const obs::TraceSpan span("phase.embedding", "pipeline");
    if (cfg.use_dimension_reduction) {
      u0_ = spectral_embedding(input_graph, cfg.embedding);
      if (!node_features.empty() && cfg.feature_weight > 0.0) {
        const linalg::Matrix f0 = apply_feature_stats(
            node_features,
            fit_feature_stats(node_features, cfg.feature_weight));
        x_emb = augment_embedding(u0_, f0);
      } else {
        x_emb = u0_;
      }
    }
    baseline_.input_embedding = x_emb;
    timings.embedding_seconds = span.seconds();
    timings.embedding_busy_seconds = span.busy_seconds();
  }

  // Phase 2 — in fast mode capture the kNN baselines every variant's delta
  // re-query starts from.
  const bool fast = !opts_.exact;
  {
    const obs::TraceSpan span("phase.manifold", "pipeline");
    if (cfg.use_dimension_reduction) {
      if (fast) {
        mx_base_ = capture_manifold_baseline(x_emb, cfg.manifold, &cache_);
        baseline_.manifold_x = mx_base_.manifold;
      } else {
        baseline_.manifold_x = build_manifold(x_emb, cfg.manifold, &cache_);
      }
    } else {
      baseline_.manifold_x = input_graph;
    }
    if (fast) {
      my_base_ =
          capture_manifold_baseline(output_embedding, cfg.manifold, &cache_);
      baseline_.manifold_y = my_base_.manifold;
    } else {
      baseline_.manifold_y =
          build_manifold(output_embedding, cfg.manifold, &cache_);
    }
    timings.manifold_seconds = span.seconds();
    timings.manifold_busy_seconds = span.busy_seconds();
  }

  // Phase 3 — the baseline runs the config's own trajectory
  // (preconditioner, tolerance, sweep count) so the captured report stays
  // byte-identical to CirStag::analyze in both modes.
  StabilityOptions so = cfg.stability;
  // Capture the multilevel pair hierarchy (when the path engages) so fast
  // variants can reuse its prolongation maps instead of re-matching.
  so.hierarchy_capture = &hier0_;
  StabilityResult stab;
  {
    const obs::TraceSpan span("phase.stability", "pipeline");
    stab = stability_scores(baseline_.manifold_x, baseline_.manifold_y, so,
                            &cache_);
    timings.stability_seconds = span.seconds();
    timings.stability_busy_seconds = span.busy_seconds();
  }
  if (!hier0_.empty()) hier_key_ = baseline_.manifold_x.fingerprint();
  raw_subspace0_ = std::move(stab.raw_subspace);
  baseline_.node_scores = std::move(stab.node_scores);
  baseline_.edge_scores = std::move(stab.edge_scores);
  baseline_.eigenvalues = std::move(stab.eigenvalues);
  baseline_.weighted_subspace = std::move(stab.weighted_subspace);
  baseline_.node_score_mean = mean_node_score(baseline_.node_scores);
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

  std::vector<SweepVariantResult> results(variants.size());
  // One task per variant: inner phases' nested parallel_for calls run
  // serially inline, so per-variant results are bit-identical at any pool
  // width, and all reused data comes from the baseline only — sibling
  // variants never feed each other.
  runtime::parallel_for(0, variants.size(), 1, [&](std::size_t i) {
    results[i] = run_variant(variants[i], i);
  });

  stats_.sweep_seconds = span.seconds();
  stats_.variants = results.size();
  stats_.solver_cache_hits = cache_.hits() - cache_hits_before;
  double sta_sum = 0.0, gnn_sum = 0.0, knn_sum = 0.0, sweep_sum = 0.0;
  std::size_t sta_n = 0, gnn_n = 0, knn_n = 0, sweep_n = 0;
  const double sweep_budget =
      static_cast<double>(opts_.config.stability.subspace_iterations);
  for (const SweepVariantResult& r : results) {
    if (r.stats.subspace_sweeps > 0 && sweep_budget > 0.0) {
      sweep_sum += static_cast<double>(r.stats.subspace_sweeps) / sweep_budget;
      ++sweep_n;
    }
    if (r.stats.sta.total_gates > 0) {
      sta_sum += r.stats.sta.cone_fraction();
      ++sta_n;
    }
    if (r.stats.gnn.total_rows > 0) {
      gnn_sum += r.stats.gnn.row_fraction();
      ++gnn_n;
    }
    for (const graphs::KnnUpdateStats* k : {&r.stats.knn_x, &r.stats.knn_y}) {
      if (k->total_points > 0) {
        knn_sum += static_cast<double>(k->requeried_points) /
                   static_cast<double>(k->total_points);
        ++knn_n;
      }
    }
  }
  stats_.avg_sta_cone_fraction = sta_n ? sta_sum / sta_n : 1.0;
  stats_.avg_gnn_row_fraction = gnn_n ? gnn_sum / gnn_n : 1.0;
  stats_.avg_knn_requery_fraction = knn_n ? knn_sum / knn_n : 1.0;
  stats_.avg_subspace_sweep_fraction = sweep_n ? sweep_sum / sweep_n : 1.0;

  static const obs::Gauge g_sta("sweep.sta_cone_fraction");
  static const obs::Gauge g_gnn("sweep.gnn_row_fraction");
  static const obs::Gauge g_knn("sweep.knn_requery_fraction");
  static const obs::Gauge g_sweeps("sweep.subspace_sweep_fraction");
  static const obs::Gauge g_hits("sweep.solver_cache_hits");
  g_sta.set(stats_.avg_sta_cone_fraction);
  g_gnn.set(stats_.avg_gnn_row_fraction);
  g_knn.set(stats_.avg_knn_requery_fraction);
  g_sweeps.set(stats_.avg_subspace_sweep_fraction);
  g_hits.set(static_cast<double>(stats_.solver_cache_hits));
  return results;
}

SweepVariantResult SweepEngine::run_variant(const SweepVariant& v,
                                            std::size_t index) {
  if (v.input_graph != nullptr || v.output_embedding != nullptr)
    return run_case_b(v, index);
  return run_case_a(v, index);
}

SweepVariantResult SweepEngine::run_case_a(const SweepVariant& v,
                                           std::size_t index) {
  if (netlist_ == nullptr || model_ == nullptr)
    throw std::invalid_argument(
        "SweepEngine: Case-A variant on a graph-mode engine");
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

  if (sta_) {
    const circuit::TimingReport rep = sta_->run(nlv, touched, &out.stats.sta);
    out.worst_arrival = rep.worst_arrival;
  }

  // Incremental GNN forward (bit-identical to a full forward).
  gnn::GnnIncrementalResult inc =
      model_->forward_incremental(snap_, fv, &out.stats.gnn);
  out.prediction = std::move(inc.prediction);

  // Input side: the pin graph is untouched by capacitance edits, so the
  // baseline spectral embedding is reused verbatim in both modes; only the
  // feature channel moves. Both modes refit the column stats on the variant
  // (analyze()'s own behavior). The refit shifts every standardized row, so
  // the input-side kNN graph is rebuilt in full rather than delta-re-queried.
  linalg::Matrix x_emb;
  const CirStagConfig& cfg = opts_.config;
  if (cfg.use_dimension_reduction) {
    out.stats.spectral_reused = true;
    if (!fv.empty() && cfg.feature_weight > 0.0) {
      const linalg::Matrix f =
          apply_feature_stats(fv, fit_feature_stats(fv, cfg.feature_weight));
      x_emb = augment_embedding(u0_, f);
    } else {
      x_emb = u0_;
    }
  }

  finish_variant(out, std::move(x_emb), &pin_graph_, inc.embedding);
  if (!opts_.exact && opts_.audit_drift)
    audit_variant_drift(out, pin_graph_, &fv, inc.embedding, index);
  return out;
}

SweepVariantResult SweepEngine::run_case_b(const SweepVariant& v,
                                           std::size_t index) {
  if (v.input_graph == nullptr || v.output_embedding == nullptr)
    throw std::invalid_argument(
        "SweepEngine: Case-B variant needs input_graph and output_embedding");
  const obs::TraceSpan span("sweep.variant_b", "sweep");
  SweepVariantResult out;
  const CirStagConfig& cfg = opts_.config;
  const graphs::Graph& g = *v.input_graph;
  if (g.num_nodes() != v.output_embedding->rows())
    throw std::invalid_argument(
        "SweepEngine: variant graph nodes != embedding rows");

  linalg::Matrix x_emb;
  if (cfg.use_dimension_reduction) {
    // The topology changed, so the spectrum is recomputed from the same
    // deterministic start as analyze(). Feature stats are refit per variant
    // (analyze()'s behavior) in both modes.
    const linalg::Matrix u = spectral_embedding(g, cfg.embedding);
    const linalg::Matrix* feats = v.node_features;
    if (feats != nullptr && !feats->empty() && cfg.feature_weight > 0.0) {
      const linalg::Matrix f = apply_feature_stats(
          *feats, fit_feature_stats(*feats, cfg.feature_weight));
      x_emb = augment_embedding(u, f);
    } else {
      x_emb = u;
    }
  }

  finish_variant(out, std::move(x_emb), &g, *v.output_embedding);
  if (!opts_.exact && opts_.audit_drift)
    audit_variant_drift(out, g, v.node_features, *v.output_embedding, index);
  return out;
}

void SweepEngine::audit_variant_drift(SweepVariantResult& out,
                                      const graphs::Graph& input_graph,
                                      const linalg::Matrix* node_features,
                                      const linalg::Matrix& output_embedding,
                                      std::size_t index) const {
  // The reference is the naive per-variant loop: a fresh CirStag::analyze
  // with the sweep's own config. threads is zeroed because the audit runs
  // inside run()'s parallel region — resizing the global pool from a worker
  // would tear down the pool mid-flight; the nested analyze simply runs
  // serially inline like every nested parallel region.
  CirStagConfig naive_cfg = opts_.config;
  naive_cfg.threads = 0;
  const CirStag naive(naive_cfg);
  const CirStagReport ref =
      node_features != nullptr && !node_features->empty()
          ? naive.analyze(input_graph, *node_features, output_embedding)
          : naive.analyze(input_graph, output_embedding);

  const std::vector<double>& fast_scores = out.report.node_scores;
  const std::vector<double>& ref_scores = ref.node_scores;
  double diff2 = 0.0, ref2 = 0.0;
  const std::size_t n = std::min(fast_scores.size(), ref_scores.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = fast_scores[i] - ref_scores[i];
    diff2 += d * d;
    ref2 += ref_scores[i] * ref_scores[i];
  }
  const double drift =
      ref2 > 0.0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
  out.stats.audited_drift = drift;

  static const obs::Counter audits("sweep.drift_audits");
  audits.add();
  const bool over = drift > kFastScoreDriftTolerance ||
                    fast_scores.size() != ref_scores.size();
  obs::record_health_event(
      "sweep.drift",
      "variant " + std::to_string(index) +
          ": fast-vs-naive node-score drift " + std::to_string(drift) +
          " (documented bound " + std::to_string(kFastScoreDriftTolerance) +
          ")",
      drift, kFastScoreDriftTolerance,
      over ? obs::HealthSeverity::error : obs::HealthSeverity::info);
}

void SweepEngine::finish_variant(SweepVariantResult& out,
                                 linalg::Matrix input_embedding,
                                 const graphs::Graph* input_graph,
                                 const linalg::Matrix& output_embedding) {
  const CirStagConfig& cfg = opts_.config;
  const bool fast = !opts_.exact;
  CirStagReport& report = out.report;
  report.timings.threads = runtime::global_pool().num_threads();
  report.input_embedding = std::move(input_embedding);

  // Phase 2.
  {
    const obs::TraceSpan span("phase.manifold", "pipeline");
    // Adaptive kNN delta (fast mode): each side re-queries only around the
    // rows that moved relative to the captured baseline — worthwhile only
    // when a minority moved, otherwise a full build is both faster and free
    // of the delta's one-sided-neighbor approximation. GNN-output
    // perturbations stay inside the perturbed pins' DAG cones, so on the
    // output side the moved set is those cones, not the whole embedding.
    std::vector<std::uint32_t> moved_x, moved_y;
    bool delta_x = false, delta_y = false;
    if (fast) {
      const linalg::Matrix& x = report.input_embedding;
      if (!x.empty() && mx_base_.knn.points.rows() == x.rows() &&
          mx_base_.knn.points.cols() == x.cols()) {
        moved_x = changed_rows(x, mx_base_.knn.points);
        delta_x = moved_x.size() * 2 < x.rows();
      }
      if (my_base_.knn.points.rows() == output_embedding.rows() &&
          my_base_.knn.points.cols() == output_embedding.cols()) {
        moved_y = changed_rows(output_embedding, my_base_.knn.points);
        delta_y = moved_y.size() * 2 < output_embedding.rows();
      }
    }

    if (report.input_embedding.empty()) {
      report.manifold_x =
          input_graph != nullptr ? *input_graph : graphs::Graph();
    } else if (delta_x) {
      report.manifold_x =
          build_manifold_delta(mx_base_, report.input_embedding, moved_x,
                               cfg.manifold, &cache_, &out.stats.knn_x);
    } else {
      report.manifold_x =
          build_manifold(report.input_embedding, cfg.manifold, &cache_);
    }
    if (delta_y) {
      report.manifold_y = build_manifold_delta(my_base_, output_embedding,
                                               moved_y, cfg.manifold, &cache_,
                                               &out.stats.knn_y);
    } else {
      report.manifold_y =
          build_manifold(output_embedding, cfg.manifold, &cache_);
    }
    report.timings.manifold_seconds = span.seconds();
    report.timings.manifold_busy_seconds = span.busy_seconds();
  }

  // Phase 3 — accelerated in fast mode by three levers that each keep the
  // cold deterministic start: the spanning-tree preconditioner for the
  // inner solves and a relaxed CG tolerance (measured drift ≤ 1e-4 each —
  // Phase 3 makes no discrete decisions, so trajectory changes stay at
  // tolerance level), plus the adaptive Ritz early stop (the whole drift
  // budget; see kFastRitzTolerance).
  StabilityOptions so = cfg.stability;
  if (fast) {
    so.preconditioner = kFastPreconditioner;
    so.cg_tolerance = kFastCgTolerance;
    so.ritz_tolerance = kFastRitzTolerance;
  }
  // Hierarchy reuse (fast mode, DESIGN.md §13): variants perturb manifold
  // weights/edges but keep the node set, so the baseline's captured
  // prolongation maps stay valid — the multilevel path then only
  // re-aggregates edge weights through them (Galerkin) instead of
  // re-matching every level. Keyed by the capture-time fingerprint's node
  // count; exact mode stays on the fresh-matching path for byte-identity
  // with the naive loop.
  if (fast && !hier0_.empty() &&
      report.manifold_x.fingerprint().nodes == hier_key_.nodes)
    so.hierarchy_reuse = &hier0_;
  StabilityResult stab;
  {
    const obs::TraceSpan span("phase.stability", "pipeline");
    stab = stability_scores(report.manifold_x, report.manifold_y, so, &cache_);
    report.timings.stability_seconds = span.seconds();
    report.timings.stability_busy_seconds = span.busy_seconds();
  }
  out.stats.subspace_sweeps = stab.subspace_sweeps;
  report.node_scores = std::move(stab.node_scores);
  report.edge_scores = std::move(stab.edge_scores);
  report.eigenvalues = std::move(stab.eigenvalues);
  report.weighted_subspace = std::move(stab.weighted_subspace);
  report.node_score_mean = mean_node_score(report.node_scores);
}

std::vector<double> SweepEngine::predict_case_a(
    std::span<const std::size_t> pins, double factor) const {
  if (netlist_ == nullptr || model_ == nullptr)
    throw std::logic_error("SweepEngine: predict_case_a needs a netlist");
  const linalg::Matrix fv =
      circuit::perturbed_pin_features(*netlist_, pins, factor);
  return model_->forward_incremental(snap_, fv).prediction;
}

}  // namespace cirstag::core
