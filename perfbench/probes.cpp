// Traced run: per-layer times and counters of one analysis.
//
// The analysis is rebuilt from the pipeline's public phase calls, each
// wrapped in a benchmark span, and its node scores must be byte-equal to
// CirStag::analyze on the same inputs. Graph-, solver- and kernel-layer calls
// that sit inside a phase are then timed standalone on that phase's inputs
// as probe spans. Counters are global obs::MetricsRegistry deltas.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/manifold.hpp"
#include "core/spectral_embedding.hpp"
#include "core/stability.hpp"
#include "gnn/timing_gnn.hpp"
#include "graphs/coarsen.hpp"
#include "graphs/components.hpp"
#include "graphs/effective_resistance.hpp"
#include "graphs/knn.hpp"
#include "graphs/laplacian.hpp"
#include "graphs/sparsify.hpp"
#include "linalg/rng.hpp"

namespace perfbench {

namespace {

/// Last-level cache size in bytes (0 when the system does not say).
std::size_t llc_size_bytes() {
  for (const int level : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(level);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t kib = 0;
  if (in >> kib) return kib * 1024;
  return 0;
}

/// Stream-copy bandwidth (GB/s, read + write bytes). Source plus
/// destination span at least 4x the last-level cache, so the copy streams
/// from memory rather than from cache; the sizes used are written back.
double stream_copy_gbs(std::size_t& bytes_per_array, std::size_t& llc_bytes) {
  llc_bytes = llc_size_bytes();
  const std::size_t floor_bytes = std::size_t{64} << 20;
  bytes_per_array = std::max(floor_bytes, 2 * llc_bytes);
  const std::size_t n = bytes_per_array / sizeof(double);
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 0.0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = rep;  // defeat copy elision
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), n * sizeof(double));
    const double s = seconds_since(t0);
    rates.push_back(2.0 * static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  if (dst[4] != 4.0) return 0.0;
  return median(rates);
}

}  // namespace

void run_traced_analysis(const RunOptions& opts, const WorkloadConfig& cfg,
                         SpanLog& spans, RunResult& result) {
  using namespace cirstag;
  auto& layer = result.per_layer;

  // -- set-up, one span per layer ------------------------------------------
  const CounterDelta train_counters({"gnn.train_epochs"});
  std::unique_ptr<circuit::Netlist> netlist;
  double gen_s = 0.0, sta_s = 0.0, train_s = 0.0;
  {
    ScopedSpan s(spans, "circuit.generate");
    netlist = std::make_unique<circuit::Netlist>(
        circuit::generate_random_logic(cell_library(), design_spec(cfg)));
    s.end();
    gen_s = spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "circuit.sta");
    (void)circuit::run_sta(*netlist);
    s.end();
    sta_s = spans.duration(s.id());
  }
  gnn::TimingGnnOptions gopts;
  gopts.epochs = cfg.epochs;
  gopts.hidden_dim = cfg.hidden;
  std::unique_ptr<gnn::TimingGnn> model;
  {
    ScopedSpan s(spans, "gnn.train");
    model = std::make_unique<gnn::TimingGnn>(*netlist, gopts);
    (void)model->train();
    s.end();
    train_s = spans.duration(s.id());
  }

  // -- the operation untraced, as the timed runs measure it -----------------
  const core::CirStag analyzer{core::CirStagConfig{}};
  const core::CirStagConfig& ccfg = analyzer.config();
  ++result.attempted;
  const auto t_plain = Clock::now();
  const core::CirStagReport report =
      analyzer.analyze(circuit::pin_graph(*netlist), model->base_features(),
                       model->embed(model->base_features()));
  const double untraced_s = seconds_since(t_plain);

  // -- the same operation from its public phase calls ------------------------
  const CounterDelta op({"cg.iterations", "blockcg.column_iterations",
                         "eigen.runs", "eigen.subspace_iterations",
                         "eigen.ritz_refine_sweeps", "sketch.cg_iterations",
                         "solver_cache.hits", "solver_cache.misses",
                         "sparsify.kept_edges", "sparsify.input_edges",
                         "knn.edges", "runtime.pool.busy_ns",
                         "runtime.pool.idle_ns", "runtime.pool.tasks",
                         "arena.bytes_allocated", "arena.bytes_reused",
                         "gnn.dag_pins"});
  ScopedSpan root(spans, "analyze");
  graphs::Graph input_graph;
  linalg::Matrix output, input;
  graphs::Graph mx, my;
  core::StabilityResult stab;
  graphs::LaplacianSolverCache cache;
  double forward_s = 0.0, embedding_s = 0.0, manifold_s = 0.0, stability_s = 0.0;
  {
    const ScopedSpan s(spans, "circuit.pin_graph");
    input_graph = circuit::pin_graph(*netlist);
  }
  {
    ScopedSpan s(spans, "gnn.forward");
    output = model->embed(model->base_features());
    s.end();
    forward_s = spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "core.embedding");
    const linalg::Matrix& features = model->base_features();
    input = core::augment_embedding(
        core::spectral_embedding(input_graph, ccfg.embedding),
        core::apply_feature_stats(
            features, core::fit_feature_stats(features, ccfg.feature_weight)));
    s.end();
    embedding_s = spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "core.manifold_x");
    mx = core::build_manifold(input, ccfg.manifold, &cache);
    s.end();
    manifold_s += spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "core.manifold_y");
    my = core::build_manifold(output, ccfg.manifold, &cache);
    s.end();
    manifold_s += spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "core.stability");
    stab = core::stability_scores(mx, my, ccfg.stability, &cache);
    s.end();
    stability_s = spans.duration(s.id());
  }
  root.end();
  const double traced_s = spans.duration(root.id());
  if (stab.node_scores.size() != report.node_scores.size() ||
      std::memcmp(stab.node_scores.data(), report.node_scores.data(),
                  report.node_scores.size() * sizeof(double)) != 0) {
    ++result.failed;
    result.fail("phase-by-phase scores differ from CirStag::analyze");
  }

  const core::PhaseTimings& pt = report.timings;
  const double cache_hits = op.delta("solver_cache.hits");
  const double cache_lookups = cache_hits + op.delta("solver_cache.misses");
  const double arena_new = op.delta("arena.bytes_allocated");
  const double arena_reused = op.delta("arena.bytes_reused");
  const double coarsen_levels = gauge("coarsen.levels");
  const double coarsest_n = gauge("coarsen.coarsest_n");

  // -- standalone probes on the phases' own inputs ---------------------------
  const int probes = spans.open("probes");
  double knn_s = 0.0, reff_s = 0.0, sparsify_s = 0.0, coarsen_s = 0.0;
  std::size_t knn_edges = 0;
  graphs::Graph knn_y;
  for (const linalg::Matrix* points : {&input, &output}) {
    ScopedSpan s(spans, "graphs.build_knn_graph");
    graphs::Graph g = graphs::build_knn_graph(*points, ccfg.manifold.knn);
    s.end();
    knn_s += spans.duration(s.id());
    knn_edges += g.num_edges();
    knn_y = std::move(g);
  }
  // build_manifold's sparsifier input is the (weight-normalized) kNN graph
  // reconnected into one component; the probes use the raw-weight graph.
  const graphs::Graph support =
      graphs::connect_components(knn_y, ccfg.manifold.bridge_weight);
  {
    ScopedSpan s(spans, "graphs.edge_effective_resistances");
    (void)graphs::edge_effective_resistances(support,
                                             ccfg.manifold.sparsify.resistance);
    s.end();
    reff_s = spans.duration(s.id());
  }
  {
    ScopedSpan s(spans, "graphs.sparsify_pgm");
    (void)graphs::sparsify_pgm(support, ccfg.manifold.sparsify);
    s.end();
    sparsify_s = spans.duration(s.id());
  }
  // Timed on every design, including those below the threshold where the
  // pipeline itself does no coarsening work (coarsen_levels reads 0 there).
  {
    ScopedSpan s(spans, "graphs.coarsen_pair");
    (void)graphs::coarsen_pair(mx, my, ccfg.stability.coarsen);
    s.end();
    coarsen_s = spans.duration(s.id());
  }

  // Hardware anchor: stream copy vs SpMV on the output-manifold Laplacian.
  std::size_t array_bytes = 0, llc_bytes = 0;
  double copy_gbs = 0.0;
  {
    const ScopedSpan s(spans, "kernels.stream_copy");
    copy_gbs = stream_copy_gbs(array_bytes, llc_bytes);
  }
  double spmv_gbs = 0.0;
  {
    const linalg::SparseMatrix lap = graphs::laplacian(my);
    const std::size_t n = lap.rows();
    linalg::Rng rng(opts.seed);
    std::vector<double> x(n), y(n, 0.0);
    for (double& v : x) v = rng.uniform() - 0.5;
    // Compulsory traffic of one y += A x: CSR values + column ids + row
    // pointers, x once, y read and written.
    const double bytes = static_cast<double>(lap.nnz()) * (8.0 + 4.0) +
                         static_cast<double>(n + 1) * 8.0 +
                         static_cast<double>(n) * 24.0;
    const std::size_t reps = std::max<std::size_t>(
        20, static_cast<std::size_t>(2e9 / std::max(bytes, 1.0)));
    ScopedSpan s(spans, "kernels.spmv");
    for (std::size_t r = 0; r < reps; ++r) lap.multiply_add(x, y, 1e-9);
    s.end();
    spmv_gbs = bytes * static_cast<double>(reps) / spans.duration(s.id()) / 1e9;
  }
  spans.close(probes);
  std::printf("hardware anchor: stream copy over 2 arrays of %.0f MiB "
              "(last-level cache %.0f MiB): %.2f GB/s; SpMV %.2f GB/s\n",
              static_cast<double>(array_bytes) / (1 << 20),
              static_cast<double>(llc_bytes) / (1 << 20), copy_gbs, spmv_gbs);

  result.add(layer, "circuit.generate_s", gen_s, "s");
  result.add(layer, "circuit.sta_s", sta_s, "s");
  result.add(layer, "gnn.train_s", train_s, "s");
  result.add(layer, "gnn.train_epochs", train_counters.delta("gnn.train_epochs"),
             "count");
  result.add(layer, "gnn.forward_s", forward_s, "s");
  result.add(layer, "gnn.dag_pins", op.delta("gnn.dag_pins"), "count");
  result.add(layer, "core.embedding_s", embedding_s, "s");
  result.add(layer, "core.manifold_s", manifold_s, "s");
  result.add(layer, "core.stability_s", stability_s, "s");
  result.add(layer, "core.embedding_busy_wall",
             ratio(pt.embedding_busy_seconds, pt.embedding_seconds), "ratio");
  result.add(layer, "core.manifold_busy_wall",
             ratio(pt.manifold_busy_seconds, pt.manifold_seconds), "ratio");
  result.add(layer, "core.stability_busy_wall",
             ratio(pt.stability_busy_seconds, pt.stability_seconds), "ratio");
  result.add(layer, "graphs.knn_s", knn_s, "s");
  result.add(layer, "graphs.knn_edges", static_cast<double>(knn_edges), "count");
  result.add(layer, "graphs.reff_s", reff_s, "s");
  result.add(layer, "graphs.sketch_cg_iters", op.delta("sketch.cg_iterations"),
             "count");
  result.add(layer, "graphs.sparsify_s", sparsify_s, "s");
  result.add(layer, "graphs.sparsify_kept_frac",
             ratio(op.delta("sparsify.kept_edges"),
                   op.delta("sparsify.input_edges")),
             "fraction");
  result.add(layer, "graphs.solver_cache_hit_frac",
             ratio(cache_hits, cache_lookups), "fraction");
  result.add(layer, "graphs.coarsen_s", coarsen_s, "s");
  result.add(layer, "graphs.coarsen_levels", coarsen_levels, "count");
  result.add(layer, "graphs.coarsest_n", coarsest_n, "count");
  result.add(layer, "linalg.cg_iters",
             op.delta("cg.iterations") + op.delta("blockcg.column_iterations"),
             "count");
  result.add(layer, "linalg.eigen_runs", op.delta("eigen.runs"), "count");
  result.add(layer, "linalg.subspace_iters",
             op.delta("eigen.subspace_iterations"), "count");
  result.add(layer, "linalg.ritz_refine_sweeps",
             op.delta("eigen.ritz_refine_sweeps"), "count");
  result.add(layer, "kernels.stream_copy_gbs", copy_gbs, "GB/s");
  result.add(layer, "kernels.spmv_gbs", spmv_gbs, "GB/s");
  result.add(layer, "kernels.spmv_copy_ratio", ratio(spmv_gbs, copy_gbs),
             "ratio");
  result.add(layer, "runtime.busy_s", op.delta("runtime.pool.busy_ns") * 1e-9,
             "s");
  result.add(layer, "runtime.idle_s", op.delta("runtime.pool.idle_ns") * 1e-9,
             "s");
  result.add(layer, "runtime.tasks", op.delta("runtime.pool.tasks"), "count");
  result.add(layer, "util.arena_bytes", arena_new, "bytes");
  result.add(layer, "util.arena_reuse_frac",
             ratio(arena_reused, arena_reused + arena_new), "fraction");
  result.add(layer, "analyze_wall_s", untraced_s, "s");
  result.add(layer, "obs.trace_overhead_frac", traced_s / untraced_s - 1.0,
             "fraction");
  result.add(layer, "obs.unattributed_frac",
             spans.unattributed_fraction(root.id()), "fraction");
}

}  // namespace perfbench
