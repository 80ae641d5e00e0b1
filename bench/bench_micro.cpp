// Substrate micro-benchmarks (google-benchmark): throughput of the building
// blocks whose near-linear scaling underpins the Fig. 5 claim — Laplacian
// CG solves, Lanczos spectral embedding, kNN construction, effective-
// resistance sketching, PGM sparsification, golden STA, and GNN forwards.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "core/spectral_embedding.hpp"
#include "graphs/coarsen.hpp"
#include "graphs/components.hpp"
#include "graphs/effective_resistance.hpp"
#include "graphs/knn.hpp"
#include "graphs/laplacian.hpp"
#include "graphs/sparsify.hpp"
#include "graphs/spanning_tree.hpp"
#include "gnn/timing_gnn.hpp"
#include "linalg/cg.hpp"
#include "linalg/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "kernels/kernels.hpp"
#include "linalg/sparse.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "util/arena.hpp"

namespace {

using namespace cirstag;

/// Per-entry wall clock, echoed (never gated) by check_bench_regression.py
/// and collected into the wall-time trajectory artifact: mean milliseconds
/// per benchmark iteration, measured across the whole hot loop.
class WallClock {
 public:
  void finish(benchmark::State& state) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
    const auto iters = static_cast<double>(state.iterations());
    state.counters["wall_ms"] = iters > 0 ? ms / iters : 0.0;
  }

 private:
  std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
};

graphs::Graph random_graph(std::size_t n, std::size_t extra,
                           std::uint64_t seed) {
  linalg::Rng rng(seed);
  graphs::Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    g.add_edge(static_cast<graphs::NodeId>(i),
               static_cast<graphs::NodeId>(i + 1), rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<graphs::NodeId>(rng.index(n));
    const auto v = static_cast<graphs::NodeId>(rng.index(n));
    if (u != v) g.add_edge(u, v, rng.uniform(0.5, 2.0));
  }
  return g;
}

void BM_LaplacianCgSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 3 * n, 1);
  linalg::LaplacianSolver solver(graphs::laplacian(g));
  linalg::Rng rng(2);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal();
  linalg::deflate_constant(b);
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(b));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_LaplacianCgSolve)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SpectralEmbedding(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 2 * n, 3);
  core::SpectralEmbeddingOptions opts;
  opts.dimensions = 12;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::spectral_embedding(g, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_SpectralEmbedding)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_KnnGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(4);
  const auto pts = linalg::Matrix::random_normal(n, 12, rng);
  graphs::KnnGraphOptions opts;
  opts.k = 10;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphs::build_knn_graph(pts, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_KnnGraph)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ResistanceSketch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 4 * n, 5);
  graphs::ResistanceSketchOptions opts;
  opts.num_probes = 16;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphs::edge_effective_resistances(g, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
}
BENCHMARK(BM_ResistanceSketch)->Arg(1000)->Arg(4000);

void BM_SparsifyPgm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 6 * n, 6);
  graphs::SparsifyOptions opts;
  opts.resistance.num_probes = 12;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphs::sparsify_pgm(g, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
}
BENCHMARK(BM_SparsifyPgm)->Arg(1000)->Arg(4000);

const circuit::CellLibrary& bench_lib() {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  return lib;
}

circuit::Netlist bench_netlist(std::size_t gates) {
  circuit::RandomCircuitSpec spec;
  spec.num_gates = gates;
  spec.num_inputs = std::max<std::size_t>(16, gates / 40);
  spec.num_outputs = std::max<std::size_t>(8, gates / 80);
  spec.seed = 7;
  return circuit::generate_random_logic(bench_lib(), spec);
}

void BM_GoldenSta(benchmark::State& state) {
  const auto nl = bench_netlist(static_cast<std::size_t>(state.range(0)));
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::run_sta(nl));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(nl.num_pins()));
}
BENCHMARK(BM_GoldenSta)->Arg(1000)->Arg(8000);

/// Thread counts for the scaling sweeps: 1, 2, 4, and the full machine.
/// Each (size, threads) pair emits its own benchmark row, so BENCH_*.json
/// captures the per-thread-count scaling curve for Fig. 5.
void thread_sweep(benchmark::internal::Benchmark* b) {
  const auto hw = static_cast<long>(runtime::default_thread_count());
  std::vector<long> threads{1, 2, 4};
  if (std::find(threads.begin(), threads.end(), hw) == threads.end())
    threads.push_back(hw);
  for (long n : {4000L, 16000L})
    for (long t : threads) b->Args({n, t});
}

void BM_KnnGraphThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  runtime::set_global_threads(static_cast<std::size_t>(state.range(1)));
  linalg::Rng rng(4);
  const auto pts = linalg::Matrix::random_normal(n, 12, rng);
  graphs::KnnGraphOptions opts;
  opts.k = 10;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphs::build_knn_graph(pts, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
  state.counters["threads"] = static_cast<double>(state.range(1));
  runtime::set_global_threads(0);
}
BENCHMARK(BM_KnnGraphThreads)->Apply(thread_sweep);

void BM_ResistanceSketchThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  runtime::set_global_threads(static_cast<std::size_t>(state.range(1)));
  const auto g = random_graph(n, 4 * n, 5);
  graphs::ResistanceSketchOptions opts;
  opts.num_probes = 16;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graphs::edge_effective_resistances(g, opts));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
  state.counters["threads"] = static_cast<double>(state.range(1));
  runtime::set_global_threads(0);
}
BENCHMARK(BM_ResistanceSketchThreads)->Apply(thread_sweep);

/// Coarsening only engages above CoarsenOptions::auto_threshold, so its
/// thread sweep runs a single large size (well past 100k nodes) instead of
/// the {4000, 16000} pair the other sweeps use. The hierarchy is
/// bit-identical at every thread count (tests/test_coarsen.cpp gates that);
/// this row records the non-gated wall_ms payoff of the parallel
/// propose/resolve matching and chunked Galerkin fill.
void coarsen_thread_sweep(benchmark::internal::Benchmark* b) {
  const auto hw = static_cast<long>(runtime::default_thread_count());
  std::vector<long> threads{1, 2, 4};
  if (std::find(threads.begin(), threads.end(), hw) == threads.end())
    threads.push_back(hw);
  for (long t : threads) b->Args({120000L, t});
}

void BM_CoarsenThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  runtime::set_global_threads(static_cast<std::size_t>(state.range(1)));
  const auto g = random_graph(n, 3 * n, 9);
  graphs::CoarsenOptions opts;
  WallClock wall;
  std::size_t coarsest = 0;
  for (auto _ : state) {
    const auto hier = graphs::coarsen_graph(g, opts);
    coarsest = hier.coarsest_n();
    benchmark::DoNotOptimize(coarsest);
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["coarsest_n"] = static_cast<double>(coarsest);
  runtime::set_global_threads(0);
}
BENCHMARK(BM_CoarsenThreads)->Apply(coarsen_thread_sweep);

/// (size, threads) sweep at 1 thread and the full machine only — the two
/// points the solver-engine acceptance compares.
void solver_sweep(benchmark::internal::Benchmark* b) {
  const auto hw = static_cast<long>(runtime::default_thread_count());
  for (long n : {4000L, 16000L}) {
    b->Args({n, 1});
    if (hw != 1) b->Args({n, hw});
  }
}

/// Manifold-like kNN graph: a noisy 1-D filament winding through 6-D space
/// with sampling density that drifts over ~2 decades. The kNN backbone is a
/// long path whose w = 1/dist² weights span orders of magnitude — the
/// diameter-limited, ill-conditioned regime low-dimensional embeddings put
/// the probe solves in (a uniform random graph is expander-like and
/// flattering to Jacobi, hence unrepresentative).
graphs::Graph manifold_like_graph(std::size_t n, std::uint64_t seed) {
  linalg::Rng rng(seed);
  // Unit-speed curve on three incommensurate circles: revisits of any one
  // circle stay far apart on the others, so kNN never shortcuts the filament.
  constexpr double ka = 1.0 / 40.0, kb = 1.0 / 97.0, kc = 1.0 / 233.0;
  const double amp = 1.0 / std::sqrt(ka * ka + kb * kb + kc * kc);
  linalg::Matrix pts(n, 6);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(n);
    // Arc-length step drifts smoothly through [1e-3, 1e-1].
    const double step = 1e-3 * std::pow(10.0, 1.0 + std::sin(6.0 * u));
    s += step;
    const double noise = 0.05 * step;
    pts(i, 0) = amp * std::cos(ka * s) + noise * rng.normal();
    pts(i, 1) = amp * std::sin(ka * s) + noise * rng.normal();
    pts(i, 2) = amp * std::cos(kb * s) + noise * rng.normal();
    pts(i, 3) = amp * std::sin(kb * s) + noise * rng.normal();
    pts(i, 4) = amp * std::cos(kc * s) + noise * rng.normal();
    pts(i, 5) = amp * std::sin(kc * s) + noise * rng.normal();
  }
  graphs::KnnGraphOptions ko;
  ko.k = 10;
  return graphs::connect_components(graphs::build_knn_graph(pts, ko), 1e-3);
}

/// Shared body of the k=24 probe-sketch solver benches: one full resistance
/// sketch per iteration, reporting wall time plus the summed CG iteration
/// count across probes (the `cg_iters` counter).
void sketch_solver_bench(benchmark::State& state,
                         graphs::SolverPreconditioner precond) {
  const auto n = static_cast<std::size_t>(state.range(0));
  runtime::set_global_threads(static_cast<std::size_t>(state.range(1)));
  const auto g = manifold_like_graph(n, 5);
  graphs::ResistanceSketchOptions opts;
  opts.num_probes = 24;
  opts.preconditioner = precond;
  // Let every configuration run to convergence so the reported iteration
  // counts compare converged solves, not budget caps.
  opts.cg_max_iterations = 20000;
  graphs::ResistanceSketchStats stats;
  std::size_t iters = 0;
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graphs::edge_effective_resistances(g, opts, nullptr, &stats));
    iters = stats.cg_iterations;
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["cg_iters"] = static_cast<double>(iters);
  runtime::set_global_threads(0);
}

/// Blocked multi-RHS CG with the Jacobi preconditioner.
void BM_SketchBlockJacobi(benchmark::State& state) {
  sketch_solver_bench(state, graphs::SolverPreconditioner::jacobi);
}
BENCHMARK(BM_SketchBlockJacobi)->Apply(solver_sweep);

/// Blocked multi-RHS CG with the spanning-tree preconditioner.
void BM_SketchBlockTree(benchmark::State& state) {
  sketch_solver_bench(state, graphs::SolverPreconditioner::spanning_tree);
}
BENCHMARK(BM_SketchBlockTree)->Apply(solver_sweep);

/// Raw CSR SpMV through the kernel layer: y += A x on a Laplacian of a
/// random graph. Reports spmv_rows_per_s, the kernel-level throughput
/// counter the --perf-json artifact carries.
void BM_Spmv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 4 * n, 11);
  const linalg::SparseMatrix a = graphs::laplacian(g);
  linalg::Rng rng(12);
  std::vector<double> x(n), y(n, 0.0);
  for (auto& v : x) v = rng.normal();
  WallClock wall;
  for (auto _ : state) {
    a.multiply_add(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  wall.finish(state);
  const auto rows = static_cast<double>(state.iterations()) *
                    static_cast<double>(n);
  state.counters["spmv_rows_per_s"] =
      benchmark::Counter(rows, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(a.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(4000)->Arg(16000);

/// Register-blocked multi-RHS SpMM (the block-CG operator): Y += A X with
/// k = 24 columns, one CSR traversal amortized across the block.
void BM_SpmmMultiRhs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(n, 4 * n, 11);
  const linalg::SparseMatrix a = graphs::laplacian(g);
  linalg::Rng rng(13);
  const auto x = linalg::Matrix::random_normal(n, 24, rng);
  linalg::Matrix y(n, 24);
  WallClock wall;
  for (auto _ : state) {
    a.multiply_add(x, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  wall.finish(state);
  const auto rows = static_cast<double>(state.iterations()) *
                    static_cast<double>(n);
  state.counters["spmv_rows_per_s"] =
      benchmark::Counter(rows, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(a.nnz() * 24));
}
BENCHMARK(BM_SpmmMultiRhs)->Arg(4000)->Arg(16000);

/// Fused block-CG solve (k = 24 right-hand sides) on the manifold-like
/// graph. cg_iters pins the deterministic iteration count;
/// arena_bytes_reused shows the per-solve temporaries being served from the
/// thread-local arena's retained blocks instead of the heap.
void BM_BlockCgSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = manifold_like_graph(n, 5);
  linalg::LaplacianSolver solver(graphs::laplacian(g));
  linalg::Rng rng(14);
  linalg::Matrix rhs = linalg::Matrix::random_normal(n, 24, rng);
  linalg::BlockSolveStats stats;
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t reused_before = reg.counter_value("arena.bytes_reused");
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_block(rhs, nullptr, &stats));
  }
  wall.finish(state);
  state.counters["cg_iters"] = static_cast<double>(stats.total_iterations);
  state.counters["arena_bytes_reused"] = static_cast<double>(
      reg.counter_value("arena.bytes_reused") - reused_before);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) * 24);
}
BENCHMARK(BM_BlockCgSolve)->Arg(4000);

/// The operator shape of the Phase-3 solve: points drawn at random on a
/// 2-D torus in 4-D, their 10-NN graph cut to its max-weight spanning
/// forest plus one in eight off-tree edges. Laplacian rows hold 2 to 11
/// entries, about 4 on average, in no order, and node ids are unrelated to
/// position, like the sparsified output graph over pin ids.
linalg::SparseMatrix sparsified_manifold_laplacian(std::size_t n) {
  linalg::Rng rng(16);
  linalg::Matrix pts(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = 2.0 * std::numbers::pi * rng.uniform(0.0, 1.0);
    const double v = 2.0 * std::numbers::pi * rng.uniform(0.0, 1.0);
    pts(i, 0) = std::cos(u);
    pts(i, 1) = std::sin(u);
    pts(i, 2) = 0.5 * std::cos(v);
    pts(i, 3) = 0.5 * std::sin(v);
  }
  graphs::KnnGraphOptions ko;
  ko.k = 10;
  const graphs::Graph knn =
      graphs::connect_components(graphs::build_knn_graph(pts, ko), 1e-3);
  std::vector<char> in_tree(knn.num_edges(), 0);
  for (const graphs::EdgeId e : graphs::max_weight_spanning_forest(knn))
    in_tree[e] = 1;
  graphs::Graph g(n);
  for (graphs::EdgeId e = 0; e < knn.num_edges(); ++e) {
    if (!in_tree[e] && rng.index(8) != 0) continue;
    const graphs::Edge& ed = knn.edge(e);
    g.add_edge(ed.u, ed.v, ed.weight);
  }
  return graphs::laplacian(g);
}

/// One row pass of a block-CG iteration over an n×4 block, all columns
/// active (one group): P1 `ap = (A + 10⁻⁴·I)p` and `pᵀap` on
/// sparsified_manifold_laplacian, P2 the Jacobi `x`/`r` updates with `rᵀr`
/// and `rᵀz`, or P3 `p = D⁻¹r + βp`. At n = 256 the dense operands (8 KiB
/// each) sit in L1; at n = 11400, analyze_mid's pin count, they do not.
/// Args: pass (1–3), n.
void BM_BlockCgPass(benchmark::State& state) {
  const auto pass = state.range(0);
  const auto n = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t k = 4;
  linalg::Rng rng(15);
  linalg::Matrix r = linalg::Matrix::random_normal(n, k, rng);
  linalg::Matrix p = linalg::Matrix::random_normal(n, k, rng);
  linalg::Matrix ap = linalg::Matrix::random_normal(n, k, rng);
  linalg::Matrix x(n, k);
  const linalg::SparseMatrix a =
      pass == 1 ? sparsified_manifold_laplacian(n) : linalg::SparseMatrix();
  const std::vector<double> inv_diag(n, 0.5);
  const std::vector<double> coeff(k, 1e-3);
  const std::vector<double> mask(k, kernels::kMaskOn);
  std::vector<double> out1(k), out2(k);
  util::ArenaFrame frame;
  const auto scratch = frame.alloc<double>(kernels::kCgScratchPerCol * k);
  const kernels::KernelTable& kt = kernels::table();
  WallClock wall;
  for (auto _ : state) {
    if (pass == 1) {
      a.multiply_shifted_cols(p, 1e-4, ap, mask, false, out1);
    } else if (pass == 2) {
      // The coefficient is tiny, so x and r stay bounded over iterations.
      kt.cg_step_cols(coeff.data(), p.data().data(), ap.data().data(),
                      x.data().data(), r.data().data(), inv_diag.data(),
                      nullptr, n, k, mask.data(), out1.data(), out2.data(),
                      scratch.data());
    } else {
      kt.xpby_cols(coeff.data(), inv_diag.data(), r.data().data(),
                   p.data().data(), n, k, mask.data());
    }
    benchmark::DoNotOptimize(out1.data());
    benchmark::DoNotOptimize(p.data().data());
    benchmark::ClobberMemory();
  }
  wall.finish(state);
  state.SetLabel(pass == 1 ? "P1 cg_apply_cols"
                           : pass == 2 ? "P2 cg_step_cols" : "P3 xpby_cols");
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockCgPass)->ArgsProduct({{1, 2, 3}, {256, 11400}});

/// Metrics-shard contention: every thread hammers the same counter. The
/// 64-byte shard padding keeps per-thread cache lines private, so ops/s
/// should scale near-linearly from 1 to 4 threads instead of collapsing
/// under false sharing.
void BM_MetricsContention(benchmark::State& state) {
  static const obs::Counter counter("bench.metrics_contention");
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
  state.counters["counter_adds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MetricsContention)->Threads(1)->Threads(4);

void BM_TimingGnnForward(benchmark::State& state) {
  const auto nl = bench_netlist(static_cast<std::size_t>(state.range(0)));
  gnn::TimingGnnOptions opts;
  opts.hidden_dim = 24;
  gnn::TimingGnn model(nl, opts);
  WallClock wall;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.embed(model.base_features()));
  }
  wall.finish(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(nl.num_pins()));
}
BENCHMARK(BM_TimingGnnForward)->Arg(1000)->Arg(4000);

}  // namespace

// Custom main so CI can say `bench_micro --perf-json out.json`: shorthand
// for google-benchmark's --benchmark_out=<path> in JSON format, the schema
// tools/check_bench_regression.py and BENCH_baseline.json consume.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::vector<std::string> rewritten;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::string(args[i]) == "--perf-json") {
      if (i + 1 >= args.size()) {
        cirstag::obs::log_error("bench", "missing path after --perf-json");
        return 2;
      }
      rewritten.push_back("--benchmark_out=" + std::string(args[i + 1]));
      rewritten.push_back("--benchmark_out_format=json");
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      for (std::string& s : rewritten) args.push_back(s.data());
      break;
    }
  }
  int rewritten_argc = static_cast<int>(args.size());
  benchmark::Initialize(&rewritten_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
