// Sweep-engine benchmarks (google-benchmark): wall-clock of a Table-I-style
// capacitance sweep through three harnesses over the same variant list —
//
//   BM_SweepNaive  per-variant full pipeline (copy netlist, full STA, full
//                  GNN forward, CirStag::analyze from scratch),
//   BM_SweepExact  SweepEngine in exact mode (byte-identical reports,
//                  bit-identical reuse only),
//   BM_SweepFast   SweepEngine in fast mode (tree-preconditioned
//                  relaxed-tolerance Phase 3, adaptive Ritz early stop).
//
// Each timed iteration includes the engine's baseline capture, so the
// headline comparison is end-to-end: naive N-variant loop vs engine
// construction + run. The `subspace_sweeps` counter is the summed Phase-3
// sweep count across variants — a pure function of the inputs (deterministic
// at any thread count), which is what BENCH_baseline.json locks into the CI
// regression gate: fast mode's adaptive stop must keep cutting sweeps
// relative to the exact arm's fixed budget.
//
// The acceptance configuration is {1500 gates, 64 variants} (fast ≥ 3x
// naive at equal thread count); CI smoke runs only {300, 6}.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "common.hpp"
#include "obs/log.hpp"
#include "core/cirstag.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "linalg/rng.hpp"

namespace {

using namespace cirstag;

/// One trained benchmark circuit, cached per size: GNN training is identical
/// setup cost for every harness, so it stays outside the timed loops.
struct Fixture {
  circuit::Netlist netlist;
  std::unique_ptr<gnn::TimingGnn> model;
};

Fixture& fixture(std::size_t gates) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[gates];
  if (!slot) {
    circuit::RandomCircuitSpec spec;
    spec.num_gates = gates;
    spec.num_inputs = std::max<std::size_t>(16, gates / 40);
    spec.num_outputs = std::max<std::size_t>(8, gates / 80);
    spec.seed = 7;
    static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
    // The netlist must reach its final (heap) address before the model
    // captures a pointer to it.
    slot = std::make_unique<Fixture>(
        Fixture{circuit::generate_random_logic(lib, spec), nullptr});
    gnn::TimingGnnOptions gopts;
    gopts.epochs = gates >= 1000 ? 120 : 60;  // quality is irrelevant here
    gopts.hidden_dim = 16;
    slot->model = std::make_unique<gnn::TimingGnn>(slot->netlist, gopts);
    (void)slot->model->train();
  }
  return *slot;
}

/// Deterministic Table-I-style variant list: each variant scales the
/// capacitance of a small random pin cohort by 5x.
std::vector<core::SweepVariant> make_variants(const circuit::Netlist& nl,
                                              std::size_t count) {
  constexpr std::size_t kPinsPerVariant = 4;
  constexpr double kFactor = 5.0;
  std::vector<core::SweepVariant> variants(count);
  linalg::Rng rng(1000);
  for (auto& v : variants) {
    for (std::size_t p = 0; p < kPinsPerVariant; ++p)
      v.cap_scalings.push_back(
          {static_cast<circuit::PinId>(rng.index(nl.num_pins())), kFactor});
  }
  return variants;
}

/// The reference harness the engine is measured against: everything from
/// scratch per variant, exactly what a caller without the engine would write.
void BM_SweepNaive(benchmark::State& state) {
  Fixture& f = fixture(static_cast<std::size_t>(state.range(0)));
  const auto variants =
      make_variants(f.netlist, static_cast<std::size_t>(state.range(1)));
  const core::CirStagConfig cfg = bench::default_config();
  const auto pin_graph = circuit::pin_graph(f.netlist);
  double wall_total = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::CirStag analyzer(cfg);
    for (const auto& v : variants) {
      circuit::Netlist nlv = f.netlist;
      for (const auto& cs : v.cap_scalings)
        nlv.scale_pin_capacitance(cs.pin, cs.factor);
      const linalg::Matrix fv = circuit::pin_features(nlv);
      const circuit::TimingReport sta = circuit::run_sta(nlv);
      benchmark::DoNotOptimize(sta.worst_arrival);
      const linalg::Matrix emb = f.model->embed(fv);
      benchmark::DoNotOptimize(analyzer.analyze(pin_graph, fv, emb));
    }
    wall_total = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(variants.size()));
  state.counters["subspace_sweeps"] = static_cast<double>(
      variants.size() * cfg.stability.subspace_iterations);
  // wall_* counters are informational wall-clock (machine-dependent); the
  // regression gate never reads them, check_bench_regression.py only
  // carries them through for side-by-side --perf-json comparisons and the
  // wall-time trajectory artifact (which keys on wall_ms).
  state.counters["wall_total_seconds"] = wall_total;
  state.counters["wall_ms"] = wall_total * 1e3;
}
BENCHMARK(BM_SweepNaive)->Args({300, 6})->Args({1500, 64})
    ->Unit(benchmark::kMillisecond);

void sweep_engine_bench(benchmark::State& state, bool exact) {
  Fixture& f = fixture(static_cast<std::size_t>(state.range(0)));
  const auto variants =
      make_variants(f.netlist, static_cast<std::size_t>(state.range(1)));
  std::size_t sweeps = 0, cache_hits = 0;
  double baseline_seconds = 0.0, sweep_seconds = 0.0;
  for (auto _ : state) {
    core::SweepOptions opts;
    opts.config = bench::default_config();
    opts.exact = exact;
    core::SweepEngine engine(f.netlist, *f.model, opts);
    const auto results = engine.run(variants);
    benchmark::DoNotOptimize(results.data());
    sweeps = 0;
    for (const auto& r : results) sweeps += r.stats.subspace_sweeps;
    cache_hits = engine.stats().solver_cache_hits;
    baseline_seconds = engine.stats().baseline_seconds;
    sweep_seconds = engine.stats().sweep_seconds;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(variants.size()));
  // Deterministic (pure functions of the inputs): the regression gate pins
  // subspace_sweeps, the others are diagnostics.
  state.counters["subspace_sweeps"] = static_cast<double>(sweeps);
  state.counters["solver_cache_hits"] = static_cast<double>(cache_hits);
  // Per-phase wall clock of the last iteration — informational only, never
  // gated (see check_bench_regression.py's wall-time section).
  state.counters["wall_baseline_seconds"] = baseline_seconds;
  state.counters["wall_sweep_seconds"] = sweep_seconds;
  state.counters["wall_total_seconds"] = baseline_seconds + sweep_seconds;
  state.counters["wall_ms"] = (baseline_seconds + sweep_seconds) * 1e3;
}

/// Exact mode: every report byte-identical to the naive loop's.
void BM_SweepExact(benchmark::State& state) {
  sweep_engine_bench(state, /*exact=*/true);
}
BENCHMARK(BM_SweepExact)->Args({300, 6})->Args({1500, 64})
    ->Unit(benchmark::kMillisecond);

/// Fast mode: node scores within kFastScoreDriftTolerance of the naive loop.
void BM_SweepFast(benchmark::State& state) {
  sweep_engine_bench(state, /*exact=*/false);
}
BENCHMARK(BM_SweepFast)->Args({300, 6})->Args({1500, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Same --perf-json shorthand as bench_micro: rewrites to google-benchmark's
// --benchmark_out JSON, the schema tools/check_bench_regression.py consumes.
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
