// Shared types of the repo benchmark program (perfbench/README.md).
//
// The program links the library layers and calls only their public APIs. It
// records its own spans around those calls and reads the library's existing
// obs::MetricsRegistry counters as deltas around them; nothing inside src/
// is instrumented for it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/cell_library.hpp"
#include "circuit/generator.hpp"
#include "circuit/netlist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- decisions shared by every workload --------------------------------------

/// Thread-pool width of every run.
inline constexpr std::size_t kThreads = 4;
/// Set-ups per timed run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 7;
/// Gate count of every workload under --tiny (the self-check).
inline constexpr std::size_t kTinyGates = 150;
/// Serve phase: generator connections (also capped at the hardware thread
/// count), scheduler workers, and the largest /analyze batch.
inline constexpr std::size_t kMaxConnections = 4;
inline constexpr std::size_t kServeWorkers = 2;
inline constexpr std::size_t kMaxBatch = 8;
/// Traffic length of the serve phase in an analyze workload's traced run.
inline constexpr double kTracedServeSeconds = 10.0;

/// The decisions that differ between workloads, read from
/// perfbench/workloads.json.
struct WorkloadConfig {
  std::string name;
  std::string kind;  ///< "analyze" or "serve"
  std::size_t gates = 0;
  std::uint64_t design_seed = 0;
  std::size_t epochs = 0;
  std::size_t hidden = 0;
  double min_top1pct_overlap = 0.0;
  double min_spearman = 0.0;
  // serve phase (serve_mix; the analyze workloads' traced runs)
  double rate_rps = 0.0;
  double latency_limit_ms = 0.0;
};

/// Command-line options of one benchmark invocation.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Declares every reported metric's name and unit.
  std::string benchmark_path = "BENCHMARK.json";
  std::string config_path = "perfbench/workloads.json";
  std::string refs_dir = "perfbench/refs";
  std::string out_dir = ".bench_build/perfbench/out";
  /// Self-check: shrink the workload to a smoke size and compute the exact
  /// reference in-process instead of reading the committed one.
  bool tiny = false;
  /// Self-check: reverse the reference ranking so verification must fail.
  bool perturb_reference = false;
  /// Write the reference ranking for the workload's design and exit.
  bool regen_reference = false;
  /// Override the workload's design seed (e.g. its held-out seed).
  std::uint64_t design_seed_override = 0;
  /// serve workloads: measure unloaded latency and capacity instead of the
  /// open-loop mix (how rate_rps and latency_limit_ms were chosen).
  bool calibrate = false;
};

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything one run reports.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::size_t samples = 1) {
    to.push_back({std::move(name), value, std::move(unit), samples});
  }
};

// -- spans -----------------------------------------------------------------

/// One span the benchmark recorded around a call into a library layer.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  ///< since the log was created
  double end_s = 0.0;
  std::uint64_t thread = 0;
};

/// In-memory span store (single recording thread). Disabled logs record
/// nothing, so the timed runs pay no tracing cost.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  int open(const std::string& name);
  void close(int id);
  [[nodiscard]] double duration(int id) const {
    return spans_[static_cast<std::size_t>(id)].end_s -
           spans_[static_cast<std::size_t>(id)].start_s;
  }
  /// Share of span `id` not covered by its direct children.
  [[nodiscard]] double unattributed_fraction(int id) const;
  [[nodiscard]] std::string to_json() const;
  /// Per-name self time (duration minus direct children), largest first.
  [[nodiscard]] std::string self_time_table() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.enabled() ? log.open(name) : -1) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void end() {
    if (id_ >= 0 && !closed_) log_.close(id_);
    closed_ = true;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
  bool closed_ = false;
};

// -- registry deltas --------------------------------------------------------

/// Counter value of the global obs::MetricsRegistry.
[[nodiscard]] double counter(const std::string& name);
[[nodiscard]] double gauge(const std::string& name);

/// Counter deltas across a region: construct before, call delta() after.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names);
  [[nodiscard]] double delta(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> before_;
};

// -- shared helpers ----------------------------------------------------------

[[nodiscard]] const cirstag::circuit::CellLibrary& cell_library();
[[nodiscard]] cirstag::circuit::RandomCircuitSpec design_spec(
    const WorkloadConfig& cfg);

/// Sample quantile by linear interpolation between order statistics (q in
/// [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU time of every thread of this process so far (user + system), s. On a
/// virtual machine the guest kernel does not charge time the host stole from
/// a vCPU, so unlike wall time this does not stretch when other tenants load
/// the host.
[[nodiscard]] double process_cpu_s();

/// Rank agreement of `scores` with a reference ranking (node ids, most
/// unstable first).
struct RankAgreement {
  double top1pct_overlap = 0.0;
  double spearman = 0.0;
};
[[nodiscard]] RankAgreement compare_to_reference(
    const std::vector<double>& scores, const std::vector<std::uint32_t>& ranking);

/// Node ids sorted by descending score, ties toward the smaller id.
[[nodiscard]] std::vector<std::uint32_t> ranking_of(
    const std::vector<double>& scores);

/// Reference file of a workload's design: refs/<workload>.seed<N>.txt.
[[nodiscard]] std::string reference_path(const RunOptions& opts,
                                         const WorkloadConfig& cfg);
[[nodiscard]] std::vector<std::uint32_t> read_reference(const std::string& path);
void write_reference(const std::string& path, const WorkloadConfig& cfg,
                     const std::vector<std::uint32_t>& ranking);

/// Exact-path (coarsening off) node scores of the workload's design, with
/// the workload's GNN settings: what the committed references hold.
[[nodiscard]] std::vector<double> exact_reference_scores(const WorkloadConfig& cfg);

/// Check `scores` against the reference and record the end-to-end quality
/// metrics; a ranking below the workload's floors fails verification.
void score_quality(const std::vector<double>& scores,
                   const std::vector<std::uint32_t>& ranking,
                   const WorkloadConfig& cfg, RunResult& result);

// -- workloads ---------------------------------------------------------------

void run_analyze_workload(const RunOptions& opts, const WorkloadConfig& cfg,
                          const std::vector<std::uint32_t>& reference,
                          RunResult& result);
void run_serve_workload(const RunOptions& opts, const WorkloadConfig& cfg,
                        const std::vector<std::uint32_t>& reference,
                        RunResult& result);

/// Traced-run layer probes shared by every workload: the analysis rebuilt
/// from its public phase calls (byte-checked against CirStag::analyze),
/// standalone graph/solver/kernel probes, and the hardware anchor.
void run_traced_analysis(const RunOptions& opts, const WorkloadConfig& cfg,
                         SpanLog& spans, RunResult& result);

}  // namespace perfbench
