#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cirstag::obs {

/// Process-wide registry of named counters, gauges, and fixed-bucket
/// histograms.
///
/// Design goals, in order:
///   1. Instrumentation must never perturb the instrumented computation —
///      metrics only ever read scalars the code already produced, so scores
///      stay bit-identical whether or not anything reads the registry.
///   2. The write fast path must be safe and cheap from inside `parallel_for`
///      bodies: every thread writes its own shard (single-writer relaxed
///      atomics, no contended cache lines), and shards are summed only when a
///      snapshot is taken. The registry is always on; there is no switch.
///
/// Metric names follow `subsystem.noun[_unit]` (see DESIGN.md §8), e.g.
/// `cg.iterations`, `solver_cache.hits`, `runtime.pool.idle_ns`.
///
/// Registration (`counter_id` etc.) takes a mutex and is expected to happen
/// once per call site (function-local `static Counter c("...")`); the write
/// path is lock-free. Capacity is fixed (see kMax* below) — exceeding it
/// throws std::length_error at registration time, never at write time.
class MetricsRegistry {
 public:
  static constexpr std::size_t kMaxCounters = 192;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 32;
  /// Cells per histogram: up to kHistStride-1 finite upper bounds plus the
  /// overflow bucket.
  static constexpr std::size_t kHistStride = 20;

  /// Opaque per-thread storage block (defined in metrics.cpp; public only so
  /// the thread-local shard cache can name it).
  struct Shard;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the convenience handle constructors.
  /// Never destroyed (leaked on purpose) so instrumented code in static
  /// destructors and detached threads can always write safely.
  [[nodiscard]] static MetricsRegistry& global();

  /// Register (or look up) a metric by name; ids are stable for the life of
  /// the registry. Re-registering a histogram name ignores the new bounds.
  std::size_t counter_id(const std::string& name);
  std::size_t gauge_id(const std::string& name);
  /// `bounds` are strictly increasing finite bucket upper bounds; bucket i
  /// counts observations v with bounds[i-1] < v <= bounds[i], and a final
  /// overflow bucket counts v > bounds.back().
  std::size_t histogram_id(const std::string& name,
                           std::vector<double> bounds);

  // -- write fast path (thread-safe, lock-free) ----------------------------
  void counter_add(std::size_t id, std::uint64_t delta);
  void gauge_set(std::size_t id, double value);
  void histogram_observe(std::size_t id, double value);

  // -- aggregated reads ----------------------------------------------------
  struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 cells
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Estimate the q-quantile (q in [0,1]) by linear interpolation inside
    /// the bucket holding the q·count-th observation. Bucket 0 interpolates
    /// from 0 (all recorded quantities are non-negative: iteration counts,
    /// durations, residuals); the overflow bucket clamps to bounds.back() —
    /// an upper-bound-free bucket has no defensible interior point, so the
    /// estimate saturates rather than invents one. Returns 0 when empty.
    [[nodiscard]] double quantile(double q) const;
  };

  /// One coherent pass over every metric: each value is summed across all
  /// shards inside a single mutex hold, so a scrape taken while traffic is
  /// in flight sees a consistent registration table and torn-free totals.
  /// This is THE read path for live exposition (/metrics, /stats) and for
  /// the exit-time JSON dump alike — there is deliberately no second
  /// aggregation code path to drift from it.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Aggregated value of a counter (0 if never registered).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Last value written to a gauge (0 if never set).
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] HistogramSnapshot histogram_value(
      const std::string& name) const;

  /// Every metric, aggregated across shards, as a JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}, then each
  /// `extra` (name, JSON value) pair as one more top-level member. Histograms
  /// carry interpolated "p50"/"p95"/"p99" estimates alongside bounds and
  /// buckets. The CLI embeds the health report and the profile summary into
  /// its --metrics-json document through `extra`.
  [[nodiscard]] std::string to_json(
      std::span<const std::pair<std::string, std::string>> extra) const;

  /// Zero every counter, gauge, and histogram. Intended for tests and for
  /// the start of a measured region; concurrent writers may land on either
  /// side of the reset.
  void reset();

 private:
  [[nodiscard]] Shard& shard();
  Shard& acquire_shard();

  const std::uint64_t registry_id_;  ///< process-unique, for the TLS cache

  mutable std::mutex mutex_;  // guards names/bounds/shard list, not writes
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::vector<double>> histogram_bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::thread::id, Shard*> shard_by_thread_;

  // Gauges are last-write-wins scalars; no sharding needed.
  std::unique_ptr<std::atomic<double>[]> gauges_;
};

/// Lightweight handle: resolves the name to an id once, then forwards adds.
/// Intended use is a function-local static at the instrumentation site:
///
///   static obs::Counter iters("cg.iterations");
///   iters.add(result.iterations);
class Counter {
 public:
  Counter(MetricsRegistry& reg, const std::string& name)
      : reg_(&reg), id_(reg.counter_id(name)) {}
  explicit Counter(const std::string& name)
      : Counter(MetricsRegistry::global(), name) {}
  void add(std::uint64_t delta = 1) const { reg_->counter_add(id_, delta); }

 private:
  MetricsRegistry* reg_;
  std::size_t id_;
};

class Gauge {
 public:
  Gauge(MetricsRegistry& reg, const std::string& name)
      : reg_(&reg), id_(reg.gauge_id(name)) {}
  explicit Gauge(const std::string& name)
      : Gauge(MetricsRegistry::global(), name) {}
  void set(double value) const { reg_->gauge_set(id_, value); }

 private:
  MetricsRegistry* reg_;
  std::size_t id_;
};

class Histogram {
 public:
  Histogram(MetricsRegistry& reg, const std::string& name,
            std::vector<double> bounds)
      : reg_(&reg), id_(reg.histogram_id(name, std::move(bounds))) {}
  Histogram(const std::string& name, std::vector<double> bounds)
      : Histogram(MetricsRegistry::global(), name, std::move(bounds)) {}
  void observe(double value) const { reg_->histogram_observe(id_, value); }

 private:
  MetricsRegistry* reg_;
  std::size_t id_;
};

}  // namespace cirstag::obs
