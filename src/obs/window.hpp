#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace cirstag::obs {

/// Rolling time-windowed metrics: a ring of fixed-width time slots (default
/// 12 x 10s) so quantiles and rates describe the *recent* window and decay
/// as traffic moves on, instead of accumulating since boot the way the
/// cumulative MetricsRegistry histograms do. A /metrics scrape of a daemon
/// that has been up for a week should answer "what is p99 right now", not
/// "what was p99 averaged over the week".
///
/// Slot semantics: observation at time t lands in slot floor(t / slot_us);
/// a snapshot at time t aggregates the num_slots most recent slots, i.e.
/// indices (current - num_slots, current]. The effective window therefore
/// spans between (num_slots-1) and num_slots slot widths depending on where
/// inside the current slot the snapshot lands — document window_seconds()
/// as the nominal upper bound. Slots whose index falls out of that range
/// are lazily zeroed on the next write or snapshot that observes the clock
/// having moved past them.
///
/// Thread safety: a mutex per instance. Observations happen once per
/// *request* (scheduler completion), never inside compute loops, so a lock
/// here is far from any hot path and keeps the ring arithmetic simple.
///
/// Determinism/testing: every mutating or reading call has an `_at(now_us)`
/// variant taking an explicit timestamp (microseconds on the obs process
/// clock, see clock.hpp); the no-argument forms stamp with process_now_us().
/// Tests drive the `_at` forms with synthetic clocks so decay behaviour is
/// asserted exactly, without sleeping.
///
/// A window's event count and rate are its histogram's: `snapshot().count`
/// and `count / window_seconds()`, so the two can never disagree.

/// Ring geometry of a windowed histogram.
struct WindowConfig {
  double slot_seconds = 10.0;
  std::size_t num_slots = 12;
};

class WindowedHistogram {
 public:
  using Config = WindowConfig;

  /// `bounds` follow MetricsRegistry histogram semantics: strictly
  /// increasing finite upper bounds plus an implicit overflow bucket.
  explicit WindowedHistogram(std::vector<double> bounds, Config config = {});

  void observe(double value);
  void observe_at(double value, double now_us);

  /// Aggregate of the slots inside the window; quantiles via the shared
  /// HistogramSnapshot interpolation.
  [[nodiscard]] MetricsRegistry::HistogramSnapshot snapshot() const;
  [[nodiscard]] MetricsRegistry::HistogramSnapshot snapshot_at(
      double now_us) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] double window_seconds() const;

 private:
  struct Slot {
    std::int64_t index = -1;  ///< absolute slot number; -1 = never used
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  [[nodiscard]] std::int64_t slot_index(double now_us) const;

  std::vector<double> bounds_;
  double slot_us_;
  std::size_t num_slots_;
  mutable std::mutex mutex_;
  mutable std::vector<Slot> slots_;  ///< ring keyed by index % num_slots
};

/// Named registry of windowed metrics, mirroring how MetricsRegistry hands
/// out ids: registration happens once per call site, snapshots walk the
/// whole table for the /metrics and /stats renderers. Lives next to (not
/// inside) MetricsRegistry because windowed state is mutex-per-instance
/// rather than sharded — the write rate is per-request, not per-task.
class WindowedRegistry {
 public:
  /// Process-wide instance used by the serving layer. Leaked like the other
  /// obs globals so late writers stay safe.
  [[nodiscard]] static WindowedRegistry& global();

  /// Register-or-fetch by name; re-registering ignores the new bounds, as
  /// MetricsRegistry does.
  WindowedHistogram& histogram(const std::string& name,
                               std::vector<double> bounds,
                               WindowedHistogram::Config config = {});

  struct HistogramEntry {
    std::string name;
    MetricsRegistry::HistogramSnapshot snap;
    double window_seconds = 0.0;
  };

  [[nodiscard]] std::vector<HistogramEntry> histogram_snapshots() const;

  /// Drop every registered metric (tests; references from histogram() are
  /// invalidated).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> histograms_;
};

}  // namespace cirstag::obs
