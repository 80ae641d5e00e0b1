#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace cirstag::obs {

/// Severity of a numerical-health event. `info` events are advisory
/// telemetry (e.g. Ritz residuals of a healthy run); `warning` flags results
/// that are usable but degraded (an unconverged CG solve); `error` flags
/// results that should not be trusted (NaN at a phase boundary, fast-mode
/// drift past its documented bound).
enum class HealthSeverity : int { info = 0, warning = 1, error = 2 };

[[nodiscard]] const char* health_severity_name(HealthSeverity severity);

/// One structured numerical-health observation.
struct HealthEvent {
  std::string kind;    ///< `subsystem.condition`, e.g. "cg.unconverged"
  std::string detail;  ///< human-readable context
  double value = 0.0;      ///< observed quantity (residual, drift, count, …)
  double threshold = 0.0;  ///< bound it was judged against (0 = none)
  HealthSeverity severity = HealthSeverity::info;
  std::uint64_t index = 0;  ///< monotonic monitor-wide sequence number
};

/// Health events collected over one scope (e.g. one analyze() call), with
/// the count of events the monitor dropped after its buffer filled.
struct HealthReport {
  std::vector<HealthEvent> events;
  std::uint64_t dropped = 0;

  /// True when no warning- or error-level event was recorded.
  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::size_t count(HealthSeverity severity) const;
  /// {"ok": bool, "dropped": N, "events": [{...}, ...]}.
  [[nodiscard]] std::string to_json() const;
};

/// Process-wide collector of numerical-health events.
///
/// The solver stack and the pipeline phase boundaries record events here;
/// CirStag::analyze snapshots the monitor around each run and attaches the
/// delta to the report (CirStagReport::health), and the CLI embeds the whole
/// run's report into --metrics-json. Recording only ever reads scalars the
/// instrumented code already produced — like the metrics registry, the
/// monitor can never perturb the computation it watches.
///
/// The event buffer is bounded (kMaxEvents); once full, further events are
/// counted in dropped() instead of stored, so a pathological run (thousands
/// of unconverged solves) degrades to a counter rather than unbounded
/// memory.
class HealthMonitor {
 public:
  static constexpr std::size_t kMaxEvents = 4096;

  HealthMonitor() = default;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Process-wide monitor used by the free record_health_event helper.
  /// Never destroyed, for the same reason as MetricsRegistry::global().
  [[nodiscard]] static HealthMonitor& global();

  void record(std::string kind, std::string detail, double value,
              double threshold, HealthSeverity severity);

  /// Sequence number the next event will get — capture before a scope, then
  /// collect_since() to get exactly that scope's events.
  [[nodiscard]] std::uint64_t next_index() const;

  /// All stored events with index >= begin (plus the global drop count).
  [[nodiscard]] HealthReport collect_since(std::uint64_t begin) const;
  [[nodiscard]] HealthReport collect() const { return collect_since(0); }

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Discard all stored events (sequence numbers keep increasing).
  void clear();

 private:
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<HealthEvent> events_;
  std::uint64_t next_index_ = 0;
};

/// Record into HealthMonitor::global().
void record_health_event(std::string kind, std::string detail, double value,
                         double threshold, HealthSeverity severity);

/// NaN/Inf sentinel: scan `values` and record one error-level event naming
/// `where` if any entry is non-finite. Returns true when all finite.
/// Read-only — safe at phase boundaries of bit-identical pipelines.
bool health_check_finite(const char* where, std::span<const double> values);

}  // namespace cirstag::obs
