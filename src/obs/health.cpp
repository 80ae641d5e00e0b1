#include "obs/health.hpp"

#include <cmath>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace cirstag::obs {

const char* health_severity_name(HealthSeverity severity) {
  switch (severity) {
    case HealthSeverity::info: return "info";
    case HealthSeverity::warning: return "warning";
    case HealthSeverity::error: return "error";
  }
  return "unknown";
}

bool HealthReport::ok() const {
  for (const HealthEvent& e : events)
    if (e.severity != HealthSeverity::info) return false;
  return true;
}

std::size_t HealthReport::count(HealthSeverity severity) const {
  std::size_t n = 0;
  for (const HealthEvent& e : events)
    if (e.severity == severity) ++n;
  return n;
}

std::string HealthReport::to_json() const {
  JsonWriter w;
  w.begin_object()
      .field("ok", ok())
      .field("dropped", dropped)
      .key("events")
      .begin_array();
  for (const HealthEvent& e : events)
    w.begin_object()
        .field("kind", e.kind)
        .field("severity", health_severity_name(e.severity))
        .field("value", e.value)
        .field("threshold", e.threshold)
        .field("index", e.index)
        .field("detail", e.detail)
        .end_object();
  return w.end_array().end_object().take();
}

HealthMonitor& HealthMonitor::global() {
  static HealthMonitor* monitor = new HealthMonitor();  // intentionally leaked
  return *monitor;
}

void HealthMonitor::record(std::string kind, std::string detail, double value,
                           double threshold, HealthSeverity severity) {
  static const Counter events_counter("health.events");
  static const Counter warnings_counter("health.warnings");
  static const Counter errors_counter("health.errors");
  events_counter.add();
  if (severity == HealthSeverity::warning) warnings_counter.add();
  if (severity == HealthSeverity::error) errors_counter.add();
  std::lock_guard lock(mutex_);
  const std::uint64_t index = next_index_++;
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back({std::move(kind), std::move(detail), value, threshold,
                     severity, index});
}

std::uint64_t HealthMonitor::next_index() const {
  std::lock_guard lock(mutex_);
  return next_index_;
}

HealthReport HealthMonitor::collect_since(std::uint64_t begin) const {
  HealthReport report;
  report.dropped = dropped_.load(std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  for (const HealthEvent& e : events_)
    if (e.index >= begin) report.events.push_back(e);
  return report;
}

void HealthMonitor::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

void record_health_event(std::string kind, std::string detail, double value,
                         double threshold, HealthSeverity severity) {
  HealthMonitor::global().record(std::move(kind), std::move(detail), value,
                                 threshold, severity);
}

bool health_check_finite(const char* where, std::span<const double> values) {
  std::size_t bad = 0;
  for (const double v : values)
    if (!std::isfinite(v)) ++bad;
  if (bad == 0) return true;
  record_health_event(
      "sentinel.nonfinite",
      std::string(where) + ": " + std::to_string(bad) + " of " +
          std::to_string(values.size()) + " values non-finite",
      static_cast<double>(bad), 0.0, HealthSeverity::error);
  return false;
}

}  // namespace cirstag::obs
