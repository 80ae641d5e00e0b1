#include "serve/exposition.hpp"

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"
#include "serve/handlers.hpp"

namespace cirstag::serve {

namespace {

constexpr std::string_view kLatencyPrefix = "serve.latency_ms.";
constexpr std::string_view kWindowLatencyPrefix = "serve.window.latency_ms.";

bool has_prefix(const std::string& name, std::string_view prefix) {
  return name.size() > prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}

void append_value(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_bound(std::string& out, double v) {
  // Bucket bounds are human-chosen round numbers; %g keeps them readable
  // ("le=\"500\"", not "le=\"500.00000000000000\"").
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  out += buf;
}

std::string endpoint_label(const std::string& endpoint) {
  return "{endpoint=\"" + prom_escape_label(endpoint) + "\"}";
}

/// Requests per second sustained over a window: its count / its span.
double window_qps(const obs::WindowedRegistry::HistogramEntry& entry) {
  return entry.window_seconds > 0.0
             ? static_cast<double>(entry.snap.count) / entry.window_seconds
             : 0.0;
}

/// One histogram family in classic text-exposition shape: cumulative
/// `_bucket` series ending at +Inf, then `_sum` and `_count`. `labels` is
/// either empty or a single rendered `name="value"` pair (no braces).
void append_histogram_samples(std::string& out, const std::string& family,
                              const std::string& labels,
                              const obs::MetricsRegistry::HistogramSnapshot&
                                  snap) {
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    cumulative += snap.buckets[b];
    out += family + "_bucket{";
    if (!labels.empty()) out += labels + ",";
    out += "le=\"";
    if (b < snap.bounds.size()) {
      append_bound(out, snap.bounds[b]);
    } else {
      out += "+Inf";
    }
    out += "\"} " + std::to_string(cumulative) + "\n";
  }
  out += family + "_sum";
  if (!labels.empty()) out += "{" + labels + "}";
  out += " ";
  append_value(out, snap.sum);
  out += "\n";
  out += family + "_count";
  if (!labels.empty()) out += "{" + labels + "}";
  out += " " + std::to_string(snap.count) + "\n";
}

}  // namespace

std::string prom_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9')
    out.insert(out.begin(), '_');
  return out;
}

std::string render_metrics_exposition(Service& service) {
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::global().snapshot();
  std::string out;
  out.reserve(16 * 1024);

  for (const auto& [name, value] : snap.counters) {
    const std::string family = "cirstag_" + prom_sanitize_name(name) +
                               "_total";
    out += "# TYPE " + family + " counter\n";
    out += family + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, value] : snap.gauges) {
    const std::string family = "cirstag_" + prom_sanitize_name(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " ";
    append_value(out, value);
    out += "\n";
  }

  // Per-endpoint latency histograms fold into one labeled family; every
  // other histogram renders under its own sanitized name.
  bool latency_type_emitted = false;
  for (const auto& [name, hist] : snap.histograms) {
    if (has_prefix(name, kLatencyPrefix)) {
      if (!latency_type_emitted) {
        out += "# TYPE cirstag_serve_latency_ms histogram\n";
        latency_type_emitted = true;
      }
      const std::string endpoint = name.substr(kLatencyPrefix.size());
      append_histogram_samples(out, "cirstag_serve_latency_ms",
                               "endpoint=\"" + prom_escape_label(endpoint) +
                                   "\"",
                               hist);
    } else {
      const std::string family = "cirstag_" + prom_sanitize_name(name);
      out += "# TYPE " + family + " histogram\n";
      append_histogram_samples(out, family, "", hist);
    }
  }

  // Rolling-window quantiles as a summary family: the "live p99" a scrape
  // is after, decaying with traffic instead of averaging over the uptime.
  const auto window_hists = obs::WindowedRegistry::global()
                                .histogram_snapshots();
  bool window_type_emitted = false;
  for (const auto& entry : window_hists) {
    if (!has_prefix(entry.name, kWindowLatencyPrefix)) continue;
    if (!window_type_emitted) {
      out += "# TYPE cirstag_serve_window_latency_ms summary\n";
      window_type_emitted = true;
    }
    const std::string endpoint = entry.name.substr(kWindowLatencyPrefix.size());
    const std::string labels =
        "endpoint=\"" + prom_escape_label(endpoint) + "\"";
    for (const double q : {0.5, 0.95, 0.99}) {
      out += "cirstag_serve_window_latency_ms{" + labels + ",quantile=\"";
      append_bound(out, q);
      out += "\"} ";
      append_value(out, entry.snap.quantile(q));
      out += "\n";
    }
    out += "cirstag_serve_window_latency_ms_sum{" + labels + "} ";
    append_value(out, entry.snap.sum);
    out += "\n";
    out += "cirstag_serve_window_latency_ms_count{" + labels + "} " +
           std::to_string(entry.snap.count) + "\n";
  }

  // Windowed request totals and rates, read off the same window snapshots
  // as the summary: gauges, not counters — a rolling total can decrease as
  // slots age out.
  bool requests_type_emitted = false;
  for (const auto& entry : window_hists) {
    if (!has_prefix(entry.name, kWindowLatencyPrefix)) continue;
    if (!requests_type_emitted) {
      out += "# TYPE cirstag_serve_window_requests gauge\n";
      requests_type_emitted = true;
    }
    const std::string endpoint = entry.name.substr(kWindowLatencyPrefix.size());
    out += "cirstag_serve_window_requests" + endpoint_label(endpoint) + " " +
           std::to_string(entry.snap.count) + "\n";
  }
  bool qps_type_emitted = false;
  for (const auto& entry : window_hists) {
    if (!has_prefix(entry.name, kWindowLatencyPrefix)) continue;
    if (!qps_type_emitted) {
      out += "# TYPE cirstag_serve_window_qps gauge\n";
      qps_type_emitted = true;
    }
    const std::string endpoint = entry.name.substr(kWindowLatencyPrefix.size());
    out += "cirstag_serve_window_qps" + endpoint_label(endpoint) + " ";
    append_value(out, window_qps(entry));
    out += "\n";
  }

  out += "# TYPE cirstag_serve_registry_resident_circuits gauge\n";
  out += "cirstag_serve_registry_resident_circuits " +
         std::to_string(service.registry.size()) + "\n";
  out += "# TYPE cirstag_serve_scheduler_queue_depth_live gauge\n";
  out += "cirstag_serve_scheduler_queue_depth_live " +
         std::to_string(service.scheduler.queue_depth()) + "\n";
  return out;
}

std::string render_stats_json(Service& service) {
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::global().snapshot();
  const auto window_hists = obs::WindowedRegistry::global()
                                .histogram_snapshots();

  const auto counter = [&snap](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    return 0;
  };

  obs::JsonWriter w;
  w.begin_object()
      .field("uptime_seconds",
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           service.started)
                 .count())
      .field("queue_depth", service.scheduler.queue_depth())
      .field("draining", service.scheduler.draining());

  // Per-endpoint rolling-window latency + rate, all from one histogram
  // snapshot: count, quantiles and qps = count / window.
  w.key("window").begin_object().key("endpoints").begin_object();
  for (const auto& entry : window_hists) {
    if (!has_prefix(entry.name, kWindowLatencyPrefix)) continue;
    w.key(entry.name.substr(kWindowLatencyPrefix.size()))
        .begin_object()
        .field("count", entry.snap.count)
        .field("p50_ms", entry.snap.quantile(0.50))
        .field("p95_ms", entry.snap.quantile(0.95))
        .field("p99_ms", entry.snap.quantile(0.99))
        .field("qps", window_qps(entry))
        .end_object();
  }
  w.end_object()
      .field("window_seconds",
             window_hists.empty() ? 0.0 : window_hists.front().window_seconds)
      .end_object();

  // Batch occupancy from the cumulative batch-size histogram.
  const std::uint64_t batches = counter("serve.scheduler.batches_formed");
  const std::uint64_t batched = counter("serve.scheduler.batched_requests");
  w.key("batch")
      .begin_object()
      .field("batches_formed", batches)
      .field("batched_requests", batched)
      .field("mean_occupancy",
             batches == 0 ? 0.0
                          : static_cast<double>(batched) /
                                static_cast<double>(batches))
      .end_object();

  w.key("registry")
      .begin_object()
      .field("resident", service.registry.size())
      .field("hits", counter("serve.registry.hits"))
      .field("misses", counter("serve.registry.misses"))
      .key("circuits")
      .begin_array();
  for (const CircuitRegistry::CircuitInfo& info : service.registry.infos())
    w.begin_object()
        .field("name", info.name)
        .field("pins", info.pins)
        .field("gates", info.gates)
        .end_object();
  w.end_array().end_object();

  // Arena / cache / warm-state reuse counters, surfaced as one section so
  // an operator sees the memory+compute reuse story in a glance.
  w.key("reuse").begin_object();
  for (const auto& [name, value] : snap.counters) {
    if (name.find("arena") == std::string::npos &&
        name.find("cache") == std::string::npos &&
        name.find("reuse") == std::string::npos &&
        name.find("warm_start") == std::string::npos)
      continue;
    w.field(name, value);
  }
  w.end_object().key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.field(name, value);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) w.field(name, value);
  return w.end_object().end_object().take();
}

}  // namespace cirstag::serve
