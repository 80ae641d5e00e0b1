#pragma once

#include <string>

namespace cirstag::serve {

struct Service;

/// Prometheus/OpenMetrics text-format rendering of the live telemetry.
///
/// Mapping from the obs registries to exposition families:
///   - counters  -> `cirstag_<name>_total` (TYPE counter)
///   - gauges    -> `cirstag_<name>` (TYPE gauge)
///   - histograms -> `_bucket{le=...}` cumulative series + `+Inf`, plus
///     `_sum`/`_count` (TYPE histogram)
///   - per-endpoint `serve.latency_ms.<ep>` histograms fold into ONE family
///     `cirstag_serve_latency_ms{endpoint="<ep>"}` — the label carries the
///     endpoint, as a scrape consumer expects
///   - windowed `serve.window.latency_ms.<ep>` render as a summary family
///     `cirstag_serve_window_latency_ms{endpoint,quantile}` (p50/p95/p99
///     over the rolling window) plus `_sum`/`_count`
///   - the same windowed histograms also render as the gauges
///     `cirstag_serve_window_requests{endpoint}` (the summary's `_count`)
///     and `cirstag_serve_window_qps{endpoint}` (that count over the
///     window); gauges, not counters — a rolling-window total can decrease
/// Metric names are sanitized to [a-zA-Z0-9_:]; label values are escaped
/// per the exposition spec (backslash, quote, newline).
[[nodiscard]] std::string render_metrics_exposition(Service& service);

/// Operator-facing JSON snapshot: per-endpoint windowed p50/p95/p99 + QPS,
/// queue depth, batch occupancy, registry residency, arena/cache reuse, and
/// the full counter/gauge tables. This is also the structured counter
/// source bench_serve's socket mode reads (the JSON twin of /metrics).
[[nodiscard]] std::string render_stats_json(Service& service);

/// Escape a label value per the text exposition format: backslash, double
/// quote, and newline get backslash escapes.
[[nodiscard]] std::string prom_escape_label(const std::string& value);

/// Sanitize a metric name: every byte outside [a-zA-Z0-9_:] becomes '_'
/// (so "serve.latency_ms" -> "serve_latency_ms"); a leading digit gets a
/// '_' prefix.
[[nodiscard]] std::string prom_sanitize_name(const std::string& name);

}  // namespace cirstag::serve
