#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cirstag::obs {

/// Per-request trace: a process-unique trace ID plus a bounded span tree
/// covering the request's life from socket accept to response serialization.
///
/// A RequestContext is created by the serve layer when a request is parsed,
/// travels with the scheduler Job (shared_ptr — the connection thread and
/// the scheduler both outlive-race each other per request), and is finished
/// and flushed to the access log when the response is ready. Spans come from
/// two sources:
///   - explicit segments the scheduler opens/closes around queueing, batch
///     compute, and response rendering (open_span/close_span), and
///   - every TraceSpan whose chain is rooted in this request (the request
///     root TraceSpan(ctx, node) in obs/trace.hpp) — so the solver's
///     internal spans, including those opened by pool workers, nest under
///     the request's "compute" node with zero changes to solver code.
///
/// Thread safety: span allocation is mutex-guarded (span writes happen once
/// per TraceSpan, nowhere near inner loops); each TraceSpan keeps its own
/// node index for its children, so sibling threads attributing into the
/// same context never race on nesting state. The tree is bounded at
/// kMaxSpans — beyond that spans are counted but not stored, so a
/// pathological request cannot grow memory without bound.
///
/// All timestamps are microseconds on the shared process epoch (clock.hpp),
/// so a span tree joins against log lines and Chrome traces without skew.
class RequestContext {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kMaxSpans = 192;

  struct SpanNode {
    const char* name = nullptr;  ///< string literal; outlives the context
    std::uint32_t parent = kNoParent;
    double start_us = 0.0;
    double end_us = 0.0;  ///< 0 while open
  };

  explicit RequestContext(std::string endpoint);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// 16 lowercase hex digits — the wire form (X-Trace-Id, access log).
  [[nodiscard]] std::string id_hex() const;

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  void set_circuit(std::string circuit);
  [[nodiscard]] const std::string& circuit() const { return circuit_; }

  /// Deadline slack (deadline minus completion, micros; negative = missed).
  void set_deadline_slack_us(double v) { deadline_slack_us_ = v; }
  [[nodiscard]] double deadline_slack_us() const { return deadline_slack_us_; }
  [[nodiscard]] bool has_deadline() const { return deadline_slack_us_ != 0.0; }

  // -- coarse request segments (set by the scheduler) ----------------------
  void set_queue_us(double v) { queue_us_ = v; }
  void set_compute_us(double v) { compute_us_ = v; }
  void add_render_us(double v);
  [[nodiscard]] double queue_us() const { return queue_us_; }
  [[nodiscard]] double compute_us() const { return compute_us_; }
  [[nodiscard]] double render_us() const { return render_us_; }

  // -- span tree -----------------------------------------------------------
  /// Allocate a span node explicitly (scheduler segments). Returns the node
  /// index, or kNoParent when the tree is full.
  std::uint32_t open_span(const char* name, double start_us,
                          std::uint32_t parent);
  void close_span(std::uint32_t index, double end_us);
  /// Parent index of span `index` (kNoParent when out of range).
  [[nodiscard]] std::uint32_t span_parent(std::uint32_t index) const;

  [[nodiscard]] std::vector<SpanNode> spans() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;

  /// Stamp completion: HTTP status, end time. Idempotent on the end time
  /// (first call wins) so double-finish in error paths is harmless.
  void finish(int status);
  [[nodiscard]] int status() const { return status_; }
  [[nodiscard]] double start_us() const { return start_us_; }
  [[nodiscard]] double total_us() const;
  [[nodiscard]] bool finished() const { return end_us_ != 0.0; }

  // -- rendering -----------------------------------------------------------
  /// Span tree as a JSON array of {name,parent,start_us,dur_us} nodes,
  /// indices matching the parent references.
  [[nodiscard]] std::string span_tree_json() const;
  /// Folded-stack form ("queue 812\ncompute;cg.solve 14012\n...") — self
  /// time per path, flamegraph-ready. Open spans fold with zero self time.
  [[nodiscard]] std::string folded() const;
  /// One JSONL access-log line (no trailing newline).
  [[nodiscard]] std::string access_log_line() const;

 private:
  const std::uint64_t id_;
  const std::string endpoint_;
  std::string circuit_;
  const double start_us_;
  double end_us_ = 0.0;
  int status_ = 0;
  double queue_us_ = 0.0;
  double compute_us_ = 0.0;
  double render_us_ = 0.0;
  double deadline_slack_us_ = 0.0;

  mutable std::mutex mutex_;  // guards spans_/spans_dropped_/render_us_
  std::vector<SpanNode> spans_;
  std::uint64_t spans_dropped_ = 0;
};

/// RAII: a "render" span on `ctx` (nullptr = inert) covering response
/// serialization; its duration also accumulates into the context's render
/// segment. Used per batch member, so coalesced requests each get their own
/// serialize attribution even though one thread renders all of them.
class RenderScope {
 public:
  explicit RenderScope(RequestContext* ctx);
  ~RenderScope();
  RenderScope(const RenderScope&) = delete;
  RenderScope& operator=(const RenderScope&) = delete;

 private:
  RequestContext* ctx_;
  std::uint32_t span_ = RequestContext::kNoParent;
  double start_us_ = 0.0;
};

/// Access-log + slow-request-exemplar sink.
///
/// The access log is JSONL, one line per completed request (trace ID,
/// endpoint, circuit, segment micros, status, deadline slack). The exemplar
/// sink captures the *full* span tree + folded profile of any request whose
/// total latency exceeds `slow_threshold_us`, rate-limited by a token bucket
/// (burst of kExemplarBurst, refill kExemplarRefillPerSecond) so a latency
/// regression under load yields a handful of representative traces instead
/// of gigabytes.
class RequestLog {
 public:
  /// Exemplar token bucket: at most this many captures in a burst...
  static constexpr double kExemplarBurst = 8.0;
  /// ...refilled at this many tokens per second.
  static constexpr double kExemplarRefillPerSecond = 0.1;

  RequestLog() = default;
  ~RequestLog();
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Process-wide sink, leaked like the other obs globals.
  [[nodiscard]] static RequestLog& global();

  /// Open (truncate) the access log at `path`; empty closes it.
  bool set_access_log_path(const std::string& path);
  /// Open (truncate) the slow-exemplar JSONL file; empty closes it.
  bool set_exemplar_path(const std::string& path);
  /// Requests with total_us >= threshold are exemplar candidates; negative
  /// disables capture (the default).
  void set_slow_threshold_us(double threshold_us);

  /// Flush one finished request to the armed sinks. Safe from any thread.
  void record(const RequestContext& ctx);

  [[nodiscard]] std::uint64_t access_lines_written() const;
  [[nodiscard]] std::uint64_t exemplars_captured() const;
  [[nodiscard]] std::uint64_t exemplars_dropped() const;

  /// Close sinks and zero counters/threshold/bucket (tests).
  void reset_for_tests();

 private:
  mutable std::mutex mutex_;
  std::FILE* access_file_ = nullptr;
  std::FILE* exemplar_file_ = nullptr;
  double slow_threshold_us_ = -1.0;
  double bucket_tokens_ = kExemplarBurst;
  double bucket_last_refill_us_ = 0.0;
  std::uint64_t access_lines_ = 0;
  std::uint64_t exemplars_captured_ = 0;
  std::uint64_t exemplars_dropped_ = 0;
};

}  // namespace cirstag::obs
