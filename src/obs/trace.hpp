#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cirstag::obs {

class RequestContext;

/// Sink of closing TraceSpans: a Chrome "Trace Event Format" event list
/// (load the JSON in chrome://tracing or Perfetto) and an exact folded
/// profile of self thread-time per span path. Each sink is armed
/// separately and both are OFF by default; a span checks them when it
/// closes.
///
/// Records go to per-thread buffers (one short uncontended mutex hold per
/// recorded span), so spans opened inside `parallel_for` bodies are safe and
/// cheap.
///
/// Span names follow the same `subsystem.noun` scheme as metrics; the Fig. 5
/// phases are `phase.embedding`, `phase.manifold` and `phase.stability`,
/// with the sub-phases `phase.manifold_x`, `phase.manifold_y`, `phase.dmd`
/// and `phase.scores` (DESIGN.md §8).
class Tracer {
 public:
  struct Event {
    std::string name;
    std::string category;
    double ts_us = 0.0;   ///< start, microseconds since the tracer epoch
    double dur_us = 0.0;  ///< duration in microseconds
    std::uint32_t tid = 0;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide tracer used by the single-argument TraceSpan constructor.
  /// Never destroyed, for the same reason as MetricsRegistry::global().
  [[nodiscard]] static Tracer& global();

  /// Arm the Chrome-trace sink.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Arm the folded-profile sink.
  void set_profiling(bool on) {
    profiling_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool profiling() const {
    return profiling_.load(std::memory_order_relaxed);
  }

  /// Append a completed span (called by ~TraceSpan).
  void record(Event event);
  /// Add `self_us` of thread-time to `path` (called by ~TraceSpan).
  void fold(const std::string& path, double self_us);

  /// All recorded events, merged across threads and sorted by start time.
  [[nodiscard]] std::vector<Event> events() const;
  /// Self thread-time in microseconds per "outer;inner;leaf" path, merged
  /// across threads.
  [[nodiscard]] std::map<std::string, double> folded() const;

  /// Discard all recorded events and the folded profile.
  void clear();

  /// Serialize to Trace Event Format: {"traceEvents": [...]} with
  /// "ph": "X" complete events (ts/dur in microseconds).
  [[nodiscard]] std::string to_chrome_json() const;
  /// Folded-stack text, one "path microseconds" line per path in path
  /// order: the input of flamegraph.pl, inferno and speedscope.
  [[nodiscard]] std::string to_folded() const;

  /// Microseconds since the shared process epoch (obs/clock.hpp) — the same
  /// time base as log "ts" fields and request span trees, so trace events
  /// join against other obs artifacts without skew correction.
  [[nodiscard]] double now_us() const;

  /// Small dense id for the calling thread (stable for the thread's life).
  [[nodiscard]] static std::uint32_t current_tid();

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Event> events;
    std::map<std::string, double> folded;
  };

  [[nodiscard]] Buffer& buffer();
  Buffer& acquire_buffer();

  const std::uint64_t tracer_id_;  ///< process-unique, for the TLS cache
  std::atomic<bool> enabled_{false};
  std::atomic<bool> profiling_{false};

  mutable std::mutex mutex_;  // guards the buffer list
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::thread::id, Buffer*> buffer_by_thread_;
};

/// The one timing record. An RAII scope that reads its start time, links to
/// the calling thread's innermost open span as its parent, and becomes the
/// innermost span itself until it closes. Every span exposes its wall time
/// (`seconds()`) and the busy time of the pool tasks run under it
/// (`busy_seconds()`): ThreadPool hands each job the submitter's innermost
/// span, workers adopt it as their parent while draining, and each lane
/// credits its task time to it. A closing span rolls its busy time up to its
/// parent and feeds whichever sinks are armed — the tracer's Chrome events
/// and folded profile, and the span tree of the RequestContext its chain is
/// rooted in. `name` and `category` must outlive the span (string literals
/// in practice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "cirstag")
      : TraceSpan(Tracer::global(), name, category) {}
  TraceSpan(Tracer& tracer, const char* name, const char* category = "cirstag");
  /// Root the calling thread's span chain in `request`'s tree under node
  /// `node`: every span opened beneath this one, on this thread or on pool
  /// workers running its jobs, lands in that tree. The root itself is
  /// nameless and records nothing. A null `request` keeps the enclosing
  /// chain's request.
  TraceSpan(RequestContext* request, std::uint32_t node);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Wall seconds since the span opened.
  [[nodiscard]] double seconds() const;
  /// Pool-task seconds credited to this span or to its closed descendants,
  /// summed over lanes: busy/wall is the span's effective parallelism.
  [[nodiscard]] double busy_seconds() const;
  /// Wall seconds of this span's closed direct children.
  [[nodiscard]] double child_seconds() const;

  /// Credit `ns` of pool-task time run under this span (ThreadPool only);
  /// `other_lane` marks time run by a worker thread rather than the span's
  /// own thread.
  void credit(std::uint64_t ns, bool other_lane);

  /// The calling thread's innermost open span (nullptr when none).
  [[nodiscard]] static TraceSpan* current();
  /// Make `span` the calling thread's innermost span and return the one it
  /// replaces. ThreadPool workers adopt the submitter's span while draining
  /// its job, so spans opened by tasks link under it.
  static TraceSpan* adopt(TraceSpan* span);

 private:
  [[nodiscard]] std::string path() const;

  Tracer* tracer_;
  const char* name_;  ///< nullptr for a request root
  const char* category_;
  TraceSpan* parent_;
  RequestContext* request_ = nullptr;
  std::uint32_t request_node_ = 0;
  bool owns_request_node_ = false;
  double start_us_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> other_lane_ns_{0};
  std::atomic<std::uint64_t> child_ns_{0};
};

}  // namespace cirstag::obs
