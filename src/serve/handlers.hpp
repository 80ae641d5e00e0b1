#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <string>

#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"

namespace cirstag::obs {
class RequestContext;
}  // namespace cirstag::obs

namespace cirstag::serve {

/// Longest deadline, in milliseconds, that a request's "deadline_ms" or the
/// daemon's default (`cirstag_cli serve --deadline-ms`) may set: one day.
inline constexpr int kMaxDeadlineMs = 86'400'000;

/// The serving application: resident circuits plus the request scheduler.
/// One Service backs one daemon; bench/tests also drive it in-process
/// (no sockets), which is what makes the scheduler counters deterministic
/// enough to gate in CI.
struct Service {
  explicit Service(Scheduler::Options scheduler_options = {})
      : scheduler(scheduler_options),
        started(std::chrono::steady_clock::now()) {}

  CircuitRegistry registry;
  Scheduler scheduler;
  std::chrono::steady_clock::time_point started;
};

/// Outcome of routing one request: either an immediate response (control
/// plane: health/metrics, routing/parse errors, scheduler rejections) or an
/// admitted job whose future resolves with the response.
struct Dispatch {
  bool immediate = false;
  JobResponse response;             ///< valid when immediate
  std::future<JobResponse> future;  ///< valid when !immediate
  /// The request's trace, always set by dispatch_request: the server reads
  /// id_hex() for the X-Trace-Id response header. Immediate dispatches
  /// arrive already finished and flushed to the access log; scheduled ones
  /// are finished by the scheduler at completion.
  std::shared_ptr<obs::RequestContext> trace;
};

/// Route a parsed request to its endpoint. Data-plane endpoints (load,
/// unload, analyze, sweep, score-region, top-k) go through the scheduler —
/// bounded admission (429), deadlines (504), analyze batching; health and
/// metrics answer inline so observability survives a saturated queue.
[[nodiscard]] Dispatch dispatch_request(Service& service,
                                        const HttpRequest& request);

/// dispatch_request + block for the response (connection-thread form).
[[nodiscard]] JobResponse handle_request(Service& service,
                                         const HttpRequest& request);

}  // namespace cirstag::serve
