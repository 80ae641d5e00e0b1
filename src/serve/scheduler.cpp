#include "serve/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <map>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/json.hpp"

namespace cirstag::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const std::vector<double>& latency_bounds_ms() {
  static const std::vector<double> bounds{1,   2,   5,    10,   20,    50,
                                          100, 200, 500,  1000, 2000,  5000,
                                          15000, 60000};
  return bounds;
}

/// Per-endpoint latency histogram, registered on first use. Endpoint names
/// come from the fixed routing table, so the map stays tiny.
obs::Histogram& latency_histogram(const std::string& endpoint) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<obs::Histogram>> histograms;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = histograms[endpoint];
  if (!slot) {
    slot = std::make_unique<obs::Histogram>("serve.latency_ms." + endpoint,
                                            latency_bounds_ms());
  }
  return *slot;
}

/// Rolling-window twin of the cumulative per-endpoint latency histogram:
/// the /metrics summary quantiles, window request counts and /stats QPS all
/// read it, so they describe the last ~2 minutes rather than the process
/// lifetime.
obs::WindowedHistogram& windowed_latency(const std::string& endpoint) {
  return obs::WindowedRegistry::global().histogram(
      "serve.window.latency_ms." + endpoint, latency_bounds_ms());
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge gauge("serve.scheduler.queue_depth");
  return gauge;
}

}  // namespace

Scheduler::Scheduler(Options options) : options_(options) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.max_batch_size = std::max<std::size_t>(1, options_.max_batch_size);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::complete(Job& job, JobResponse response) {
  static obs::Counter served("serve.requests_served");
  const int status = response.status;
  // All telemetry lands before the promise resolves: a client that has its
  // response (and immediately reads /metrics) must see this job counted.
  served.add();
  const double latency_ms = ms_since(job.enqueued);
  latency_histogram(job.endpoint).observe(latency_ms);
  windowed_latency(job.endpoint).observe(latency_ms);
  if (status == 504) {
    static obs::Counter expired("serve.expired_504");
    expired.add();
  } else if (status >= 500) {
    static obs::Counter failed("serve.failed_5xx");
    failed.add();
  }
  if (job.trace) {
    job.trace->set_deadline_slack_us(
        std::chrono::duration<double, std::micro>(job.deadline - Clock::now())
            .count());
    job.trace->finish(status);
    obs::RequestLog::global().record(*job.trace);
  }
  job.promise.set_value(std::move(response));
}

Scheduler::SubmitResult Scheduler::submit(Job job) {
  SubmitResult result;
  if (job.deadline == Clock::time_point{})
    job.deadline = Clock::now() +
                   std::chrono::milliseconds(options_.default_deadline_ms);
  job.enqueued = Clock::now();
  result.future = job.promise.get_future();

  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_ || stopping_) {
    static obs::Counter rejected("serve.rejected_503");
    rejected.add();
    result.reject_status = 503;
    result.reject_detail = "server is draining";
    return result;
  }
  if (queue_.size() >= options_.queue_capacity) {
    static obs::Counter rejected("serve.rejected_429");
    rejected.add();
    result.reject_status = 429;
    result.reject_detail =
        "admission queue full (" + std::to_string(options_.queue_capacity) +
        " requests queued)";
    return result;
  }
  queue_.push_back(std::move(job));
  queue_depth_gauge().set(static_cast<double>(queue_.size()));
  result.accepted = true;
  lock.unlock();
  cv_work_.notify_one();
  return result;
}

void Scheduler::dispatch(std::unique_lock<std::mutex>& lock) {
  static obs::Counter batches("serve.scheduler.batches_formed");
  static obs::Counter batched_requests("serve.scheduler.batched_requests");
  static obs::Histogram batch_size(
      "serve.scheduler.batch_size",
      std::vector<double>{1, 2, 3, 4, 6, 8, 12, 16, 24, 32});

  std::vector<Job> group;
  group.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const bool batchable =
      !group.front().batch_key.empty() && group.front().run_batch != nullptr;
  if (batchable) {
    // Pull every queued job with the same key (up to the batch cap),
    // preserving the relative order of everything left behind. The key is
    // copied: push_back below reallocates `group`, which would dangle a
    // reference into its front element.
    const std::string key = group.front().batch_key;
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < options_.max_batch_size;) {
      if (it->batch_key == key && it->run_batch != nullptr) {
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  queue_depth_gauge().set(static_cast<double>(queue_.size()));
  ++active_;
  lock.unlock();

  // Expire lapsed deadlines without executing them; survivors execute.
  // Every traced group member — expired or live — gets its queue segment
  // closed here: time from enqueue to the moment a worker picked it up.
  std::vector<Job*> live;
  live.reserve(group.size());
  const auto now = Clock::now();
  const double dispatch_us = obs::to_process_us(now);
  for (Job& job : group) {
    if (job.trace) {
      const double enqueued_us = obs::to_process_us(job.enqueued);
      const std::uint32_t span = job.trace->open_span(
          "queue", enqueued_us, obs::RequestContext::kNoParent);
      job.trace->close_span(span, dispatch_us);
      job.trace->set_queue_us(dispatch_us - enqueued_us);
    }
    if (job.deadline < now) {
      complete(job, {504, error_body("deadline expired before execution")});
    } else {
      live.push_back(&job);
    }
  }

  if (!live.empty()) {
    // Each live member gets a "compute" span covering the (possibly shared)
    // execution. A request root span roots this thread's span chain in the
    // batch leader's context under its compute node, so TraceSpans inside
    // the solver nest under it — including from pool workers, via the Job
    // handoff in runtime/thread_pool. compute_us excludes whatever the
    // executor attributed to rendering (RenderScope per batch member).
    const double exec_start_us = obs::process_now_us();
    std::vector<std::uint32_t> compute_spans(live.size(),
                                             obs::RequestContext::kNoParent);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i]->trace) {
        compute_spans[i] = live[i]->trace->open_span(
            "compute", exec_start_us, obs::RequestContext::kNoParent);
      }
    }
    const auto close_compute = [&](std::size_t i) {
      Job& job = *live[i];
      if (!job.trace) return;
      const double end_us = obs::process_now_us();
      job.trace->close_span(compute_spans[i], end_us);
      job.trace->set_compute_us(end_us - exec_start_us -
                                job.trace->render_us());
    };
    try {
      if (batchable) {
        batches.add();
        batched_requests.add(live.size());
        batch_size.observe(static_cast<double>(live.size()));
        std::vector<JobResponse> responses;
        {
          const obs::TraceSpan root(live.front()->trace.get(),
                                    compute_spans.front());
          responses = live.front()->run_batch(live);
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
          close_compute(i);
          complete(*live[i],
                   i < responses.size()
                       ? std::move(responses[i])
                       : JobResponse{500, error_body("batch executor returned "
                                                     "too few responses")});
        }
      } else {
        JobResponse response;
        {
          const obs::TraceSpan root(live.front()->trace.get(),
                                    compute_spans.front());
          response = live.front()->run();
        }
        close_compute(0);
        complete(*live.front(), std::move(response));
      }
    } catch (const std::exception& e) {
      const std::string body = error_body("internal error", e.what());
      for (std::size_t i = 0; i < live.size(); ++i) {
        // complete() is idempotent-unsafe (promise single-set); jobs the
        // batch path already completed cannot reach here because the
        // exception aborts before any complete() call in run_batch's loop —
        // responses are only assigned after the executor returns.
        close_compute(i);
        complete(*live[i], {500, body});
      }
    }
  }

  lock.lock();
  --active_;
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_work_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (queue_.empty() || paused_) {
      if (stopping_) return;
      continue;
    }
    dispatch(lock);
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  paused_ = false;  // a paused scheduler must still finish queued work
  cv_work_.notify_all();
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void Scheduler::stop() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

std::size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ || stopping_;
}

}  // namespace cirstag::serve
