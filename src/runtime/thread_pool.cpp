#include "runtime/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cirstag::runtime {

namespace {

thread_local bool t_in_parallel_region = false;

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Pool-wide counters, registered together in this order when the first
/// pool is built, before any worker starts, so every metrics document lists
/// them in the same place whichever lane first claims a task or parks.
/// busy_ns / idle_ns: worker time executing tasks vs. parked waiting for
/// work.
struct PoolCounters {
  obs::Counter runs{"runtime.pool.runs"};
  obs::Counter submitted_tasks{"runtime.pool.submitted_tasks"};
  obs::Counter serial_runs{"runtime.pool.serial_runs"};
  obs::Counter serial_tasks{"runtime.pool.serial_tasks"};
  obs::Counter tasks{"runtime.pool.tasks"};
  obs::Counter busy_ns{"runtime.pool.busy_ns"};
  obs::Counter idle_ns{"runtime.pool.idle_ns"};
};

const PoolCounters& pool_counters() {
  static const PoolCounters c;
  return c;
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("CIRSTAG_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 &&
        v <= static_cast<long>(kMaxThreads))
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool ThreadPool::in_parallel_region() { return t_in_parallel_region; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  (void)pool_counters();
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto idle_start = Clock::now();
    cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
    pool_counters().idle_ns.add(ns_since(idle_start));
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    if (job == nullptr) continue;  // job already finished; stay parked
    ++attached_;
    lock.unlock();
    drain(*job, /*worker=*/true);
    lock.lock();
    if (--attached_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::drain(Job& job, bool worker) {
  // The submitting thread already has job.span innermost; workers adopt it.
  obs::TraceSpan* const outer =
      worker ? obs::TraceSpan::adopt(job.span) : nullptr;
  t_in_parallel_region = true;
  std::uint64_t busy_ns = 0;
  std::size_t executed = 0;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.num_tasks) break;
    if (!job.cancel.load(std::memory_order_relaxed)) {
      const auto t0 = Clock::now();
      try {
        (*job.task)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!job.error) job.error = std::current_exception();
        job.cancel.store(true, std::memory_order_relaxed);
      }
      busy_ns += ns_since(t0);
      ++executed;
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_tasks) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_done_.notify_all();
    }
  }
  t_in_parallel_region = false;
  if (worker) obs::TraceSpan::adopt(outer);
  if (executed > 0) {
    if (job.span != nullptr) job.span->credit(busy_ns, worker);
    pool_counters().tasks.add(executed);
    pool_counters().busy_ns.add(busy_ns);
  }
}

void ThreadPool::run_serial(std::size_t num_tasks,
                            const std::function<void(std::size_t)>& task) {
  // A nested region runs inside an outer task whose time is already
  // credited, so only an outermost region credits the current span.
  if (t_in_parallel_region) {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  struct Credit {  // also on unwind, like a drained job's failed task
    obs::TraceSpan* span;
    Clock::time_point t0;
    ~Credit() {
      t_in_parallel_region = false;
      if (span != nullptr) span->credit(ns_since(t0), /*other_lane=*/false);
    }
  } credit{obs::TraceSpan::current(), Clock::now()};
  t_in_parallel_region = true;
  for (std::size_t i = 0; i < num_tasks; ++i) task(i);
}

void ThreadPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1 || t_in_parallel_region) {
    pool_counters().serial_runs.add();
    pool_counters().serial_tasks.add(num_tasks);
    run_serial(num_tasks, task);
    return;
  }
  pool_counters().runs.add();
  pool_counters().submitted_tasks.add(num_tasks);

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  Job job;
  job.task = &task;
  job.num_tasks = num_tasks;
  job.span = obs::TraceSpan::current();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  cv_work_.notify_all();
  // The calling thread is one of the lanes.
  drain(job, /*worker=*/false);

  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] {
    return job.done.load(std::memory_order_acquire) >= num_tasks &&
           attached_ == 0;
  });
  job_ = nullptr;
  if (job.error) std::rethrow_exception(job.error);
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_threads(std::size_t num_threads) {
  const std::size_t resolved =
      num_threads == 0 ? default_thread_count() : num_threads;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->num_threads() == resolved) return;
  g_pool.reset();  // join old workers before spawning the replacement
  g_pool = std::make_unique<ThreadPool>(resolved);
}

}  // namespace cirstag::runtime
