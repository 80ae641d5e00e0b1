#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cirstag::obs {
class TraceSpan;
}

namespace cirstag::runtime {

/// Ceiling on any thread count the program is asked for: pool widths from
/// --threads or CIRSTAG_THREADS and serve scheduler workers. A larger value
/// is a typo, not a machine, and would start that many OS threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// Fixed-size thread pool (no work stealing): `num_threads` total execution
/// lanes, of which one is the calling thread — a pool of width 1 spawns no
/// workers and runs everything inline.
///
/// run(n, task) executes task(0..n-1) across the lanes and blocks until all
/// complete. Tasks are claimed from a shared atomic counter, so the
/// *assignment* of tasks to threads is nondeterministic — determinism is the
/// job of the chunked parallel_for/parallel_reduce layer on top, which fixes
/// chunk boundaries and reduction order independent of the pool width.
///
/// The first exception thrown by any task is captured, remaining unclaimed
/// tasks are cancelled, and the exception is rethrown on the calling thread.
///
/// Task time is credited to the submitting thread's innermost open
/// obs::TraceSpan (nothing is credited when none is open): each lane sums
/// its task time and credits it once per job, and workers adopt that span
/// while draining, so spans opened by tasks link under it.
///
/// Nested run() calls issued from inside a task execute serially inline on
/// the claiming thread (no deadlock, no oversubscription). Concurrent run()
/// calls from distinct external threads are serialized.
class ThreadPool {
 public:
  /// `num_threads` = 0 resolves via default_thread_count() (CIRSTAG_THREADS
  /// env var, else hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (spawned workers + the calling thread).
  [[nodiscard]] std::size_t num_threads() const { return workers_.size() + 1; }

  /// Execute task(i) for i in [0, num_tasks); blocks until done.
  void run(std::size_t num_tasks,
           const std::function<void(std::size_t)>& task);

  /// True while the current thread is executing inside a pool task (used to
  /// divert nested parallel regions to the serial inline path).
  [[nodiscard]] static bool in_parallel_region();

 private:
  struct Job {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t num_tasks = 0;
    /// Submitting thread's innermost open span (nullptr when none).
    obs::TraceSpan* span = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancel{false};
    std::exception_ptr error;  // guarded by the pool mutex
  };

  void worker_loop();
  /// `worker` is true on spawned workers, false on the submitting thread.
  void drain(Job& job, bool worker);
  void run_serial(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& task);

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;  // serializes external run() calls
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;          // guarded by mutex_
  std::uint64_t generation_ = 0;  // guarded by mutex_
  std::size_t attached_ = 0;      // workers inside drain(); guarded by mutex_
  bool stop_ = false;             // guarded by mutex_
};

/// Thread count used when a pool is created with num_threads = 0: the
/// CIRSTAG_THREADS environment variable if set to an integer in
/// [1, kMaxThreads], otherwise std::thread::hardware_concurrency()
/// (minimum 1).
[[nodiscard]] std::size_t default_thread_count();

/// The process-wide pool used by the free-function parallel_for overloads.
/// Created lazily on first use.
[[nodiscard]] ThreadPool& global_pool();

/// Replace the global pool with one of `num_threads` lanes (0 = auto).
/// No-op when the pool already has that width. Not safe to call while a
/// parallel region is running on the global pool.
void set_global_threads(std::size_t num_threads);

}  // namespace cirstag::runtime
