#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace cirstag;

/// An ill-conditioned summand stream: magnitudes spanning ~12 orders, signs
/// alternating, so any change in floating-point association changes the sum.
double wild(std::size_t i) {
  const double mag = std::pow(10.0, static_cast<double>(i % 13) - 6.0);
  return (i % 2 == 0 ? 1.0 : -1.0) * mag * (1.0 + 1e-9 * static_cast<double>(i));
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

double reduce_with_pool(runtime::ThreadPool& pool, std::size_t n,
                        std::size_t grain) {
  return runtime::parallel_reduce<double>(
      pool, 0, n, grain, 0.0,
      [](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += wild(i);
        return s;
      },
      [](double a, double b) { return a + b; });
}

TEST(Runtime, ParallelForMatchesSerialLoop) {
  const std::size_t n = 10'000;
  std::vector<double> serial(n), parallel(n);
  for (std::size_t i = 0; i < n; ++i)
    serial[i] = std::sin(static_cast<double>(i)) * wild(i);

  runtime::ThreadPool pool(4);
  runtime::parallel_for(pool, 0, n, 64, [&](std::size_t i) {
    parallel[i] = std::sin(static_cast<double>(i)) * wild(i);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], parallel[i]);
}

TEST(Runtime, ParallelForChunksCoversRangeExactlyOnce) {
  const std::size_t n = 1237;  // not a multiple of the grain
  std::vector<std::atomic<int>> touched(n);
  runtime::ThreadPool pool(8);
  runtime::parallel_for_chunks(pool, 0, n, 100,
                               [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, n);
    for (std::size_t i = lo; i < hi; ++i)
      touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(Runtime, ReductionBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 50'000;
  const std::size_t grain = 128;
  runtime::ThreadPool pool1(1);
  runtime::ThreadPool pool2(2);
  runtime::ThreadPool pool8(8);
  const double r1 = reduce_with_pool(pool1, n, grain);
  const double r2 = reduce_with_pool(pool2, n, grain);
  const double r8 = reduce_with_pool(pool8, n, grain);
  // Bit-identical, not just approximately equal: the chunk boundaries and
  // the serial fold order are fixed by the grain alone.
  EXPECT_EQ(bits_of(r1), bits_of(r2));
  EXPECT_EQ(bits_of(r1), bits_of(r8));
  // And repeated runs on the same pool are stable too.
  EXPECT_EQ(bits_of(r8), bits_of(reduce_with_pool(pool8, n, grain)));
}

TEST(Runtime, WorkerExceptionPropagatesToCaller) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(
      runtime::parallel_for(pool, 0, 1000, 8,
                            [](std::size_t i) {
                              if (i == 437)
                                throw std::runtime_error("task 437 failed");
                            }),
      std::runtime_error);

  // The error message of the *first* failure is preserved.
  try {
    pool.run(64, [](std::size_t) { throw std::invalid_argument("boom"); });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Runtime, PoolIsReusableAcrossSubmissions) {
  runtime::ThreadPool pool(4);
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t n = 1 + (round * 37) % 500;
    std::atomic<std::size_t> sum{0};
    runtime::parallel_for(pool, 0, n, 7, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
  // ...including immediately after a failed submission.
  EXPECT_THROW(pool.run(10, [](std::size_t) {
    throw std::runtime_error("x");
  }),
               std::runtime_error);
  std::atomic<std::size_t> count{0};
  pool.run(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100u);
}

TEST(Runtime, NestedParallelRegionsRunInlineWithoutDeadlock) {
  runtime::ThreadPool pool(4);
  std::vector<double> out(64 * 64, 0.0);
  runtime::parallel_for(pool, 0, 64, 1, [&](std::size_t i) {
    EXPECT_TRUE(runtime::ThreadPool::in_parallel_region());
    // The nested region must execute serially inline on this lane.
    runtime::parallel_for(pool, 0, 64, 1, [&](std::size_t j) {
      out[i * 64 + j] = wild(i * 64 + j);
    });
  });
  for (std::size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], wild(k));
  EXPECT_FALSE(runtime::ThreadPool::in_parallel_region());
}

/// Busy-waits `us` microseconds of wall time.
void spin_us(double us) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double, std::micro>(us));
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Runtime, SpansCreditPoolBusyTime) {
  runtime::ThreadPool pool(4);

  // A parallel_for under a span credits that span; a closing span rolls its
  // busy time up to its parent.
  {
    const obs::TraceSpan outer("runtime_test.outer", "test");
    double inner_busy = 0.0;
    {
      const obs::TraceSpan inner("runtime_test.inner", "test");
      runtime::parallel_for(pool, 0, 8, 1, [](std::size_t) { spin_us(500); });
      inner_busy = inner.busy_seconds();
      EXPECT_GE(inner_busy, 8 * 500e-6 * 0.99);
      EXPECT_EQ(outer.busy_seconds(), 0.0);
    }
    EXPECT_EQ(outer.busy_seconds(), inner_busy);
  }

  // Nested inline parallel regions add no extra credit: the span's busy
  // time is the outer tasks' time, not that plus the inner regions'.
  {
    std::atomic<std::uint64_t> task_ns{0};
    const obs::TraceSpan span("runtime_test.nested", "test");
    runtime::parallel_for(pool, 0, 8, 1, [&](std::size_t) {
      const auto t0 = std::chrono::steady_clock::now();
      runtime::parallel_for(pool, 0, 4, 1, [](std::size_t) { spin_us(500); });
      task_ns.fetch_add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    });
    const double tasks_s = static_cast<double>(task_ns.load()) * 1e-9;
    EXPECT_GE(span.busy_seconds(), tasks_s);
    EXPECT_LT(span.busy_seconds(), 1.5 * tasks_s);
  }

  // Nothing is credited outside any span: workers hold no span afterwards,
  // and a span opened later starts at zero.
  ASSERT_EQ(obs::TraceSpan::current(), nullptr);
  std::atomic<int> adopted{0};
  runtime::parallel_for(pool, 0, 16, 1, [&](std::size_t) {
    spin_us(100);
    if (obs::TraceSpan::current() != nullptr) adopted.fetch_add(1);
  });
  EXPECT_EQ(adopted.load(), 0);
  {
    const obs::TraceSpan later("runtime_test.later", "test");
    EXPECT_EQ(later.busy_seconds(), 0.0);
  }

  // Two orchestration threads sharing the global pool each credit only their
  // own span: every task sees its submitter's span, and the thread whose
  // tasks are empty is not credited with the other's spinning.
  runtime::set_global_threads(4);
  std::atomic<int> crossed{0};
  double busy_spin = 0.0, busy_empty = 0.0;
  const auto orchestrate = [&](const char* name, double task_us,
                               double& busy) {
    const obs::TraceSpan span(name, "test");
    for (int round = 0; round < 20; ++round)
      runtime::parallel_for(0, 8, 1, [&](std::size_t) {
        if (obs::TraceSpan::current() != &span) crossed.fetch_add(1);
        spin_us(task_us);
      });
    busy = span.busy_seconds();
  };
  std::thread spin(
      [&] { orchestrate("runtime_test.spin", 500.0, busy_spin); });
  std::thread empty(
      [&] { orchestrate("runtime_test.empty", 0.0, busy_empty); });
  spin.join();
  empty.join();
  runtime::set_global_threads(0);
  EXPECT_EQ(crossed.load(), 0);
  EXPECT_GE(busy_spin, 20 * 8 * 500e-6 * 0.99);
  EXPECT_LT(busy_empty, busy_spin / 2);
}

TEST(Runtime, PoolCountersRegisterInFixedOrder) {
  // A pool that runs nothing still registers every runtime.pool.* counter,
  // in one fixed order, so metrics documents of identical runs list them
  // identically.
  runtime::ThreadPool pool(4);
  std::vector<std::string> names;
  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("runtime.pool.", 0) == 0) names.push_back(name);
  const std::vector<std::string> expected = {
      "runtime.pool.runs",         "runtime.pool.submitted_tasks",
      "runtime.pool.serial_runs",  "runtime.pool.serial_tasks",
      "runtime.pool.tasks",        "runtime.pool.busy_ns",
      "runtime.pool.idle_ns"};
  EXPECT_EQ(names, expected);
}

TEST(Runtime, SingleLanePoolAndEmptyRangesWork) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::size_t count = 0;
  runtime::parallel_for(pool, 0, 100, 10,
                        [&](std::size_t) { ++count; });  // inline, no races
  EXPECT_EQ(count, 100u);
  runtime::parallel_for(pool, 5, 5, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(reduce_with_pool(pool, 0, 64), 0.0);
}

TEST(Runtime, GlobalPoolResizes) {
  runtime::set_global_threads(3);
  EXPECT_EQ(runtime::global_pool().num_threads(), 3u);
  runtime::set_global_threads(1);
  EXPECT_EQ(runtime::global_pool().num_threads(), 1u);
  runtime::set_global_threads(0);  // back to the environment default
  EXPECT_EQ(runtime::global_pool().num_threads(),
            runtime::default_thread_count());
}

TEST(Runtime, DefaultThreadCountRejectsEnvAboveCeiling) {
  // default_thread_count() only reads the environment; it starts no thread,
  // so the over-ceiling values are safe to try here.
  const char* saved = std::getenv("CIRSTAG_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("CIRSTAG_THREADS");
  const std::size_t fallback = runtime::default_thread_count();

  const auto with_env = [](const std::string& value) {
    setenv("CIRSTAG_THREADS", value.c_str(), 1);
    return runtime::default_thread_count();
  };
  EXPECT_EQ(with_env("3"), 3u);
  EXPECT_EQ(with_env(std::to_string(runtime::kMaxThreads)),
            runtime::kMaxThreads);
  EXPECT_EQ(with_env(std::to_string(runtime::kMaxThreads + 1)), fallback);
  EXPECT_EQ(with_env("100000"), fallback);
  EXPECT_EQ(with_env("99999999999999999999999"), fallback);  // strtol range
  EXPECT_EQ(with_env("0"), fallback);
  EXPECT_EQ(with_env("-4"), fallback);

  if (saved != nullptr)
    setenv("CIRSTAG_THREADS", restore.c_str(), 1);
  else
    unsetenv("CIRSTAG_THREADS");
}

}  // namespace
