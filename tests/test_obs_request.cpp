// Request-scoped tracing + rolling-window telemetry tests (suite prefixes
// "Obs*" — the TSan CI job filters on them): the shared process clock, the
// windowed histogram/counter ring (driven with synthetic `_at` clocks so
// decay is asserted exactly), the RequestContext span tree and the handoff
// of a request-rooted span chain across the ThreadPool, the access-log /
// slow-exemplar sink, and scrape-during-traffic coherence of the sharded
// MetricsRegistry snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"

namespace {

using namespace cirstag;
using obs::RequestContext;

// ===========================================================================
// ObsClock — one steady epoch for every sink
// ===========================================================================

TEST(ObsClock, ProcessClockIsMonotoneAndNonNegative) {
  const double a = obs::process_now_us();
  const double b = obs::process_now_us();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(ObsClock, ToProcessUsAgreesWithProcessNow) {
  const double before = obs::process_now_us();
  const double converted = obs::to_process_us(std::chrono::steady_clock::now());
  const double after = obs::process_now_us();
  EXPECT_GE(converted, before);
  EXPECT_GE(after, converted);
}

TEST(ObsClock, TracerSharesTheProcessEpoch) {
  // A span recorded now must carry a start timestamp on the same epoch as
  // process_now_us — this is what lets access-log lines, Chrome traces, and
  // log "ts" fields join without skew.
  const double before = obs::process_now_us();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  { const obs::TraceSpan span(tracer, "epoch_probe"); }
  tracer.set_enabled(false);
  const double after = obs::process_now_us();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].ts_us, before);
  EXPECT_LE(events[0].ts_us, after);
}

// ===========================================================================
// ObsWindow — rolling slot-ring histograms
// ===========================================================================

constexpr double kSlotUs = 10.0 * 1e6;  // default 10s slots

obs::WindowConfig tiny_window() {
  obs::WindowConfig config;
  config.slot_seconds = 10.0;
  config.num_slots = 4;
  return config;
}

TEST(ObsWindow, ObservationsAggregateInsideTheWindow) {
  obs::WindowedHistogram hist({1.0, 10.0, 100.0}, tiny_window());
  hist.observe_at(0.5, 1.0 * kSlotUs);
  hist.observe_at(5.0, 2.0 * kSlotUs);
  hist.observe_at(50.0, 3.0 * kSlotUs);
  const auto snap = hist.snapshot_at(3.5 * kSlotUs);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 55.5);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 0u);
}

TEST(ObsWindow, OldSlotsDecayOutOfTheSnapshot) {
  obs::WindowedHistogram hist({1.0}, tiny_window());
  hist.observe_at(0.5, 0.0);             // slot 0
  hist.observe_at(0.5, 2.0 * kSlotUs);   // slot 2
  // Window at slot 4 covers slots (0, 4]: slot 0 must be gone, slot 2 kept.
  EXPECT_EQ(hist.snapshot_at(4.0 * kSlotUs).count, 1u);
  // Far future: everything decayed.
  EXPECT_EQ(hist.snapshot_at(100.0 * kSlotUs).count, 0u);
}

TEST(ObsWindow, RingSlotRecyclingZeroesStaleData) {
  obs::WindowedHistogram hist({1.0}, tiny_window());  // 4 slots
  hist.observe_at(0.5, 0.0);  // slot 0
  // Slot 4 reuses ring position 0; the old contents must not leak into it.
  hist.observe_at(0.5, 4.0 * kSlotUs);
  const auto snap = hist.snapshot_at(4.0 * kSlotUs);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5);
}

TEST(ObsWindow, QuantilesDescribeOnlyTheWindow) {
  obs::WindowedHistogram hist({1.0, 10.0, 100.0, 1000.0}, tiny_window());
  // A burst of slow observations long ago...
  for (int i = 0; i < 100; ++i) hist.observe_at(500.0, 0.0);
  // ...then recent fast traffic.
  for (int i = 0; i < 100; ++i) hist.observe_at(0.5, 10.0 * kSlotUs);
  const auto snap = hist.snapshot_at(10.0 * kSlotUs);
  EXPECT_EQ(snap.count, 100u);
  EXPECT_LE(snap.quantile(0.99), 1.0);  // the slow burst decayed away
}

TEST(ObsWindow, RegistryHandsOutStableReferences) {
  auto& registry = obs::WindowedRegistry::global();
  registry.reset();
  obs::WindowedHistogram& a = registry.histogram("test.win.hist", {1.0, 2.0});
  obs::WindowedHistogram& b =
      registry.histogram("test.win.hist", {99.0});  // bounds ignored on refetch
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 2u);
  obs::WindowedHistogram& c = registry.histogram("test.win.other", {1.0});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(&c, &registry.histogram("test.win.other", {1.0}));

  a.observe(1.5);
  for (int i = 0; i < 3; ++i) c.observe(0.5);
  bool saw_hist = false, saw_other = false;
  for (const auto& entry : registry.histogram_snapshots()) {
    if (entry.name == "test.win.hist") {
      saw_hist = true;
      EXPECT_EQ(entry.snap.count, 1u);
      EXPECT_GT(entry.window_seconds, 0.0);
    } else if (entry.name == "test.win.other") {
      saw_other = true;
      EXPECT_EQ(entry.snap.count, 3u);
    }
  }
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_other);
  registry.reset();
  EXPECT_TRUE(registry.histogram_snapshots().empty());
}

// ===========================================================================
// ObsRequest — trace IDs, span trees, folded profiles
// ===========================================================================

TEST(ObsRequest, TraceIdsAreUniqueAndHexRendered) {
  RequestContext a("analyze"), b("analyze");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.id_hex().size(), 16u);
  EXPECT_EQ(a.id_hex().find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_NE(a.id_hex(), b.id_hex());
}

TEST(ObsRequest, ExplicitSpansFormATree) {
  RequestContext ctx("sweep");
  const std::uint32_t queue =
      ctx.open_span("queue", 100.0, RequestContext::kNoParent);
  ctx.close_span(queue, 200.0);
  const std::uint32_t compute =
      ctx.open_span("compute", 200.0, RequestContext::kNoParent);
  const std::uint32_t solve = ctx.open_span("solve", 210.0, compute);
  ctx.close_span(solve, 400.0);
  ctx.close_span(compute, 450.0);
  ctx.finish(200);

  const auto spans = ctx.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[queue].parent, RequestContext::kNoParent);
  EXPECT_EQ(spans[solve].parent, compute);
  EXPECT_EQ(ctx.span_parent(solve), compute);

  const std::string tree = ctx.span_tree_json();
  EXPECT_NE(tree.find("\"queue\""), std::string::npos);
  EXPECT_NE(tree.find("\"solve\""), std::string::npos);

  // Folded self time: compute held 250us total, 190 of which belongs to
  // solve, so compute's own line carries 60.
  const std::string folded = ctx.folded();
  EXPECT_NE(folded.find("queue 100\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("compute 60\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("compute;solve 190\n"), std::string::npos) << folded;
}

TEST(ObsRequest, SpanTreeIsBoundedAtMaxSpans) {
  RequestContext ctx("analyze");
  for (std::size_t i = 0; i < RequestContext::kMaxSpans + 10; ++i) {
    const std::uint32_t span =
        ctx.open_span("s", 1.0, RequestContext::kNoParent);
    if (i < RequestContext::kMaxSpans)
      EXPECT_NE(span, RequestContext::kNoParent);
    else
      EXPECT_EQ(span, RequestContext::kNoParent);
    ctx.close_span(span, 2.0);
  }
  EXPECT_EQ(ctx.spans().size(), RequestContext::kMaxSpans);
  EXPECT_EQ(ctx.spans_dropped(), 10u);
}

TEST(ObsRequest, FinishIsIdempotentOnTheEndTime) {
  RequestContext ctx("top-k");
  ctx.finish(200);
  const double total = ctx.total_us();
  EXPECT_TRUE(ctx.finished());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ctx.finish(500);
  EXPECT_EQ(ctx.total_us(), total);
}

TEST(ObsRequest, AccessLogLineCarriesTheRequestFacts) {
  RequestContext ctx("analyze");
  ctx.set_circuit("cpu_core");
  ctx.set_queue_us(120.0);
  ctx.set_compute_us(3400.0);
  ctx.add_render_us(80.0);
  ctx.set_deadline_slack_us(9000.0);
  ctx.finish(200);
  const std::string line = ctx.access_log_line();
  const serve::JsonValue doc = serve::parse_json(line);
  EXPECT_EQ(doc.string_or("trace_id", ""), ctx.id_hex()) << line;
  EXPECT_EQ(doc.string_or("endpoint", ""), "analyze");
  EXPECT_EQ(doc.string_or("circuit", ""), "cpu_core");
  EXPECT_EQ(doc.number_or("status", 0), 200.0);
  EXPECT_EQ(doc.number_or("queue_us", 0), 120.0);
  EXPECT_EQ(doc.number_or("compute_us", 0), 3400.0);
  EXPECT_EQ(doc.number_or("render_us", 0), 80.0);
  EXPECT_EQ(doc.number_or("deadline_slack_us", 0), 9000.0);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "must be one JSONL line";
}

TEST(ObsRequest, TraceSpansOnABoundThreadJoinTheRequestTree) {
  RequestContext ctx("sweep");
  const std::uint32_t compute =
      ctx.open_span("compute", obs::process_now_us(),
                    RequestContext::kNoParent);
  {
    const obs::TraceSpan root(&ctx, compute);
    obs::Tracer tracer;  // disabled tracer: request attribution is
    {                    // independent of the Chrome-trace sink being armed
      const obs::TraceSpan outer(tracer, "phase.outer");
      const obs::TraceSpan inner(tracer, "phase.inner");
    }
  }
  ctx.close_span(compute, obs::process_now_us());
  const auto spans = ctx.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::uint32_t outer_index = RequestContext::kNoParent;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::string(spans[i].name) == "phase.outer")
      outer_index = static_cast<std::uint32_t>(i);
  ASSERT_NE(outer_index, RequestContext::kNoParent);
  EXPECT_EQ(spans[outer_index].parent, compute);
  for (const auto& span : spans)
    if (std::string(span.name) == "phase.inner")
      EXPECT_EQ(span.parent, outer_index);
}

TEST(ObsRequest, UnboundThreadsRecordNothing) {
  obs::Tracer tracer;
  { const obs::TraceSpan span(tracer, "unattributed"); }
  // No crash, no context to check — the thread must hold no span chain
  // (and so no request) once the span closes.
  EXPECT_EQ(obs::TraceSpan::current(), nullptr);
}

// ===========================================================================
// ObsRequestThreadPool — request-rooted span chains across pooled tasks
// ===========================================================================

TEST(ObsRequestThreadPool, PooledTasksAttributeToTheSubmittersRequest) {
  RequestContext ctx("analyze");
  const std::uint32_t compute =
      ctx.open_span("compute", obs::process_now_us(),
                    RequestContext::kNoParent);
  runtime::ThreadPool pool(4);
  obs::Tracer tracer;
  {
    const obs::TraceSpan root(&ctx, compute);
    pool.run(8, [&](std::size_t) {
      const obs::TraceSpan span(tracer, "task.kernel");
    });
  }
  ctx.close_span(compute, obs::process_now_us());
  // Every task's span landed in the tree, parented under "compute"
  // regardless of which lane (submitter or worker) claimed it.
  std::size_t kernel_spans = 0;
  for (const auto& span : ctx.spans()) {
    if (std::string(span.name) != "task.kernel") continue;
    ++kernel_spans;
    EXPECT_EQ(span.parent, compute);
  }
  EXPECT_EQ(kernel_spans, 8u);
  // The workers' adopted request chain was scoped to the drain: nothing
  // leaks into a later job.
  std::atomic<int> leaked{0};
  pool.run(8, [&](std::size_t) {
    if (obs::TraceSpan::current() != nullptr) leaked.fetch_add(1);
  });
  EXPECT_EQ(leaked.load(), 0);
}

// ===========================================================================
// ObsRequestLog — access log + slow-exemplar sink
// ===========================================================================

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) out.append(chunk, n);
  std::fclose(f);
  return out;
}

struct RequestLogFixture : ::testing::Test {
  void SetUp() override { obs::RequestLog::global().reset_for_tests(); }
  void TearDown() override {
    obs::RequestLog::global().reset_for_tests();
    std::remove(access_path.c_str());
    std::remove(exemplar_path.c_str());
  }
  std::string access_path = "test_obs_request_access.jsonl";
  std::string exemplar_path = "test_obs_request_slow.jsonl";
};

using ObsRequestLog = RequestLogFixture;

TEST_F(ObsRequestLog, AccessLinesAreWrittenPerRequest) {
  auto& log = obs::RequestLog::global();
  ASSERT_TRUE(log.set_access_log_path(access_path));
  RequestContext a("analyze"), b("top-k");
  a.finish(200);
  b.finish(404);
  log.record(a);
  log.record(b);
  EXPECT_EQ(log.access_lines_written(), 2u);
  const std::string contents = read_file(access_path);
  const std::size_t eol = contents.find('\n');
  ASSERT_NE(eol, std::string::npos) << contents;
  const serve::JsonValue first = serve::parse_json(contents.substr(0, eol));
  const serve::JsonValue second = serve::parse_json(contents.substr(eol + 1));
  EXPECT_EQ(first.string_or("trace_id", ""), a.id_hex());
  EXPECT_EQ(second.string_or("trace_id", ""), b.id_hex());
  EXPECT_EQ(second.number_or("status", 0), 404.0);
}

TEST_F(ObsRequestLog, SlowRequestsCaptureExemplarsUnderATokenBudget) {
  auto& log = obs::RequestLog::global();
  ASSERT_TRUE(log.set_exemplar_path(exemplar_path));
  log.set_slow_threshold_us(0.0);  // everything is "slow"
  // Three more than the burst (8 + 3), recorded well inside one refill
  // period (1 / kExemplarRefillPerSecond = 10 s).
  const auto burst =
      static_cast<std::uint64_t>(obs::RequestLog::kExemplarBurst);
  for (std::uint64_t i = 0; i < burst + 3; ++i) {
    RequestContext ctx("sweep");
    const std::uint32_t span =
        ctx.open_span("compute", 1.0, RequestContext::kNoParent);
    ctx.close_span(span, 2.0);
    ctx.finish(200);
    log.record(ctx);
  }
  EXPECT_EQ(log.exemplars_captured(), burst);
  EXPECT_EQ(log.exemplars_dropped(), 3u);
  const std::string contents = read_file(exemplar_path);
  EXPECT_NE(contents.find("\"spans\""), std::string::npos);
  EXPECT_NE(contents.find("\"folded\""), std::string::npos);
  EXPECT_NE(contents.find("compute"), std::string::npos);
}

TEST_F(ObsRequestLog, FastRequestsAreNotExemplars) {
  auto& log = obs::RequestLog::global();
  ASSERT_TRUE(log.set_exemplar_path(exemplar_path));
  log.set_slow_threshold_us(1e12);  // nothing is slow
  RequestContext ctx("analyze");
  ctx.finish(200);
  log.record(ctx);
  EXPECT_EQ(log.exemplars_captured(), 0u);
  EXPECT_EQ(log.exemplars_dropped(), 0u);
}

TEST_F(ObsRequestLog, NegativeThresholdDisablesCapture) {
  auto& log = obs::RequestLog::global();
  ASSERT_TRUE(log.set_exemplar_path(exemplar_path));
  log.set_slow_threshold_us(-1.0);
  RequestContext ctx("analyze");
  ctx.finish(200);
  log.record(ctx);
  EXPECT_EQ(log.exemplars_captured(), 0u);
}

// ===========================================================================
// ObsMetricsScrape — snapshot coherence while writers are live (TSan)
// ===========================================================================

TEST(ObsMetricsScrape, SnapshotIsCoherentDuringConcurrentWrites) {
  static obs::Counter counter("test.scrape.counter");
  static obs::Histogram hist("test.scrape.hist", {1.0, 10.0});
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter_value("test.scrape.counter");

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter.add();
        hist.observe(0.5);
      }
    });
  }

  // Scrape continuously while the writers run: every snapshot must be
  // internally parseable and the counter monotone across snapshots.
  std::uint64_t last = before;
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = obs::MetricsRegistry::global().snapshot();
      for (const auto& [name, value] : snap.counters) {
        if (name != "test.scrape.counter") continue;
        EXPECT_GE(value, last);
        last = value;
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  const auto final_snap = obs::MetricsRegistry::global().snapshot();
  bool found = false;
  for (const auto& [name, value] : final_snap.counters) {
    if (name != "test.scrape.counter") continue;
    found = true;
    EXPECT_EQ(value, before + kWriters * kPerWriter);
  }
  EXPECT_TRUE(found);
}

}  // namespace
