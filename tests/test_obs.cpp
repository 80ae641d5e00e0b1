// Observability layer: metrics registry semantics (including writes from
// inside parallel_for bodies), trace span nesting, Trace Event Format
// well-formedness, the JSON writer and checked file writer, and the
// bit-identity guarantee that instrumentation never perturbs pipeline
// output.

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cirstag.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"

namespace {

using namespace cirstag;

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(ObsMetrics, CounterAggregatesAcrossHandlesAndNames) {
  obs::MetricsRegistry reg;
  const obs::Counter a(reg, "test.counter");
  const obs::Counter b(reg, "test.counter");  // same name -> same id
  a.add(5);
  b.add(7);
  a.add();  // default delta 1
  EXPECT_EQ(reg.counter_value("test.counter"), 13u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
}

TEST(ObsMetrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  const obs::Gauge g(reg, "test.gauge");
  g.set(1.5);
  g.set(-42.25);
  EXPECT_EQ(reg.gauge_value("test.gauge"), -42.25);
}

TEST(ObsMetrics, HistogramBucketSemantics) {
  obs::MetricsRegistry reg;
  const obs::Histogram h(reg, "test.hist", {1.0, 3.0, 10.0});
  // bucket i counts bounds[i-1] < v <= bounds[i]; last bucket is overflow.
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(2.0);   // bucket 1
  h.observe(10.0);  // bucket 2
  h.observe(11.0);  // overflow bucket
  const auto snap = reg.histogram_value("test.hist");
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 2.0 + 10.0 + 11.0);
}

TEST(ObsMetrics, CountsFromManyThreadsUnderParallelFor) {
  runtime::set_global_threads(4);
  obs::MetricsRegistry reg;
  const obs::Counter c(reg, "test.parallel");
  const obs::Histogram h(reg, "test.parallel_hist", {100.0, 1000.0});
  constexpr std::size_t kTasks = 10000;
  runtime::parallel_for(0, kTasks, 16, [&](std::size_t i) {
    c.add(1);
    h.observe(static_cast<double>(i));
  });
  EXPECT_EQ(reg.counter_value("test.parallel"), kTasks);
  EXPECT_EQ(reg.histogram_value("test.parallel_hist").count, kTasks);
  runtime::set_global_threads(0);
}

TEST(ObsMetrics, ResetZeroesEverything) {
  obs::MetricsRegistry reg;
  const obs::Counter c(reg, "test.reset");
  const obs::Gauge g(reg, "test.reset_gauge");
  const obs::Histogram h(reg, "test.reset_hist", {1.0});
  c.add(9);
  g.set(3.0);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(reg.counter_value("test.reset"), 0u);
  EXPECT_EQ(reg.gauge_value("test.reset_gauge"), 0.0);
  EXPECT_EQ(reg.histogram_value("test.reset_hist").count, 0u);
}

TEST(ObsMetrics, ToJsonIsWellFormed) {
  obs::MetricsRegistry reg;
  const obs::Counter c(reg, "test.json \"quoted\"\\name");
  const obs::Gauge g(reg, "test.json_gauge");
  const obs::Histogram h(reg, "test.json_hist", {1.0, 2.0});
  c.add(3);
  g.set(0.125);
  h.observe(1.5);
  const std::string json = reg.to_json({});
  EXPECT_NO_THROW((void)serve::parse_json(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer / TraceSpan

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  { const obs::TraceSpan span(tracer, "test.span", "test"); }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTrace, NestedSpansAreRecordedAndOrdered) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    const obs::TraceSpan outer(tracer, "outer", "test");
    { const obs::TraceSpan inner1(tracer, "inner1", "test"); }
    { const obs::TraceSpan inner2(tracer, "inner2", "test"); }
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer starts first; inner1 before inner2.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner1");
  EXPECT_EQ(events[2].name, "inner2");
  // Nesting: both inner spans lie within [outer.ts, outer.ts + outer.dur].
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_GE(events[i].ts_us, events[0].ts_us);
    EXPECT_LE(events[i].ts_us + events[i].dur_us,
              events[0].ts_us + events[0].dur_us);
  }
}

TEST(ObsTrace, SpansFromParallelForWorkers) {
  runtime::set_global_threads(4);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  constexpr std::size_t kTasks = 64;
  runtime::parallel_for(0, kTasks, 1, [&](std::size_t) {
    const obs::TraceSpan span(tracer, "worker.task", "test");
  });
  EXPECT_EQ(tracer.events().size(), kTasks);
  runtime::set_global_threads(0);
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    const obs::TraceSpan a(tracer, "span \"a\"\\", "cat\n");
    const obs::TraceSpan b(tracer, "span.b", "test");
  }
  const std::string json = tracer.to_chrome_json();
  const serve::JsonValue doc = serve::parse_json(json);
  const serve::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr) << json;
  ASSERT_EQ(events->as_array().size(), 2u) << json;
  for (const serve::JsonValue& e : events->as_array())
    EXPECT_EQ(e.string_or("ph", ""), "X") << json;
  // Events survive clear() -> empty but still well-formed.
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_NO_THROW((void)serve::parse_json(tracer.to_chrome_json()));
}

// ---------------------------------------------------------------------------
// JsonWriter / write_text

TEST(ObsJsonWriter, SeparatorsAreFixed) {
  EXPECT_EQ(obs::JsonWriter().begin_object().end_object().take(), "{}");
  EXPECT_EQ(obs::JsonWriter().begin_array().end_array().take(), "[]");
  obs::JsonWriter w;
  w.begin_array().begin_object().end_object().begin_array().end_array();
  for (int i = 0; i < 2; ++i) w.begin_object().field("i", i).end_object();
  EXPECT_EQ(w.end_array().take(), "[{}, [], {\"i\": 0}, {\"i\": 1}]");
  w.begin_object().field("a", 1).key("doc").raw("{\"x\": [1]}");
  EXPECT_EQ(w.field("b", "s").end_object().take(),
            "{\"a\": 1, \"doc\": {\"x\": [1]}, \"b\": \"s\"}");
}

TEST(ObsJsonWriter, ValueKinds) {
  EXPECT_EQ(obs::JsonWriter().begin_array().value(true).value(false)
                .value(INT64_MIN).value(UINT64_MAX).value(std::nan(""))
                .value(-HUGE_VAL).end_array().take(),
            "[true, false, -9223372036854775808, 18446744073709551615, 0, 0]");
  // Doubles round-trip bit-exactly through the production reader.
  const std::vector<double> doubles{-0.0, 5e-324, DBL_MAX};
  const serve::JsonValue parsed =
      serve::parse_json(obs::JsonWriter().value(doubles).take());
  ASSERT_EQ(parsed.as_array().size(), doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    const double back = parsed.as_array()[i].as_number();
    EXPECT_EQ(std::memcmp(&back, &doubles[i], sizeof back), 0) << i;
  }
}

TEST(ObsJsonWriter, EscapedStringsRoundTrip) {
  std::string nasty;
  for (int c = 0; c < 0x20; ++c) nasty += static_cast<char>(c);
  nasty += "\"\\\x7f na\xc3\xafve \xe2\x82\xac";
  const std::string json =
      obs::JsonWriter().begin_object().field(nasty, nasty).end_object().take();
  const serve::JsonValue doc = serve::parse_json(json);
  ASSERT_EQ(doc.members().size(), 1u) << json;
  EXPECT_EQ(doc.members()[0].first, nasty);
  EXPECT_EQ(doc.members()[0].second.as_string(), nasty);
}

TEST(ObsWriteText, FailedWriteReturnsFalse) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(obs::write_text("/dev/full", "x"));
  EXPECT_FALSE(obs::write_text("/nonexistent-dir/out.json", "x"));
}

// ---------------------------------------------------------------------------
// Bit-identity: pipeline output must be byte-identical with observability
// fully on vs. fully off.

core::CirStagReport run_small_pipeline() {
  const std::size_t n = 60;
  graphs::Graph g(n);
  for (graphs::NodeId i = 0; i < n; ++i)
    g.add_edge(i, static_cast<graphs::NodeId>((i + 1) % n));
  linalg::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double theta =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) / n;
    const double r = (i >= 10 && i <= 15) ? 6.0 : 1.0;
    y(i, 0) = r * std::cos(theta);
    y(i, 1) = r * std::sin(theta);
  }
  core::CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  const core::CirStag analyzer(cfg);
  return analyzer.analyze(g, y);
}

TEST(ObsBitIdentity, PipelineScoresIdenticalWithObservabilityOnAndOff) {
  auto& tracer = obs::Tracer::global();

  tracer.set_enabled(true);
  const core::CirStagReport with_obs = run_small_pipeline();
  EXPECT_FALSE(tracer.events().empty());

  tracer.set_enabled(false);
  tracer.clear();
  const core::CirStagReport without_obs = run_small_pipeline();
  EXPECT_TRUE(tracer.events().empty());

  ASSERT_EQ(with_obs.node_scores.size(), without_obs.node_scores.size());
  for (std::size_t i = 0; i < with_obs.node_scores.size(); ++i)
    ASSERT_EQ(with_obs.node_scores[i], without_obs.node_scores[i]) << i;
  ASSERT_EQ(with_obs.edge_scores.size(), without_obs.edge_scores.size());
  for (std::size_t i = 0; i < with_obs.edge_scores.size(); ++i)
    ASSERT_EQ(with_obs.edge_scores[i], without_obs.edge_scores[i]) << i;
  ASSERT_EQ(with_obs.eigenvalues.size(), without_obs.eigenvalues.size());
  for (std::size_t i = 0; i < with_obs.eigenvalues.size(); ++i)
    ASSERT_EQ(with_obs.eigenvalues[i], without_obs.eigenvalues[i]) << i;
}

TEST(ObsGlobal, PipelinePopulatesStandardCounters) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t solves_before =
      reg.counter_value("laplacian_solver.block_solves");
  const std::uint64_t iters_before =
      reg.counter_value("laplacian_solver.iterations");
  (void)run_small_pipeline();
  const std::uint64_t solves_after =
      reg.counter_value("laplacian_solver.block_solves");
  EXPECT_GT(solves_after, solves_before);
  EXPECT_GT(reg.counter_value("laplacian_solver.iterations"), iters_before);
  EXPECT_GE(reg.counter_value("manifold.builds"), 2u);
}

}  // namespace
