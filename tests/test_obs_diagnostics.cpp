// Second-generation diagnostics layer: histogram quantiles, registry
// saturation behaviour, the structured logger, the numerical-health monitor
// (including forced CG non-convergence surfacing on CirStagReport::health),
// FNV-1a checksums + the run-provenance manifest, the folded profile derived
// from span records (including spans opened in pool tasks), the fast-mode
// drift audit, and the end-to-end guarantee that every sink armed at once
// still leaves pipeline scores byte-identical at any thread count.

#include "obs/clock.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"

namespace {

using namespace cirstag;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(ObsQuantile, InterpolatesWithinBuckets) {
  obs::MetricsRegistry reg;
  const obs::Histogram h(reg, "q.hist", {10.0, 20.0});
  h.observe(5.0);   // bucket 0
  h.observe(15.0);  // bucket 1
  h.observe(15.0);  // bucket 1
  h.observe(25.0);  // overflow
  const auto snap = reg.histogram_value("q.hist");
  // rank(0.25) = 1 -> bucket 0, interpolated from the 0 lower edge.
  EXPECT_DOUBLE_EQ(snap.quantile(0.25), 10.0);
  // rank(0.5) = 2 -> halfway through bucket (10, 20].
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 15.0);
  // rank(1.0) = 4 -> overflow bucket clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 20.0);
}

TEST(ObsQuantile, EmptyHistogramIsZeroAndInputsAreClamped) {
  obs::MetricsRegistry reg;
  const obs::Histogram h(reg, "q.empty", {1.0, 2.0});
  const auto empty = reg.histogram_value("q.empty");
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  h.observe(0.5);
  const auto one = reg.histogram_value("q.empty");
  // q outside [0, 1] clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(one.quantile(-3.0), one.quantile(0.0));
  EXPECT_DOUBLE_EQ(one.quantile(7.0), one.quantile(1.0));
}

TEST(ObsQuantile, JsonCarriesQuantileEstimates) {
  obs::MetricsRegistry reg;
  const obs::Histogram h(reg, "q.json", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(0.5 + 0.03 * i);
  const std::string json = reg.to_json({});
  EXPECT_NO_THROW((void)serve::parse_json(json)) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry saturation: capacity is enforced at registration time with a
// clear exception, never by corrupting the fixed tables.

TEST(ObsSaturation, CounterTableOverflowThrowsAtRegistration) {
  obs::MetricsRegistry reg;
  for (std::size_t i = 0; i < obs::MetricsRegistry::kMaxCounters; ++i)
    (void)obs::Counter(reg, "sat.counter." + std::to_string(i));
  EXPECT_THROW((void)obs::Counter(reg, "sat.counter.overflow"),
               std::length_error);
  // Existing counters keep working after the failed registration.
  const obs::Counter again(reg, "sat.counter.0");
  again.add(3);
  EXPECT_EQ(reg.counter_value("sat.counter.0"), 3u);
}

TEST(ObsSaturation, HistogramTableOverflowThrowsAtRegistration) {
  obs::MetricsRegistry reg;
  for (std::size_t i = 0; i < obs::MetricsRegistry::kMaxHistograms; ++i)
    (void)obs::Histogram(reg, "sat.hist." + std::to_string(i), {1.0});
  EXPECT_THROW((void)obs::Histogram(reg, "sat.hist.overflow", {1.0}),
               std::length_error);
}

// ---------------------------------------------------------------------------
// Structured logger

TEST(ObsLog, ParseLevelAcceptsKnownNamesOnly) {
  EXPECT_EQ(obs::parse_log_level("debug", obs::LogLevel::info),
            obs::LogLevel::debug);
  EXPECT_EQ(obs::parse_log_level("warn", obs::LogLevel::info),
            obs::LogLevel::warn);
  EXPECT_EQ(obs::parse_log_level("off", obs::LogLevel::info),
            obs::LogLevel::off);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::error),
            obs::LogLevel::error);
  EXPECT_EQ(obs::parse_log_level(nullptr, obs::LogLevel::warn),
            obs::LogLevel::warn);
}

TEST(ObsLog, ThresholdFiltersAndJsonMirrorIsWellFormed) {
  obs::Logger logger;
  logger.set_stderr_enabled(false);
  const std::string path = temp_path("obs_log_test.jsonl");
  ASSERT_TRUE(logger.set_json_path(path));

  logger.set_level(obs::LogLevel::warn);
  const auto before = logger.records_emitted();
  logger.log(obs::LogLevel::info, "test", "filtered out");
  EXPECT_EQ(logger.records_emitted(), before);
  logger.log(obs::LogLevel::warn, "test", "kept \"quoted\"\\");
  logger.logf(obs::LogLevel::error, "test", "value %d", 42);
  EXPECT_EQ(logger.records_emitted(), before + 2);
  ASSERT_TRUE(logger.set_json_path(""));  // close + flush the mirror

  std::istringstream lines(slurp(path));
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_NO_THROW((void)serve::parse_json(line)) << line;
    EXPECT_NE(line.find("\"level\""), std::string::npos);
    EXPECT_NE(line.find("\"subsystem\""), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Health monitor

TEST(ObsHealth, RecordCollectSinceAndSeverityCounting) {
  obs::HealthMonitor mon;
  mon.record("a.info", "fine", 1.0, 0.0, obs::HealthSeverity::info);
  const std::uint64_t begin = mon.next_index();
  mon.record("b.warn", "meh", 2.0, 1.0, obs::HealthSeverity::warning);
  mon.record("c.error", "bad", 3.0, 1.0, obs::HealthSeverity::error);

  const obs::HealthReport all = mon.collect();
  EXPECT_EQ(all.events.size(), 3u);
  EXPECT_FALSE(all.ok());

  const obs::HealthReport scoped = mon.collect_since(begin);
  ASSERT_EQ(scoped.events.size(), 2u);
  EXPECT_EQ(scoped.events[0].kind, "b.warn");
  EXPECT_EQ(scoped.count(obs::HealthSeverity::warning), 1u);
  EXPECT_EQ(scoped.count(obs::HealthSeverity::error), 1u);
  EXPECT_NO_THROW((void)serve::parse_json(scoped.to_json()))
      << scoped.to_json();

  mon.clear();
  EXPECT_TRUE(mon.collect().events.empty());
  // Sequence numbers keep increasing across clear().
  mon.record("d.info", "", 0.0, 0.0, obs::HealthSeverity::info);
  EXPECT_GE(mon.collect().events[0].index, begin + 2);
}

TEST(ObsHealth, BufferBoundDegradesToDropCounter) {
  obs::HealthMonitor mon;
  for (std::size_t i = 0; i < obs::HealthMonitor::kMaxEvents + 10; ++i)
    mon.record("flood", "", 0.0, 0.0, obs::HealthSeverity::info);
  const obs::HealthReport r = mon.collect();
  EXPECT_EQ(r.events.size(), obs::HealthMonitor::kMaxEvents);
  EXPECT_EQ(r.dropped, 10u);
}

// ---------------------------------------------------------------------------
// Pipeline fixtures

core::CirStagConfig diag_config() {
  core::CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  return cfg;
}

core::CirStagReport run_diag_pipeline(const core::CirStagConfig& cfg) {
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
  const core::CirStag analyzer(cfg);
  return analyzer.analyze(g, y);
}

TEST(ObsHealth, ForcedNonConvergenceSurfacesOnReport) {
  core::CirStagConfig cfg = diag_config();
  // A 1-iteration CG budget cannot converge the Phase-3 subspace solves;
  // the run must finish (degraded, finite) and say so in its health report.
  cfg.stability.cg_max_iterations = 1;
  const core::CirStagReport report = run_diag_pipeline(cfg);

  bool unconverged_seen = false;
  for (const auto& e : report.health.events)
    if (e.kind.find("unconverged") != std::string::npos) {
      unconverged_seen = true;
      EXPECT_EQ(e.severity, obs::HealthSeverity::warning) << e.kind;
    }
  EXPECT_TRUE(unconverged_seen);
  EXPECT_FALSE(report.health.ok());
  for (double s : report.node_scores) ASSERT_TRUE(std::isfinite(s));
}

TEST(ObsHealth, HealthyRunReportsNoWarningsOrErrors) {
  const core::CirStagReport report = run_diag_pipeline(diag_config());
  EXPECT_TRUE(report.health.ok()) << report.health.to_json();
}

// ---------------------------------------------------------------------------
// FNV-1a checksums + manifest

TEST(ObsManifest, Fnv1aIsDeterministicAndOrderSensitive) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 1.0, 3.0};
  EXPECT_EQ(obs::fnv1a_doubles(a), obs::fnv1a_doubles(a));
  EXPECT_NE(obs::fnv1a_doubles(a), obs::fnv1a_doubles(b));
  EXPECT_NE(obs::fnv1a_doubles(a), obs::kFnv1aOffset);
  // -0.0 and +0.0 compare equal but have different bit patterns — the
  // checksum is over bits, so it distinguishes them.
  const std::vector<double> pz{0.0};
  const std::vector<double> nz{-0.0};
  EXPECT_NE(obs::fnv1a_doubles(pz), obs::fnv1a_doubles(nz));
}

TEST(ObsManifest, HexRenderingIsFixedWidthLowercase) {
  EXPECT_EQ(obs::fnv1a_hex(0), "0000000000000000");
  EXPECT_EQ(obs::fnv1a_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(obs::fnv1a_hex(~0ULL), "ffffffffffffffff");
}

TEST(ObsManifest, BuilderRendersOrderedWellFormedJson) {
  obs::ManifestBuilder mb;
  mb.set("run", "command", "test \"quoted\"");
  mb.set("run", "threads", 4);
  mb.set("run", "flag", true);
  mb.set("config", "factor", 2.5);
  mb.set_raw("config", "list", "[1, 2, 3]");
  obs::PhaseChecksums cs;
  cs.input_graph = 1;
  cs.node_scores = 2;
  mb.set_checksums("checksums", cs);

  const std::string json = mb.to_json();
  const serve::JsonValue doc = serve::parse_json(json);
  // Builder-provided provenance plus the caller's sections.
  ASSERT_NE(doc.find("manifest"), nullptr) << json;
  EXPECT_EQ(doc.find("manifest")->number_or("schema_version", 0), 1.0);
  ASSERT_NE(doc.find("build"), nullptr) << json;
  EXPECT_NE(doc.find("build")->find("git_describe"), nullptr);
  EXPECT_EQ(doc.find("run")->string_or("command", ""), "test \"quoted\"");
  EXPECT_EQ(doc.find("checksums")->string_or("input_graph", ""),
            "0000000000000001");
  // Sections render in insertion order; identical input -> identical bytes.
  EXPECT_LT(json.find("\"run\""), json.find("\"config\""));
  EXPECT_EQ(json, mb.to_json());
  EXPECT_NO_THROW((void)serve::parse_json(cs.to_json())) << cs.to_json();
}

TEST(ObsManifest, PhaseChecksumsAreThreadCountInvariant) {
  const core::CirStagConfig cfg = diag_config();
  runtime::set_global_threads(1);
  const core::CirStagReport serial = run_diag_pipeline(cfg);
  runtime::set_global_threads(4);
  const core::CirStagReport wide = run_diag_pipeline(cfg);
  runtime::set_global_threads(0);

  EXPECT_NE(serial.checksums.input_graph, 0u);
  EXPECT_NE(serial.checksums.node_scores, 0u);
  EXPECT_EQ(serial.checksums.input_graph, wide.checksums.input_graph);
  EXPECT_EQ(serial.checksums.embedding, wide.checksums.embedding);
  EXPECT_EQ(serial.checksums.manifold_x, wide.checksums.manifold_x);
  EXPECT_EQ(serial.checksums.manifold_y, wide.checksums.manifold_y);
  EXPECT_EQ(serial.checksums.eigenvalues, wide.checksums.eigenvalues);
  EXPECT_EQ(serial.checksums.node_scores, wide.checksums.node_scores);
  EXPECT_EQ(serial.checksums.edge_scores, wide.checksums.edge_scores);
}

// ---------------------------------------------------------------------------
// Folded profile: self thread-time per span path, from the span records

TEST(ObsProfiler, NestedSpansFoldToTheirPathAndSumToTheOuterDuration) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_profiling(true);
  {
    const obs::TraceSpan outer(tracer, "obs_diag.outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const obs::TraceSpan inner(tracer, "obs_diag.inner", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::map<std::string, double> folded = tracer.folded();
  ASSERT_EQ(folded.size(), 2u);
  ASSERT_TRUE(folded.count("obs_diag.outer"));
  ASSERT_TRUE(folded.count("obs_diag.outer;obs_diag.inner"));
  EXPECT_GE(folded.at("obs_diag.outer"), 5000.0);
  EXPECT_GE(folded.at("obs_diag.outer;obs_diag.inner"), 20000.0);

  // Folded text: one "path microseconds" line per path, whose counts sum to
  // the outer span's duration to within a microsecond of rounding per line.
  double outer_us = 0.0;
  for (const auto& e : tracer.events())
    if (e.name == "obs_diag.outer") outer_us = e.dur_us;
  std::istringstream text(tracer.to_folded());
  std::string path;
  long long count = 0;
  long long sum = 0;
  std::size_t lines = 0;
  while (text >> path >> count) {
    sum += count;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NEAR(static_cast<double>(sum), outer_us, static_cast<double>(lines));

  // Profiling stopped: spans closed now must not change the profile.
  tracer.set_profiling(false);
  { const obs::TraceSpan late(tracer, "obs_diag.late", "test"); }
  EXPECT_EQ(tracer.folded(), folded);
}

TEST(ObsProfiler, SpansInPoolTasksFoldUnderTheSubmittingSpan) {
  runtime::set_global_threads(4);
  obs::Tracer tracer;
  tracer.set_profiling(true);
  for (int round = 0; round < 4; ++round) {
    const obs::TraceSpan submit(tracer, "obs_diag.submit", "test");
    runtime::parallel_for(0, 256, 1, [&](std::size_t i) {
      const obs::TraceSpan task(tracer, "obs_diag.task", "test");
      const obs::TraceSpan leaf(
          tracer, i % 2 ? "obs_diag.odd" : "obs_diag.even", "test");
      volatile double acc = 0.0;
      for (int k = 0; k < 20000; ++k) acc = acc + std::sqrt(double(k));
    });
  }
  runtime::set_global_threads(0);

  // Whichever lane ran a task, its spans link under the submitting span.
  const std::map<std::string, double> folded = tracer.folded();
  EXPECT_TRUE(folded.count("obs_diag.submit;obs_diag.task;obs_diag.odd"));
  EXPECT_TRUE(folded.count("obs_diag.submit;obs_diag.task;obs_diag.even"));
  for (const auto& [path, us] : folded) {
    EXPECT_EQ(path.rfind("obs_diag.submit", 0), 0u) << path;
    EXPECT_GE(us, 0.0) << path;
  }
}

TEST(ObsProfiler, ProfileAndChromeSinksAreArmedIndependently) {
  obs::Tracer tracer;
  { const obs::TraceSpan span(tracer, "obs_diag.off", "test"); }
  EXPECT_TRUE(tracer.folded().empty());
  EXPECT_TRUE(tracer.events().empty());

  tracer.set_profiling(true);
  { const obs::TraceSpan span(tracer, "obs_diag.profiled", "test"); }
  EXPECT_EQ(tracer.folded().size(), 1u);
  EXPECT_TRUE(tracer.events().empty());

  tracer.clear();
  EXPECT_TRUE(tracer.folded().empty());
  EXPECT_TRUE(tracer.to_folded().empty());
}

// ---------------------------------------------------------------------------
// End-to-end identity: every sink armed at once (folded profile, health
// monitors, tracer, metrics, JSON log mirror, request tracing with the
// access-log and slow-exemplar sinks capturing) must leave scores byte-
// identical to a fully uninstrumented run, at 1 and N threads.

core::CirStagReport run_fully_instrumented(std::size_t threads) {
  const core::CirStagConfig cfg = diag_config();
  runtime::set_global_threads(threads);

  obs::Tracer::global().set_enabled(true);
  const std::string log_path = temp_path("obs_diag_identity.jsonl");
  EXPECT_TRUE(obs::Logger::global().set_json_path(log_path));

  obs::RequestLog& rlog = obs::RequestLog::global();
  rlog.reset_for_tests();
  const std::string access_path = temp_path("obs_diag_identity_access.jsonl");
  const std::string slow_path = temp_path("obs_diag_identity_slow.jsonl");
  EXPECT_TRUE(rlog.set_access_log_path(access_path));
  EXPECT_TRUE(rlog.set_exemplar_path(slow_path));
  rlog.set_slow_threshold_us(0.0);  // every request is "slow": exemplar fires

  obs::Tracer::global().set_profiling(true);
  core::CirStagReport report;
  {
    // Root the run in a request context exactly like the serve scheduler
    // does, so every pipeline TraceSpan lands in the request's span tree
    // while the scores are computed.
    obs::RequestContext ctx("analyze");
    const std::uint32_t compute =
        ctx.open_span("compute", obs::process_now_us(),
                      obs::RequestContext::kNoParent);
    {
      const obs::TraceSpan root(&ctx, compute);
      report = run_diag_pipeline(cfg);
    }
    ctx.close_span(compute, obs::process_now_us());
    ctx.finish(200);
    rlog.record(ctx);
  }
  EXPECT_GE(rlog.access_lines_written(), 1u);
  EXPECT_GE(rlog.exemplars_captured(), 1u);

  rlog.reset_for_tests();
  std::remove(access_path.c_str());
  std::remove(slow_path.c_str());
  EXPECT_TRUE(obs::Logger::global().set_json_path(""));
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().set_profiling(false);
  obs::Tracer::global().clear();
  std::remove(log_path.c_str());
  return report;
}

core::CirStagReport run_uninstrumented(std::size_t threads) {
  const core::CirStagConfig cfg = diag_config();
  runtime::set_global_threads(threads);
  return run_diag_pipeline(cfg);
}

TEST(ObsDiagnosticsIdentity, AllSinksArmedScoresByteIdenticalAcrossThreads) {
  const core::CirStagReport bare = run_uninstrumented(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const core::CirStagReport full = run_fully_instrumented(threads);
    ASSERT_EQ(full.node_scores.size(), bare.node_scores.size());
    for (std::size_t i = 0; i < full.node_scores.size(); ++i)
      ASSERT_EQ(full.node_scores[i], bare.node_scores[i])
          << "node " << i << " @" << threads << " threads";
    ASSERT_EQ(full.edge_scores.size(), bare.edge_scores.size());
    for (std::size_t i = 0; i < full.edge_scores.size(); ++i)
      ASSERT_EQ(full.edge_scores[i], bare.edge_scores[i])
          << "edge " << i << " @" << threads << " threads";
    ASSERT_EQ(full.eigenvalues.size(), bare.eigenvalues.size());
    for (std::size_t i = 0; i < full.eigenvalues.size(); ++i)
      ASSERT_EQ(full.eigenvalues[i], bare.eigenvalues[i])
          << "eig " << i << " @" << threads << " threads";
    // Checksums certify the same thing from inside the manifest.
    EXPECT_EQ(full.checksums.node_scores, bare.checksums.node_scores);
    EXPECT_EQ(full.checksums.edge_scores, bare.checksums.edge_scores);
  }
  runtime::set_global_threads(0);
}

}  // namespace
