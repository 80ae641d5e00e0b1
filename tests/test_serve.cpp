// Serving-layer tests (suite prefix "Serve" — the TSan CI job filters on
// it): JSON codec round-trip + malformed fuzz corpora, HTTP head parsing,
// registry load/unload/concurrent lookup, scheduler admission/deadline/
// batching/drain edges, endpoint routing, and the loopback e2e contract —
// an /analyze response served over a real socket is byte-identical to the
// in-process answer (and its doubles bitwise-equal to the resident
// SweepEngine baseline, which core contract tests pin to CirStag::analyze).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "core/query.hpp"
#include "core/sweep.hpp"
#include "io/snapshot.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "serve/exposition.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace {

using namespace cirstag;
using namespace cirstag::serve;

std::string small_netlist_text(std::size_t gates = 60,
                               std::uint64_t seed = 91) {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  circuit::RandomCircuitSpec spec;
  spec.name = "serve_test";
  spec.num_gates = gates;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_levels = 6;
  spec.seed = seed;
  const circuit::Netlist nl = circuit::generate_random_logic(lib, spec);
  std::ostringstream out;
  circuit::write_netlist(out, nl);
  return out.str();
}

HttpRequest make_request(const std::string& method, const std::string& path,
                         const std::string& body) {
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.body = body;
  return req;
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter_value(name);
}

// ===========================================================================
// ServeJson — the request-body codec
// ===========================================================================

TEST(ServeJson, ScalarsAndContainers) {
  const JsonValue doc = parse_json(
      " {\"a\": 1.5, \"b\": [true, false, null], \"c\": \"x\", "
      "\"nested\": {\"d\": -2e3}} ");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("a", 0), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_FALSE(b->as_array()[1].as_bool());
  EXPECT_TRUE(b->as_array()[2].is_null());
  EXPECT_EQ(doc.string_or("c", ""), "x");
  const JsonValue* nested = doc.find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->number_or("d", 0), -2000.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.number_or("missing", 7.0), 7.0);
}

TEST(ServeJson, MembersKeepDocumentOrder) {
  const JsonValue doc = parse_json("{\"z\": 1, \"a\": 2, \"m\": 3}");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

// The serving responses render doubles through obs::append_json_number
// (%.17g); the byte-identity contract requires that parsing those bytes
// reproduces the exact IEEE value.
TEST(ServeJson, NumberRenderParseRoundTripIsExact) {
  const double values[] = {0.0,         1.0 / 3.0,    0.1 + 0.2,
                           1e-300,      -123.456e-7,  1e17,
                           5e-324,      1.7976931348623157e308,
                           -2.5000000000000004};
  for (const double v : values) {
    std::string rendered;
    obs::append_json_number(rendered, v);
    const JsonValue parsed = parse_json(rendered);
    ASSERT_TRUE(parsed.is_number()) << rendered;
    const double back = parsed.as_number();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << rendered << " did not round-trip";
  }
}

TEST(ServeJson, StringEscapes) {
  const JsonValue doc =
      parse_json("\"line\\n tab\\t quote\\\" back\\\\ u\\u0041\\u00e9\"");
  EXPECT_EQ(doc.as_string(), "line\n tab\t quote\" back\\ uA\u00e9");
}

TEST(ServeJson, QuoteParseRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const JsonValue doc = parse_json(obs::json_quote(nasty));
  EXPECT_EQ(doc.as_string(), nasty);
}

TEST(ServeJson, MalformedCorpusThrows) {
  const char* corpus[] = {
      "",
      "   ",
      "{",
      "[1, 2",
      "\"unterminated",
      "{\"a\" 1}",
      "{\"a\": 1,}",
      "[1, 2,]",
      "{\"a\": 1} trailing",
      "1 2",
      "nul",
      "truex",
      "NaN",
      "Infinity",
      "-",
      "+1",
      "01x",
      "{\"a\": }",
      "{: 1}",
      "[,]",
      "\"bad escape \\q\"",
      "\"bad unicode \\u12g4\"",
      "\"raw control \x01\"",
      "}",
      "]",
  };
  for (const char* text : corpus) {
    EXPECT_THROW((void)parse_json(text), JsonError)
        << "accepted: " << text;
  }
}

TEST(ServeJson, DepthLimitStopsNestingBombs) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)parse_json(deep, 8), JsonError);
  EXPECT_NO_THROW((void)parse_json("[[[[1]]]]", 8));
}

TEST(ServeJson, KindMismatchThrows) {
  const JsonValue doc = parse_json("{\"n\": 3}");
  EXPECT_THROW((void)doc.as_string(), JsonError);
  EXPECT_THROW((void)doc.find("n")->as_array(), JsonError);
  EXPECT_THROW((void)parse_json("[1]").find("x"), JsonError);
}

// ===========================================================================
// ServeHttp — request head parsing and response framing
// ===========================================================================

TEST(ServeHttp, ParsesRequestLineHeadersAndQuery) {
  std::string error;
  const auto req = parse_http_head(
      "POST /analyze?trace=1 HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "X-MiXeD-Case:  spaced value \r\n"
      "\r\n",
      error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/analyze");
  EXPECT_EQ(req->query, "trace=1");
  ASSERT_NE(req->header("content-type"), nullptr);
  EXPECT_EQ(*req->header("content-type"), "application/json");
  ASSERT_NE(req->header("x-mixed-case"), nullptr);
  EXPECT_EQ(*req->header("x-mixed-case"), "spaced value");
}

TEST(ServeHttp, KeepAliveSemantics) {
  std::string error;
  const auto plain = parse_http_head("GET /health HTTP/1.1\r\n\r\n", error);
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->keep_alive());  // HTTP/1.1 default

  const auto close = parse_http_head(
      "GET /health HTTP/1.1\r\nConnection: Close\r\n\r\n", error);
  ASSERT_TRUE(close.has_value());
  EXPECT_FALSE(close->keep_alive());
}

TEST(ServeHttp, MalformedHeadCorpusRejected) {
  const char* corpus[] = {
      "\r\n\r\n",                                  // empty request line
      "GET /x\r\n\r\n",                            // missing version
      "GET /x HTTP/1.1 extra\r\n\r\n",             // four tokens
      "get /x HTTP/1.1\r\n\r\n",                   // lower-case method
      "GET x HTTP/1.1\r\n\r\n",                    // not origin-form
      "GET /x HTTP/2\r\n\r\n",                     // unsupported version
      "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",    // header without ':'
      "GET /x HTTP/1.1\r\n: value\r\n\r\n",        // empty header name
      "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n",    // space in header name
      "GET /x HTTP/1.1\r\nA: b\r\n\r\nleftover",   // bytes past terminator
      "GET /x HTTP/1.1\r\nA: b\r\n",               // unterminated headers
  };
  for (const char* text : corpus) {
    std::string error;
    EXPECT_FALSE(parse_http_head(text, error).has_value())
        << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServeHttp, ResponseFraming) {
  const std::string keep =
      format_http_response(200, "application/json", "{\"k\": 1}", true);
  EXPECT_EQ(keep.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(keep.find("Content-Length: 8\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(keep.substr(keep.size() - 8), "{\"k\": 1}");

  const std::string close = format_http_response(429, "application/json",
                                                 "{}", false);
  EXPECT_EQ(close.rfind("HTTP/1.1 429 Too Many Requests\r\n", 0), 0u);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

// ===========================================================================
// ServeRegistry — resident-circuit lifecycle
// ===========================================================================

LoadOptions tiny_load_options() {
  LoadOptions options;
  options.gnn_epochs = 12;
  options.gnn_hidden = 8;
  options.exact = true;
  return options;
}

TEST(ServeRegistry, LoadLookupUnloadCycle) {
  CircuitRegistry registry;
  const auto loaded =
      registry.load_from_text("alpha", small_netlist_text(),
                              tiny_load_options());
  ASSERT_NE(loaded.record, nullptr) << loaded.error;
  EXPECT_GT(loaded.record->netlist.num_pins(), 0u);
  EXPECT_NE(loaded.record->engine, nullptr);
  EXPECT_EQ(registry.size(), 1u);

  const auto record = registry.lookup("alpha");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record.get(), loaded.record.get());
  EXPECT_EQ(registry.lookup("beta"), nullptr);

  const auto infos = registry.infos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "alpha");
  EXPECT_EQ(infos[0].pins, record->netlist.num_pins());
  EXPECT_EQ(infos[0].gates, record->netlist.num_gates());

  EXPECT_TRUE(registry.unload("alpha"));
  EXPECT_EQ(registry.lookup("alpha"), nullptr);
  EXPECT_FALSE(registry.unload("alpha"));
  EXPECT_EQ(registry.size(), 0u);

  // The handed-out record stays alive past unload.
  EXPECT_GT(record->engine->baseline().node_scores.size(), 0u);
}

TEST(ServeRegistry, DuplicateNameConflicts) {
  CircuitRegistry registry;
  const std::string text = small_netlist_text();
  ASSERT_NE(registry.load_from_text("dup", text, tiny_load_options()).record,
            nullptr);
  const auto second = registry.load_from_text("dup", text,
                                              tiny_load_options());
  EXPECT_EQ(second.record, nullptr);
  EXPECT_TRUE(second.name_conflict);
}

TEST(ServeRegistry, FailedLoadReleasesTheName) {
  CircuitRegistry registry;
  const auto bad = registry.load_from_text("x", "not a netlist at all",
                                           tiny_load_options());
  EXPECT_EQ(bad.record, nullptr);
  EXPECT_FALSE(bad.name_conflict);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(registry.size(), 0u);
  // The reservation must have been rolled back.
  EXPECT_NE(registry.load_from_text("x", small_netlist_text(),
                                    tiny_load_options())
                .record,
            nullptr);
}

TEST(ServeRegistry, EmptyNameRejected) {
  CircuitRegistry registry;
  const auto result = registry.load_from_text("", small_netlist_text(),
                                              tiny_load_options());
  EXPECT_EQ(result.record, nullptr);
  EXPECT_FALSE(result.error.empty());
}

TEST(ServeRegistry, ConcurrentLookupsDuringLoad) {
  CircuitRegistry registry;
  ASSERT_NE(registry.load_from_text("warm", small_netlist_text(60, 5),
                                    tiny_load_options())
                .record,
            nullptr);

  std::atomic<bool> go{true};
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (go.load()) {
        if (registry.lookup("warm") != nullptr) hits.fetch_add(1);
        (void)registry.infos();
        (void)registry.size();
      }
    });
  }
  // A second load runs while the readers hammer the registry.
  const auto second = registry.load_from_text("cold",
                                              small_netlist_text(60, 6),
                                              tiny_load_options());
  go.store(false);
  for (std::thread& t : readers) t.join();
  ASSERT_NE(second.record, nullptr) << second.error;
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(registry.size(), 2u);
}

// ===========================================================================
// ServeScheduler — admission, deadlines, batching, drain
// ===========================================================================

Job trivial_job(const std::string& body = "{}") {
  Job job;
  job.endpoint = "test";
  job.run = [body]() -> JobResponse { return {200, body}; };
  return job;
}

TEST(ServeScheduler, ExecutesSubmittedJobs) {
  const std::uint64_t served_before = counter("serve.requests_served");
  Scheduler::Options options;
  options.workers = 1;
  Scheduler scheduler(options);
  auto result = scheduler.submit(trivial_job("{\"ok\": true}"));
  ASSERT_TRUE(result.accepted);
  const JobResponse response = result.future.get();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"ok\": true}");
  scheduler.stop();
  EXPECT_EQ(counter("serve.requests_served"), served_before + 1);
}

TEST(ServeScheduler, FullQueueRejects429) {
  Scheduler::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  Scheduler scheduler(options);
  scheduler.pause();
  auto first = scheduler.submit(trivial_job());
  ASSERT_TRUE(first.accepted);
  EXPECT_EQ(scheduler.queue_depth(), 1u);
  auto second = scheduler.submit(trivial_job());
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.reject_status, 429);
  scheduler.resume();
  EXPECT_EQ(first.future.get().status, 200);
  scheduler.stop();
}

TEST(ServeScheduler, ExpiredDeadlineAnswers504WithoutExecuting) {
  Scheduler::Options options;
  options.workers = 1;
  Scheduler scheduler(options);
  scheduler.pause();
  std::atomic<bool> executed{false};
  Job job;
  job.endpoint = "test";
  job.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  job.run = [&executed]() -> JobResponse {
    executed.store(true);
    return {200, "{}"};
  };
  auto result = scheduler.submit(std::move(job));
  ASSERT_TRUE(result.accepted);
  scheduler.resume();
  EXPECT_EQ(result.future.get().status, 504);
  EXPECT_FALSE(executed.load());
  scheduler.stop();
}

TEST(ServeScheduler, WaveBatchingIsDeterministic) {
  const std::uint64_t batches_before =
      counter("serve.scheduler.batches_formed");
  Scheduler::Options options;
  options.workers = 1;  // single worker => ceil(5 / 2) = 3 batches
  options.max_batch_size = 2;
  Scheduler scheduler(options);
  scheduler.pause();

  std::mutex sizes_mutex;
  std::vector<std::size_t> batch_sizes;
  std::vector<std::future<JobResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    Job job;
    job.endpoint = "test";
    job.batch_key = "same";
    job.payload = std::make_shared<int>(i);
    job.run = []() -> JobResponse { return {200, "solo"}; };
    job.run_batch =
        [&](std::vector<Job*>& group) -> std::vector<JobResponse> {
      {
        std::lock_guard<std::mutex> lock(sizes_mutex);
        batch_sizes.push_back(group.size());
      }
      std::vector<JobResponse> out;
      for (Job* member : group)
        out.push_back(
            {200, std::to_string(*std::static_pointer_cast<int>(
                      member->payload))});
      return out;
    };
    auto result = scheduler.submit(std::move(job));
    ASSERT_TRUE(result.accepted);
    futures.push_back(std::move(result.future));
  }
  scheduler.resume();
  for (int i = 0; i < 5; ++i) {
    const JobResponse response = futures[i].get();
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, std::to_string(i)) << "order not preserved";
  }
  scheduler.stop();
  EXPECT_EQ(counter("serve.scheduler.batches_formed"), batches_before + 3);
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 2u);
  EXPECT_EQ(batch_sizes[1], 2u);
  EXPECT_EQ(batch_sizes[2], 1u);
}

TEST(ServeScheduler, EmptyBatchKeyNeverCoalesces) {
  const std::uint64_t batches_before =
      counter("serve.scheduler.batches_formed");
  Scheduler::Options options;
  options.workers = 1;
  Scheduler scheduler(options);
  scheduler.pause();
  std::vector<std::future<JobResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto result = scheduler.submit(trivial_job());
    ASSERT_TRUE(result.accepted);
    futures.push_back(std::move(result.future));
  }
  scheduler.resume();
  for (auto& f : futures) EXPECT_EQ(f.get().status, 200);
  scheduler.stop();
  EXPECT_EQ(counter("serve.scheduler.batches_formed"), batches_before);
}

TEST(ServeScheduler, DrainFinishesQueuedWorkThenRejects503) {
  Scheduler::Options options;
  options.workers = 1;
  Scheduler scheduler(options);
  scheduler.pause();
  std::vector<std::future<JobResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    auto result = scheduler.submit(trivial_job());
    ASSERT_TRUE(result.accepted);
    futures.push_back(std::move(result.future));
  }
  scheduler.drain();  // un-pauses, executes everything, waits for idle
  EXPECT_TRUE(scheduler.draining());
  EXPECT_EQ(scheduler.queue_depth(), 0u);
  for (auto& f : futures) EXPECT_EQ(f.get().status, 200);
  auto late = scheduler.submit(trivial_job());
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reject_status, 503);
  scheduler.stop();
}

TEST(ServeScheduler, HandlerExceptionBecomes500) {
  Scheduler::Options options;
  options.workers = 1;
  Scheduler scheduler(options);
  // The exception text reaches the body's "detail" byte for byte: quotes,
  // backslashes, control bytes and UTF-8 included.
  for (const std::string message :
       {"boom detail", "q\" b\\ t\t n\n na\xc3\xafve"}) {
    Job job;
    job.endpoint = "test";
    job.run = [message]() -> JobResponse {
      throw std::runtime_error(message);
    };
    auto result = scheduler.submit(std::move(job));
    ASSERT_TRUE(result.accepted);
    const JobResponse response = result.future.get();
    EXPECT_EQ(response.status, 500);
    const JsonValue body = parse_json(response.body);
    EXPECT_EQ(body.string_or("error", ""), "internal error");
    EXPECT_EQ(body.string_or("detail", ""), message) << response.body;
  }
  scheduler.stop();
}

// ===========================================================================
// ServeEndpoints — in-process routing against one resident circuit
// ===========================================================================

/// One Service with a pre-loaded circuit shared by the endpoint tests (GNN
/// training is the expensive part; train once). Leaked on purpose so its
/// scheduler workers outlive test teardown ordering concerns.
Service& shared_service() {
  static Service* service = [] {
    Scheduler::Options options;
    options.workers = 1;
    auto* svc = new Service(options);
    const std::string body =
        "{\"name\": \"fixture\", \"netlist\": " +
        obs::json_quote(small_netlist_text()) +
        ", \"epochs\": 12, \"hidden\": 8, \"mode\": \"exact\"}";
    const JobResponse loaded =
        handle_request(*svc, make_request("POST", "/load", body));
    EXPECT_EQ(loaded.status, 200) << loaded.body;
    return svc;
  }();
  return *service;
}

const core::CirStagReport& fixture_baseline() {
  return shared_service().registry.lookup("fixture")->engine->baseline();
}

TEST(ServeEndpoints, LoadValidation) {
  Service& service = shared_service();
  // Duplicate name → 409.
  const std::string dup =
      "{\"name\": \"fixture\", \"netlist\": " +
      obs::json_quote(small_netlist_text()) +
      ", \"epochs\": 12, \"hidden\": 8}";
  EXPECT_EQ(handle_request(service, make_request("POST", "/load", dup)).status,
            409);
  // Both path and netlist → 422; neither → 422; bad epochs → 422.
  EXPECT_EQ(handle_request(
                service,
                make_request("POST", "/load",
                             "{\"name\": \"x\", \"path\": \"a\", "
                             "\"netlist\": \"b\"}"))
                .status,
            422);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load", "{\"name\": \"x\"}"))
                .status,
            422);
  EXPECT_EQ(handle_request(
                service,
                make_request("POST", "/load",
                             "{\"name\": \"x\", \"netlist\": \"n\", "
                             "\"epochs\": 0}"))
                .status,
            422);
  // Integer fields are bounded before their cast: on an otherwise valid
  // load, 1e300 epochs, hidden units or milliseconds is a 422, not a
  // training run of whatever the cast made of it.
  for (const char* field : {"epochs", "hidden", "deadline_ms"}) {
    const std::string body = "{\"name\": \"x\", \"netlist\": " +
                             obs::json_quote(small_netlist_text()) + ", \"" +
                             field + "\": 1e300}";
    EXPECT_EQ(
        handle_request(service, make_request("POST", "/load", body)).status,
        422)
        << field;
  }
  // A 35-byte netlist asking for four billion inputs is refused by the
  // reader before it allocates a pin.
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load",
                                        "{\"name\": \"x\", \"netlist\": " +
                                            obs::json_quote(
                                                "cirstag-netlist 1\n"
                                                "inputs 4000000000") +
                                            "}"))
                .status,
            422);
  EXPECT_EQ(service.registry.lookup("x"), nullptr);
}

TEST(ServeEndpoints, SnapshotLoadRestoresAndValidates) {
  Service& service = shared_service();
  const std::shared_ptr<CircuitRecord> fixture =
      service.registry.lookup("fixture");
  ASSERT_NE(fixture, nullptr);
  const std::string snap =
      testing::TempDir() + "cirstag_serve_snapshot.bin";
  io::SnapshotMeta meta;
  meta.exact = fixture->options.exact;
  meta.train_r2 = fixture->train_r2;
  io::write_snapshot(snap, *fixture->model, *fixture->engine, meta);

  // Restore under a new name: no training, warm state adopted.
  const std::uint64_t train_before = counter("gnn.train_epochs");
  const std::string body = "{\"name\": \"from_snap\", \"snapshot\": " +
                           obs::json_quote(snap) + "}";
  const JobResponse restored =
      handle_request(service, make_request("POST", "/load", body));
  ASSERT_EQ(restored.status, 200) << restored.body;
  EXPECT_NE(restored.body.find("\"restored\": true"), std::string::npos);
  EXPECT_EQ(counter("gnn.train_epochs"), train_before);

  // The restored resident answers /top-k identically to the original.
  const auto top_k = [&](const char* name) {
    const JobResponse r = handle_request(
        service, make_request("POST", "/top-k",
                              std::string("{\"circuit\": \"") + name +
                                  "\", \"k\": 5}"));
    EXPECT_EQ(r.status, 200) << r.body;
    return r.body.substr(r.body.find("\"nodes\""));
  };
  EXPECT_EQ(top_k("fixture"), top_k("from_snap"));
  EXPECT_TRUE(service.registry.unload("from_snap"));

  // Malformed snapshot path → 400 (the request was well-formed, the file
  // is not); the name is released for retry.
  const std::string bad_path =
      "{\"name\": \"from_snap\", \"snapshot\": \"/nonexistent/x.bin\"}";
  EXPECT_EQ(
      handle_request(service, make_request("POST", "/load", bad_path)).status,
      400);
  // Non-string / empty snapshot value → 400.
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load",
                                        "{\"name\": \"x\", \"snapshot\": 3}"))
                .status,
            400);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load",
                                        "{\"name\": \"x\", "
                                        "\"snapshot\": \"\"}"))
                .status,
            400);
  // snapshot + netlist/path → 422 (exactly one source).
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load",
                                        "{\"name\": \"x\", \"snapshot\": "
                                        "\"a\", \"netlist\": \"b\"}"))
                .status,
            422);
  // Training knobs cannot override what the snapshot recorded → 422.
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/load",
                                        "{\"name\": \"x\", \"snapshot\": " +
                                            obs::json_quote(snap) +
                                            ", \"epochs\": 5}"))
                .status,
            422);
  // The released name still works after all the failures.
  const JobResponse again =
      handle_request(service, make_request("POST", "/load", body));
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_TRUE(service.registry.unload("from_snap"));
  std::remove(snap.c_str());
}

TEST(ServeEndpoints, RoutingErrors) {
  Service& service = shared_service();
  EXPECT_EQ(
      handle_request(service, make_request("POST", "/nope", "{}")).status,
      404);
  EXPECT_EQ(
      handle_request(service, make_request("GET", "/analyze", "")).status,
      405);
  EXPECT_EQ(
      handle_request(service, make_request("POST", "/health", "{}")).status,
      405);
  EXPECT_EQ(
      handle_request(service, make_request("POST", "/analyze", "not json"))
          .status,
      400);
  EXPECT_EQ(
      handle_request(service, make_request("POST", "/analyze", "[1,2]"))
          .status,
      400);
  EXPECT_EQ(handle_request(service, make_request("POST", "/analyze", "{}"))
                .status,
            422);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/analyze",
                                        "{\"circuit\": \"ghost\"}"))
                .status,
            404);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/analyze",
                                        "{\"circuit\": \"fixture\", "
                                        "\"deadline_ms\": -5}"))
                .status,
            422);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/analyze",
                                        "{\"circuit\": \"fixture\", "
                                        "\"deadline_ms\": 1e300}"))
                .status,
            422);
}

TEST(ServeEndpoints, HealthReportsCircuitsAndBuild) {
  const JobResponse response =
      handle_request(shared_service(), make_request("GET", "/health", ""));
  ASSERT_EQ(response.status, 200);
  const JsonValue doc = parse_json(response.body);
  EXPECT_EQ(doc.string_or("status", ""), "ok");
  EXPECT_GE(doc.number_or("uptime_seconds", -1), 0.0);
  const JsonValue* circuits = doc.find("circuits");
  ASSERT_NE(circuits, nullptr);
  bool found = false;
  for (const JsonValue& info : circuits->as_array()) {
    if (info.string_or("name", "") != "fixture") continue;
    found = true;
    EXPECT_EQ(info.number_or("pins", 0),
              static_cast<double>(fixture_baseline().node_scores.size()));
    EXPECT_EQ(info.string_or("mode", ""), "exact");
  }
  EXPECT_TRUE(found);
  const JsonValue* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_TRUE(build->find("git_describe") != nullptr);
  EXPECT_TRUE(build->find("build_type") != nullptr);
}

TEST(ServeEndpoints, MetricsEndpointServesTextExposition) {
  Service& service = shared_service();
  Dispatch d = dispatch_request(service, make_request("GET", "/metrics", ""));
  ASSERT_TRUE(d.immediate);
  ASSERT_EQ(d.response.status, 200);
  EXPECT_EQ(d.response.content_type.rfind("text/plain", 0), 0u)
      << d.response.content_type;
  const std::string& body = d.response.body;
  // The fixture load went through the scheduler, so its counter exists and
  // is TYPE-declared with the _total naming contract.
  EXPECT_NE(body.find("# TYPE cirstag_serve_requests_served_total counter"),
            std::string::npos)
      << body.substr(0, 512);
  EXPECT_NE(body.find("cirstag_serve_requests_served_total "),
            std::string::npos);
  // Per-endpoint latency folds into one labelled family, and the windowed
  // summary carries its quantiles.
  EXPECT_NE(body.find("# TYPE cirstag_serve_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(body.find("cirstag_serve_latency_ms_bucket{endpoint=\"load\","
                      "le=\"1\"}"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE cirstag_serve_window_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(body.find("cirstag_serve_window_latency_ms{endpoint=\"load\","
                      "quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(body.find("cirstag_serve_window_requests{endpoint=\"load\"} "),
            std::string::npos);
  // Each endpoint's window request gauge is its window summary's _count.
  const auto sample = [&body](const std::string& series) {
    const std::size_t at = body.find("\n" + series + " ");
    if (at == std::string::npos) return std::string("(absent)");
    const std::size_t begin = at + series.size() + 2;
    return body.substr(begin, body.find('\n', begin) - begin);
  };
  const std::string count_family = "cirstag_serve_window_latency_ms_count";
  std::size_t endpoints = 0;
  for (std::size_t at = body.find(count_family + "{"); at != std::string::npos;
       at = body.find(count_family + "{", at + 1)) {
    const std::size_t labels_at = at + count_family.size();
    const std::string labels =
        body.substr(labels_at, body.find('}', labels_at) + 1 - labels_at);
    EXPECT_EQ(sample("cirstag_serve_window_requests" + labels),
              sample(count_family + labels))
        << labels;
    ++endpoints;
  }
  EXPECT_GE(endpoints, 1u);
  EXPECT_NE(body.find("# TYPE cirstag_serve_registry_resident_circuits "
                      "gauge"),
            std::string::npos);
}

TEST(ServeEndpoints, StatsEndpointServesWindowedJson) {
  Service& service = shared_service();
  const JobResponse response =
      handle_request(service, make_request("GET", "/stats", ""));
  ASSERT_EQ(response.status, 200);
  const JsonValue doc = parse_json(response.body);
  EXPECT_GE(doc.number_or("uptime_seconds", -1.0), 0.0);
  const JsonValue* window = doc.find("window");
  ASSERT_NE(window, nullptr);
  const JsonValue* endpoints = window->find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  const JsonValue* load = endpoints->find("load");
  ASSERT_NE(load, nullptr) << response.body;
  EXPECT_GE(load->number_or("count", 0.0), 1.0);
  EXPECT_GE(load->number_or("p99_ms", -1.0), load->number_or("p50_ms", 0.0));
  const JsonValue* registry = doc.find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_GE(registry->number_or("resident", 0.0), 1.0);
  const JsonValue* batch = doc.find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_GE(batch->number_or("batches_formed", -1.0), 0.0);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->number_or("serve.requests_served", 0.0), 1.0);
}

TEST(ServeEndpoints, EveryRequestGetsAFinishedTrace) {
  Service& service = shared_service();
  Dispatch ok = dispatch_request(service, make_request("GET", "/health", ""));
  ASSERT_TRUE(ok.immediate);
  ASSERT_NE(ok.trace, nullptr);
  EXPECT_EQ(ok.trace->endpoint(), "health");
  EXPECT_TRUE(ok.trace->finished());
  EXPECT_EQ(ok.trace->status(), 200);
  EXPECT_EQ(ok.trace->id_hex().size(), 16u);

  Dispatch bad = dispatch_request(service, make_request("POST", "/nope", ""));
  ASSERT_TRUE(bad.immediate);
  ASSERT_NE(bad.trace, nullptr);
  EXPECT_EQ(bad.trace->status(), 404);

  // Scheduled dispatches get their trace finished by the scheduler, with
  // queue/compute segments and the solver spans attributed under "compute".
  Dispatch scheduled = dispatch_request(
      service, make_request("POST", "/analyze",
                            "{\"circuit\": \"fixture\", \"cap_scalings\": "
                            "[{\"pin\": 1, \"factor\": 3.0}]}"));
  ASSERT_FALSE(scheduled.immediate);
  ASSERT_EQ(scheduled.future.get().status, 200);
  ASSERT_NE(scheduled.trace, nullptr);
  EXPECT_TRUE(scheduled.trace->finished());
  EXPECT_EQ(scheduled.trace->status(), 200);
  EXPECT_GT(scheduled.trace->compute_us(), 0.0);
  const auto spans = scheduled.trace->spans();
  bool saw_queue = false, saw_compute = false, saw_render = false;
  bool saw_nested = false;
  std::uint32_t compute_index = obs::RequestContext::kNoParent;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "queue") saw_queue = true;
    if (name == "compute") {
      saw_compute = true;
      compute_index = static_cast<std::uint32_t>(i);
    }
    if (name == "render") saw_render = true;
  }
  for (const auto& span : spans)
    if (span.parent == compute_index) saw_nested = true;
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_render);
  // The solver's TraceSpans fired under the request-rooted chain, so at least
  // one span nests under the scheduler's "compute" segment.
  EXPECT_TRUE(saw_nested) << scheduled.trace->span_tree_json();
}

TEST(ServeEndpoints, AnalyzeBaselineMatchesResidentEngine) {
  const JobResponse response = handle_request(
      shared_service(),
      make_request("POST", "/analyze",
                   "{\"circuit\": \"fixture\", \"cap_scalings\": []}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  EXPECT_TRUE(doc.bool_or("baseline", false));
  const JsonValue* report = doc.find("report");
  ASSERT_NE(report, nullptr);
  const core::CirStagReport& baseline = fixture_baseline();
  const auto& scores = report->find("node_scores")->as_array();
  ASSERT_EQ(scores.size(), baseline.node_scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double parsed = scores[i].as_number();
    EXPECT_EQ(std::memcmp(&parsed, &baseline.node_scores[i], sizeof parsed),
              0)
        << "node score " << i << " not bitwise-identical";
  }
  const JsonValue* checksums = report->find("checksums");
  ASSERT_NE(checksums, nullptr);
  EXPECT_EQ(checksums->find("node_scores")->as_string(),
            obs::fnv1a_hex(obs::fnv1a_doubles(baseline.node_scores)));
  EXPECT_TRUE(report->bool_or("health_ok", false));
}

TEST(ServeEndpoints, AnalyzeVariantMatchesDirectEngineRun) {
  Service& service = shared_service();
  const JobResponse response = handle_request(
      service,
      make_request("POST", "/analyze",
                   "{\"circuit\": \"fixture\", \"cap_scalings\": "
                   "[{\"pin\": 3, \"factor\": 5.0}]}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  EXPECT_FALSE(doc.bool_or("baseline", true));

  // Exact mode is deterministic: a direct re-run of the same variant on the
  // resident engine must reproduce the served scores bitwise.
  const auto record = service.registry.lookup("fixture");
  core::SweepVariant variant;
  variant.cap_scalings.push_back({3, 5.0});
  const std::vector<core::SweepVariant> variants{variant};
  std::vector<core::SweepVariantResult> direct;
  {
    std::lock_guard<std::mutex> lock(record->run_mutex);
    direct = record->engine->run(variants);
  }
  ASSERT_EQ(direct.size(), 1u);
  const auto& scores = doc.find("report")->find("node_scores")->as_array();
  ASSERT_EQ(scores.size(), direct[0].report.node_scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    EXPECT_EQ(scores[i].as_number(), direct[0].report.node_scores[i]);
}

TEST(ServeEndpoints, AnalyzeRejectsBadCapScalings) {
  Service& service = shared_service();
  const char* bad_bodies[] = {
      "{\"circuit\": \"fixture\", \"cap_scalings\": 3}",
      "{\"circuit\": \"fixture\", \"cap_scalings\": [5]}",
      "{\"circuit\": \"fixture\", \"cap_scalings\": [{\"pin\": -1, "
      "\"factor\": 2}]}",
      "{\"circuit\": \"fixture\", \"cap_scalings\": [{\"pin\": 1000000, "
      "\"factor\": 2}]}",
      "{\"circuit\": \"fixture\", \"cap_scalings\": [{\"pin\": 1, "
      "\"factor\": 0}]}",
      "{\"circuit\": \"fixture\", \"cap_scalings\": [{\"pin\": 1.5, "
      "\"factor\": 2}]}",
  };
  for (const char* body : bad_bodies) {
    EXPECT_EQ(handle_request(service, make_request("POST", "/analyze", body))
                  .status,
              422)
        << body;
  }
}

TEST(ServeEndpoints, TopKMatchesQueryHelper) {
  const JobResponse response = handle_request(
      shared_service(),
      make_request("POST", "/top-k",
                   "{\"circuit\": \"fixture\", \"k\": 5}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  const auto expected = core::top_k_nodes(fixture_baseline(), 5);
  const auto& nodes = doc.find("nodes")->as_array();
  ASSERT_EQ(nodes.size(), expected.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].number_or("node", -1),
              static_cast<double>(expected[i].node));
    EXPECT_EQ(nodes[i].number_or("score", -1), expected[i].score);
  }
  EXPECT_EQ(handle_request(shared_service(),
                           make_request("POST", "/top-k",
                                        "{\"circuit\": \"fixture\", "
                                        "\"k\": 0}"))
                .status,
            422);
  // A k past the pin count, however large, clamps to every pin.
  const std::size_t pins = fixture_baseline().node_scores.size();
  for (const char* k : {"1e300", "2e19"}) {
    const JobResponse all = handle_request(
        shared_service(),
        make_request("POST", "/top-k",
                     std::string("{\"circuit\": \"fixture\", \"k\": ") + k +
                         "}"));
    ASSERT_EQ(all.status, 200) << k << ": " << all.body;
    const JsonValue all_doc = parse_json(all.body);
    EXPECT_EQ(all_doc.number_or("k", -1), static_cast<double>(pins)) << k;
    EXPECT_EQ(all_doc.find("nodes")->as_array().size(), pins) << k;
  }
}

TEST(ServeEndpoints, ScoreRegionMatchesQueryHelper) {
  const JobResponse response = handle_request(
      shared_service(),
      make_request("POST", "/score-region",
                   "{\"circuit\": \"fixture\", \"nodes\": [0, 3, 7]}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  const std::vector<std::size_t> ids{0, 3, 7};
  const core::RegionScore expected =
      core::score_region(fixture_baseline(), ids);
  EXPECT_EQ(doc.number_or("mean", -1), expected.mean);
  EXPECT_EQ(doc.number_or("max", -1), expected.max);
  EXPECT_EQ(doc.number_or("argmax", -1),
            static_cast<double>(expected.argmax));
  EXPECT_EQ(doc.number_or("design_mean", -1), expected.design_mean);

  // Out-of-range id surfaces as 422, not a crash.
  EXPECT_EQ(handle_request(shared_service(),
                           make_request("POST", "/score-region",
                                        "{\"circuit\": \"fixture\", "
                                        "\"nodes\": [99999999]}"))
                .status,
            422);
  // So does one no integer type holds, instead of a cast to some pin.
  EXPECT_EQ(handle_request(shared_service(),
                           make_request("POST", "/score-region",
                                        "{\"circuit\": \"fixture\", "
                                        "\"nodes\": [1e300]}"))
                .status,
            422);
}

TEST(ServeEndpoints, ScoreRegionConeMatchesScoreConeHelper) {
  // "hops" switches the endpoint onto the localized cone path; the response
  // must equal core::score_cone over the engine's pin graph.
  const JobResponse response = handle_request(
      shared_service(),
      make_request("POST", "/score-region",
                   "{\"circuit\": \"fixture\", \"nodes\": [5], "
                   "\"hops\": 2}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  const std::vector<std::size_t> seeds{5};
  const auto record = shared_service().registry.lookup("fixture");
  const core::RegionScore expected = core::score_cone(
      fixture_baseline(), record->engine->pin_graph(), seeds, 2);
  EXPECT_GT(expected.nodes.size(), 1u);  // the cone actually expanded
  EXPECT_EQ(doc.number_or("count", -1),
            static_cast<double>(expected.nodes.size()));
  EXPECT_EQ(doc.number_or("mean", -1), expected.mean);
  EXPECT_EQ(doc.number_or("max", -1), expected.max);
  EXPECT_EQ(doc.number_or("argmax", -1),
            static_cast<double>(expected.argmax));
  EXPECT_EQ(doc.number_or("design_mean", -1), expected.design_mean);

  // hops: 0 must match the plain node-set query exactly.
  const JobResponse zero_hops = handle_request(
      shared_service(),
      make_request("POST", "/score-region",
                   "{\"circuit\": \"fixture\", \"nodes\": [0, 3, 7], "
                   "\"hops\": 0}"));
  ASSERT_EQ(zero_hops.status, 200) << zero_hops.body;
  const JsonValue zero_doc = parse_json(zero_hops.body);
  const std::vector<std::size_t> ids{0, 3, 7};
  const core::RegionScore plain = core::score_region(fixture_baseline(), ids);
  EXPECT_EQ(zero_doc.number_or("mean", -1), plain.mean);
  EXPECT_EQ(zero_doc.number_or("design_mean", -1), plain.design_mean);

  // Malformed hops values surface as 422.
  EXPECT_EQ(handle_request(shared_service(),
                           make_request("POST", "/score-region",
                                        "{\"circuit\": \"fixture\", "
                                        "\"nodes\": [0], \"hops\": -1}"))
                .status,
            422);
  EXPECT_EQ(handle_request(shared_service(),
                           make_request("POST", "/score-region",
                                        "{\"circuit\": \"fixture\", "
                                        "\"nodes\": [0], \"hops\": 1.5}"))
                .status,
            422);
}

TEST(ServeEndpoints, SweepRunsVariantsInOrder) {
  const JobResponse response = handle_request(
      shared_service(),
      make_request("POST", "/sweep",
                   "{\"circuit\": \"fixture\", \"variants\": ["
                   "{\"cap_scalings\": [{\"pin\": 1, \"factor\": 3.0}]}, "
                   "{\"cap_scalings\": [{\"pin\": 2, \"factor\": 0.5}]}]}"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = parse_json(response.body);
  ASSERT_NE(doc.find("results"), nullptr);
  EXPECT_EQ(doc.find("results")->as_array().size(), 2u);
  const JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_or("variants", 0), 2.0);
}

TEST(ServeEndpoints, UnloadLifecycle) {
  Service& service = shared_service();
  const std::string body =
      "{\"name\": \"transient\", \"netlist\": " +
      obs::json_quote(small_netlist_text(60, 7)) +
      ", \"epochs\": 12, \"hidden\": 8}";
  ASSERT_EQ(handle_request(service, make_request("POST", "/load", body))
                .status,
            200);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/unload",
                                        "{\"name\": \"transient\"}"))
                .status,
            200);
  EXPECT_EQ(handle_request(service,
                           make_request("POST", "/unload",
                                        "{\"name\": \"transient\"}"))
                .status,
            404);
}

// ===========================================================================
// ServeExposition — Prometheus text-format conformance
// ===========================================================================

TEST(ServeExposition, SanitizesMetricNames) {
  EXPECT_EQ(prom_sanitize_name("serve.latency_ms"), "serve_latency_ms");
  EXPECT_EQ(prom_sanitize_name("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(prom_sanitize_name("ns:metric"), "ns:metric");
  EXPECT_EQ(prom_sanitize_name("7eleven"), "_7eleven");
  EXPECT_EQ(prom_sanitize_name(""), "");
}

TEST(ServeExposition, EscapesLabelValues) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

/// Parse the exposition text into (sample line -> value), skipping comments.
std::vector<std::pair<std::string, double>> parse_samples(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    samples.emplace_back(line.substr(0, space),
                         std::stod(line.substr(space + 1)));
  }
  return samples;
}

TEST(ServeExposition, EveryMetricTypeConforms) {
  Service& service = shared_service();  // fixture already loaded
  const std::string text = render_metrics_exposition(service);

  // Every TYPE line names a valid type; every sample is TYPE-declared
  // before its first sample (single pass, tracking declared families).
  std::vector<std::string> declared;
  std::istringstream in(text);
  std::string line;
  std::size_t samples_seen = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos) << line;
      const std::string family = line.substr(7, space - 7);
      const std::string type = line.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary")
          << line;
      declared.push_back(family);
      continue;
    }
    if (line[0] == '#') continue;
    ++samples_seen;
    const std::string sample = line.substr(0, line.find_first_of(" {"));
    bool covered = false;
    for (const std::string& family : declared)
      if (sample.compare(0, family.size(), family) == 0) covered = true;
    EXPECT_TRUE(covered) << "sample not TYPE-declared: " << line;
  }
  EXPECT_GT(samples_seen, 0u);

  // Histogram contract on the folded per-endpoint latency family: buckets
  // cumulative, le="+Inf" present and equal to _count.
  const auto samples = parse_samples(text);
  double last_bucket = -1.0, inf_bucket = -1.0, count = -1.0;
  bool cumulative = true;
  for (const auto& [name, value] : samples) {
    if (name.rfind("cirstag_serve_latency_ms_bucket{endpoint=\"load\"", 0) ==
        0) {
      if (name.find("le=\"+Inf\"") != std::string::npos) inf_bucket = value;
      if (value < last_bucket) cumulative = false;
      last_bucket = value;
    }
    if (name == "cirstag_serve_latency_ms_count{endpoint=\"load\"}")
      count = value;
  }
  EXPECT_TRUE(cumulative);
  ASSERT_GE(inf_bucket, 0.0);
  ASSERT_GE(count, 0.0);
  EXPECT_EQ(inf_bucket, count);

  // Summary contract: quantiles are ordered p50 <= p95 <= p99.
  double p50 = -1.0, p99 = -1.0;
  for (const auto& [name, value] : samples) {
    if (name == "cirstag_serve_window_latency_ms{endpoint=\"load\","
                "quantile=\"0.5\"}")
      p50 = value;
    if (name == "cirstag_serve_window_latency_ms{endpoint=\"load\","
                "quantile=\"0.99\"}")
      p99 = value;
  }
  ASSERT_GE(p50, 0.0);
  EXPECT_GE(p99, p50);
}

// ===========================================================================
// ServeLoopback — end-to-end over a real socket
// ===========================================================================

struct RunningServer {
  explicit RunningServer(ServerOptions options) : server(options) {
    std::string error;
    if (!server.start(error)) throw std::runtime_error(error);
    thread = std::thread([this] { server.serve_forever(); });
  }
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }
  Server server;
  std::thread thread;
};

ServerOptions loopback_options() {
  ServerOptions options;
  options.port = 0;  // kernel-assigned
  options.scheduler.workers = 1;
  return options;
}

void expect_bitwise_array(const std::vector<JsonValue>& parsed,
                          const std::vector<double>& expected,
                          const char* what) {
  ASSERT_EQ(parsed.size(), expected.size()) << what;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const double value = parsed[i].as_number();
    EXPECT_EQ(std::memcmp(&value, &expected[i], sizeof value), 0)
        << what << "[" << i << "] not bitwise-identical";
  }
}

TEST(ServeLoopback, SocketAnalyzeIsByteIdenticalToInProcess) {
  const std::string netlist = small_netlist_text(60, 42);
  const std::string load_body =
      "{\"name\": \"e2e\", \"netlist\": " + obs::json_quote(netlist) +
      ", \"epochs\": 12, \"hidden\": 8, \"mode\": \"exact\"}";
  const std::string analyze_body =
      "{\"circuit\": \"e2e\", \"cap_scalings\": "
      "[{\"pin\": 2, \"factor\": 4.0}]}";
  const std::string baseline_body =
      "{\"circuit\": \"e2e\", \"cap_scalings\": []}";

  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  const auto loaded = http_roundtrip(client, "POST", "/load", load_body);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->status, 200) << loaded->body;

  // Baseline path: the response renders a *stored* report (the resident
  // SweepEngine baseline, whose identity with CirStag::analyze is pinned by
  // the core sweep contract tests), so the socket answer must match an
  // in-process handle_request on the same Service byte for byte — every
  // %.17g double, every checksum, every timing.
  const auto socket_baseline =
      http_roundtrip(client, "POST", "/analyze", baseline_body);
  ASSERT_TRUE(socket_baseline.has_value());
  ASSERT_EQ(socket_baseline->status, 200) << socket_baseline->body;
  const JobResponse local_baseline = handle_request(
      running.server.service(),
      make_request("POST", "/analyze", baseline_body));
  ASSERT_EQ(local_baseline.status, 200) << local_baseline.body;
  EXPECT_EQ(socket_baseline->body, local_baseline.body);

  const core::CirStagReport& baseline =
      running.server.service().registry.lookup("e2e")->engine->baseline();
  const JsonValue baseline_doc = parse_json(socket_baseline->body);
  EXPECT_TRUE(baseline_doc.bool_or("baseline", false));
  const JsonValue* baseline_report = baseline_doc.find("report");
  ASSERT_NE(baseline_report, nullptr);
  expect_bitwise_array(baseline_report->find("node_scores")->as_array(),
                       baseline.node_scores, "baseline node_scores");
  expect_bitwise_array(baseline_report->find("edge_scores")->as_array(),
                       baseline.edge_scores, "baseline edge_scores");
  expect_bitwise_array(baseline_report->find("eigenvalues")->as_array(),
                       baseline.eigenvalues, "baseline eigenvalues");

  // Variant path: exact mode is deterministic, so the scores served over
  // the socket are bitwise-equal to a direct engine re-run of the variant
  // (timings differ run to run; the doubles must not).
  const auto socket_variant =
      http_roundtrip(client, "POST", "/analyze", analyze_body);
  ASSERT_TRUE(socket_variant.has_value());
  ASSERT_EQ(socket_variant->status, 200) << socket_variant->body;
  const auto record = running.server.service().registry.lookup("e2e");
  core::SweepVariant variant;
  variant.cap_scalings.push_back({2, 4.0});
  const std::vector<core::SweepVariant> variants{variant};
  std::vector<core::SweepVariantResult> direct;
  {
    std::lock_guard<std::mutex> lock(record->run_mutex);
    direct = record->engine->run(variants);
  }
  ASSERT_EQ(direct.size(), 1u);
  const JsonValue variant_doc = parse_json(socket_variant->body);
  EXPECT_FALSE(variant_doc.bool_or("baseline", true));
  const JsonValue* variant_report = variant_doc.find("report");
  ASSERT_NE(variant_report, nullptr);
  expect_bitwise_array(variant_report->find("node_scores")->as_array(),
                       direct[0].report.node_scores, "variant node_scores");
  expect_bitwise_array(variant_report->find("edge_scores")->as_array(),
                       direct[0].report.edge_scores, "variant edge_scores");
}

TEST(ServeLoopback, KeepAliveServesMultipleRequests) {
  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  for (int i = 0; i < 3; ++i) {
    const auto health = http_roundtrip(client, "GET", "/health", "");
    ASSERT_TRUE(health.has_value()) << "round " << i;
    EXPECT_EQ(health->status, 200);
  }
  const auto metrics = http_roundtrip(client, "GET", "/metrics", "");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  const auto ct = metrics->headers.find("content-type");
  ASSERT_NE(ct, metrics->headers.end());
  EXPECT_EQ(ct->second.rfind("text/plain", 0), 0u) << ct->second;
  EXPECT_NE(metrics->body.find("# TYPE "), std::string::npos);
  const auto stats = http_roundtrip(client, "GET", "/stats", "");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(parse_json(stats->body).find("counters"), nullptr);
}

TEST(ServeLoopback, EveryResponseCarriesATraceIdHeader) {
  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  std::string previous;
  for (int i = 0; i < 2; ++i) {
    const auto health = http_roundtrip(client, "GET", "/health", "");
    ASSERT_TRUE(health.has_value());
    const auto tid = health->headers.find("x-trace-id");
    ASSERT_NE(tid, health->headers.end());
    EXPECT_EQ(tid->second.size(), 16u);
    EXPECT_EQ(tid->second.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_NE(tid->second, previous) << "trace IDs must be per-request";
    previous = tid->second;
  }
  // Errors are traced too — a 404's ID resolves in the access log.
  const auto missing = http_roundtrip(client, "POST", "/nope", "{}");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->headers.find("x-trace-id"), missing->headers.end());
}

TEST(ServeLoopback, PipelinedKeepAliveRequestsAnswerInOrder) {
  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  // Two full requests in one write: the reader must frame them from its
  // buffered bytes without waiting for more input.
  const std::string pipelined =
      "GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
      "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}";
  ASSERT_TRUE(client.write_all(pipelined));
  std::string buf;
  char chunk[8192];
  // Both responses end with a JSON body; read until we have two statuses
  // and the second body's bytes.
  while (buf.find("\"error\"") == std::string::npos) {
    const long n = client.read_some(chunk, sizeof chunk);
    ASSERT_GT(n, 0) << "connection closed before both responses arrived";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t first = buf.find("HTTP/1.1 200 ");
  const std::size_t second = buf.find("HTTP/1.1 404 ");
  EXPECT_EQ(first, 0u) << buf.substr(0, 64);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second) << "pipelined responses out of order";
}

TEST(ServeLoopback, OversizedHeaderBlockGets431) {
  ServerOptions options = loopback_options();
  options.limits.max_header_bytes = 512;
  RunningServer running(options);
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  std::string request = "GET /health HTTP/1.1\r\nHost: t\r\n";
  request += "X-Padding: " + std::string(2048, 'a') + "\r\n\r\n";
  ASSERT_TRUE(client.write_all(request));
  std::string response;
  char chunk[4096];
  for (;;) {
    const long n = client.read_some(chunk, sizeof chunk);
    if (n <= 0) break;  // server closes after answering
    response.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 431 ", 0), 0u) << response.substr(0, 64);
}

TEST(ServeLoopback, SlowByteAtATimeHeadersStillParse) {
  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  const std::string request =
      "GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
  // Trickle the head one byte per write: the reader must accumulate across
  // short reads instead of treating a partial head as malformed.
  for (const char c : request)
    ASSERT_TRUE(client.write_all(std::string(1, c)));
  std::string buf;
  char chunk[4096];
  while (buf.find("\r\n\r\n") == std::string::npos) {
    const long n = client.read_some(chunk, sizeof chunk);
    ASSERT_GT(n, 0);
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(buf.rfind("HTTP/1.1 200 ", 0), 0u) << buf.substr(0, 64);
}

TEST(ServeLoopback, MalformedRequestGets400) {
  RunningServer running(loopback_options());
  TcpSocket client = tcp_connect(running.server.port());
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(client.write_all("THIS IS NOT HTTP\r\n\r\n"));
  std::string response;
  char chunk[4096];
  for (;;) {
    const long n = client.read_some(chunk, sizeof chunk);
    if (n <= 0) break;  // server closes after a protocol error
    response.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
}

TEST(ServeLoopback, GracefulStopDrainsAndClosesListener) {
  auto running = std::make_unique<RunningServer>(loopback_options());
  const std::uint16_t port = running->server.port();
  {
    TcpSocket client = tcp_connect(port);
    ASSERT_TRUE(client.valid());
    const auto health = http_roundtrip(client, "GET", "/health", "");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);
  }
  running.reset();  // request_stop + join: drain must complete
  // The listener is gone; new connections fail (or are reset immediately).
  TcpSocket late = tcp_connect(port);
  if (late.valid()) {
    const auto response = http_roundtrip(late, "GET", "/health", "");
    EXPECT_FALSE(response.has_value());
  }
}

}  // namespace
