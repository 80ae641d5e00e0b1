// bench_serve — load generator for the serving layer (src/serve).
//
// Three modes over one deterministic request mix (fixed RNG seed; per 8
// requests: 6 single-pin Case-A /analyze, one /top-k, one /score-region):
//
//   --mode inproc   (default) drives a Service directly — no sockets, one
//                   scheduler worker, wave submission through pause()/
//                   resume() — so every gated counter is a pure function of
//                   the request mix: requests_served, registry_hits, and
//                   batches_formed (= ceil(analyzes-per-wave / max-batch)
//                   summed over waves). This is the row CI pins tightly.
//   --mode socket   drives a running daemon (cirstag_cli serve) over
//                   HTTP/1.1 with open-loop arrivals: request i is sent at
//                   start + i * --arrival-us regardless of completions,
//                   across --connections keep-alive connections. Counters
//                   are read back from the daemon's /metrics endpoint;
//                   requests_served / registry_hits stay deterministic,
//                   batches_formed depends on arrival timing (gated only by
//                   its worst-case upper bound: one batch per analyze).
//   --mode speedup  the acceptance comparison: per-request wall clock of a
//                   warm resident registry (the mix submitted as one wave,
//                   so compatible analyzes coalesce into one engine batch)
//                   vs a cold stateless caller that re-pays parse + GNN
//                   training + baseline capture for every request. Both
//                   sides use the same engine mode (--engine-mode, default
//                   fast) so the ratio isolates resident state, and the
//                   cold side alternates perturbed analyzes with baseline
//                   queries — under-weighting the expensive variant path
//                   relative to the 6/8 warm mix, which keeps the reported
//                   speedup conservative. Emits wall_* fields and the
//                   warm_speedup ratio; --require-speedup X asserts it.
//   --mode snapshot cold /load vs binary-snapshot restore (DESIGN.md §13):
//                   one full cold load, write_snapshot of the resident
//                   record, then /load {"snapshot": ...} under a second
//                   name. Gated counters eigen_runs_restore /
//                   train_epochs_restore are the deltas across the restore
//                   and must be exactly 0; the cold/restore wall ratio is
//                   emitted as wall_restore_speedup and asserted by
//                   --require-speedup X. A /top-k cross-check proves the
//                   restored resident answers byte-identically.
//
// --perf-json writes a google-benchmark-shaped report (name + counters per
// row) that tools/check_bench_regression.py consumes; wall_* fields ride
// along ungated.
//
// Each mode names the options it reads (modes() below); any other option
// exits 2 and names itself before any work starts, as cirstag_cli does.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "core/query.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "io/snapshot.hpp"
#include "linalg/rng.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "obs/window.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/socket.hpp"

namespace {

using namespace cirstag;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- tiny option parser (same "--key value" convention as cirstag_cli) ------

std::map<std::string, std::string> parse_options(int argc, char** argv) {
  std::map<std::string, std::string> opts;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bench_serve: bad option '%s'\n", argv[i]);
      std::exit(2);
    }
    opts[argv[i] + 2] = argv[i + 1];
  }
  return opts;
}

std::size_t opt_size(const std::map<std::string, std::string>& o,
                     const std::string& k, std::size_t fallback) {
  const auto it = o.find(k);
  return it == o.end() ? fallback : std::stoull(it->second);
}

double opt_double(const std::map<std::string, std::string>& o,
                  const std::string& k, double fallback) {
  const auto it = o.find(k);
  return it == o.end() ? fallback : std::stod(it->second);
}

std::string opt_str(const std::map<std::string, std::string>& o,
                    const std::string& k, const std::string& fallback) {
  const auto it = o.find(k);
  return it == o.end() ? fallback : it->second;
}

// -- report emission --------------------------------------------------------

struct BenchRow {
  std::string name;
  double real_time_ms = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Set when an output file could not be written; main() then exits 1.
bool g_write_failed = false;

/// Write one requested output file through obs::write_text. A failure names
/// the path and fails the run, but never stops the remaining outputs.
bool write_output(const std::string& path, const std::string& text) {
  if (obs::write_text(path, text)) return true;
  std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
  g_write_failed = true;
  return false;
}

void write_report(const std::string& path, const std::vector<BenchRow>& rows,
                  std::uint64_t seed) {
  obs::JsonWriter w;
  w.begin_object().key("context").begin_object();
  w.field("executable", "bench_serve").field("seed", seed).end_object();
  w.key("benchmarks").begin_array();
  for (const BenchRow& row : rows) {
    w.begin_object()
        .field("name", row.name)
        .field("run_type", "iteration")
        .field("iterations", 1)
        .field("time_unit", "ms")
        .field("real_time", row.real_time_ms);
    for (const auto& [key, value] : row.counters) w.field(key, value);
    w.end_object();
  }
  if (write_output(path, w.end_array().end_object().take() + '\n'))
    std::printf("report written to %s\n", path.c_str());
}

// -- per-request latency timeline (--latency-csv) ---------------------------

struct LatencyRow {
  std::size_t index = 0;
  std::string endpoint;
  double enqueued_offset_us = 0.0;  ///< since the load phase started
  double latency_us = 0.0;
  int status = 0;
  std::string trace_id;
};

void write_latency_csv(const std::string& path,
                       const std::vector<LatencyRow>& rows) {
  std::string csv =
      "index,endpoint,enqueued_offset_us,latency_us,status,trace_id\n";
  for (const LatencyRow& r : rows) {
    char timing[64];
    std::snprintf(timing, sizeof timing, ",%.1f,%.1f,%d,",
                  r.enqueued_offset_us, r.latency_us, r.status);
    csv += std::to_string(r.index) + ',' + r.endpoint + timing + r.trace_id +
           '\n';
  }
  if (write_output(path, csv))
    std::printf("latency timeline written to %s (%zu rows)\n", path.c_str(),
                rows.size());
}

/// Nearest-rank percentile over the observed latencies (ms). Returns 0 when
/// empty — these ride in the report as informational wall_* fields only.
double percentile_ms(std::vector<double> latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_us.size() - 1) + 0.5);
  return latencies_us[std::min(rank, latencies_us.size() - 1)] / 1e3;
}

void append_window_quantiles(BenchRow& row,
                             const std::vector<LatencyRow>& latencies) {
  std::vector<double> us;
  us.reserve(latencies.size());
  for (const LatencyRow& r : latencies) us.push_back(r.latency_us);
  row.counters.emplace_back("wall_window_p50_ms", percentile_ms(us, 0.50));
  row.counters.emplace_back("wall_window_p95_ms", percentile_ms(us, 0.95));
  row.counters.emplace_back("wall_window_p99_ms", percentile_ms(us, 0.99));
}

/// Arm the process-wide access-log / slow-exemplar sinks from the bench
/// flags (inproc modes; socket mode arms them on the daemon side instead).
void arm_request_log(const std::map<std::string, std::string>& opts) {
  auto& rlog = cirstag::obs::RequestLog::global();
  rlog.set_access_log_path(opt_str(opts, "access-log", ""));
  rlog.set_exemplar_path(opt_str(opts, "slow-trace", ""));
  rlog.set_slow_threshold_us(opt_double(opts, "slow-us", -1.0));
}

/// Validate a /metrics scrape: must be text exposition (TYPE lines) and must
/// already carry the rolling-window latency summary while traffic is in
/// flight. Optionally saved to --metrics-out for offline conformance checks.
void check_exposition_scrape(const std::string& text,
                             const std::string& metrics_out) {
  if (text.find("# TYPE ") == std::string::npos ||
      text.find("cirstag_serve_window_latency_ms") == std::string::npos) {
    std::fprintf(stderr,
                 "bench_serve: /metrics scrape is not valid exposition or "
                 "lacks windowed latency:\n%.512s\n",
                 text.c_str());
    std::exit(1);
  }
  if (!metrics_out.empty()) write_output(metrics_out, text);
}

/// Sum of the rolling-window per-endpoint latency histogram counts — the
/// gated windowed row. Deterministic because the run is far shorter than the
/// window: every scheduler-completed request is still in-window at readout.
double window_requests_total() {
  double total = 0.0;
  for (const auto& entry :
       cirstag::obs::WindowedRegistry::global().histogram_snapshots()) {
    if (entry.name.rfind("serve.window.latency_ms.", 0) == 0)
      total += static_cast<double>(entry.snap.count);
  }
  return total;
}

// -- deterministic workload -------------------------------------------------

std::string netlist_text(std::size_t gates, std::uint64_t seed) {
  circuit::RandomCircuitSpec spec;
  spec.name = "bench_serve";
  spec.num_gates = gates;
  spec.num_inputs = std::max<std::size_t>(16, gates / 40);
  spec.num_outputs = std::max<std::size_t>(8, gates / 80);
  spec.seed = seed;
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  const circuit::Netlist nl = circuit::generate_random_logic(lib, spec);
  std::ostringstream out;
  circuit::write_netlist(out, nl);
  return out.str();
}

/// The /load body every in-process mode sends: `netlist` as circuit
/// "bench", hidden width 16.
std::string load_body(const std::string& netlist, std::size_t epochs,
                      bool exact) {
  return obs::JsonWriter()
      .begin_object()
      .field("name", "bench")
      .field("netlist", netlist)
      .field("epochs", epochs)
      .field("hidden", 16)
      .field("mode", exact ? "exact" : "fast")
      .end_object()
      .take();
}

struct RequestSpec {
  std::string path;
  std::string body;
};

/// The fixed request mix: per 8 requests, 6 batchable single-pin analyzes,
/// one top-k, one score-region. Identical across modes (same RNG draws).
std::vector<RequestSpec> make_mix(const std::string& circuit,
                                  std::size_t requests, std::size_t num_pins,
                                  std::uint64_t seed) {
  std::vector<RequestSpec> mix;
  mix.reserve(requests);
  linalg::Rng rng(seed + 1000);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t kind = i % 8;
    obs::JsonWriter w;
    w.begin_object().field("circuit", circuit);
    if (kind <= 5) {
      w.key("cap_scalings")
          .begin_array()
          .begin_object()
          .field("pin", rng.index(num_pins))
          .field("factor", 5.0)
          .end_object()
          .end_array();
    } else if (kind == 6) {
      w.field("k", 10);
    } else {
      w.key("nodes").begin_array();
      for (std::size_t n = 0; n < 8; ++n) w.value(rng.index(num_pins));
      w.end_array();
    }
    const char* path =
        kind <= 5 ? "/analyze" : kind == 6 ? "/top-k" : "/score-region";
    mix.push_back({path, w.end_object().take()});
  }
  return mix;
}

serve::HttpRequest make_request(const std::string& path,
                                const std::string& body) {
  serve::HttpRequest req;
  req.method = "POST";
  req.path = path;
  req.body = body;
  return req;
}

[[noreturn]] void die(const std::string& what, int status,
                      const std::string& body) {
  std::fprintf(stderr, "bench_serve: %s failed (HTTP %d): %s\n", what.c_str(),
               status, body.c_str());
  std::exit(1);
}

double counter(const std::string& name) {
  return static_cast<double>(
      obs::MetricsRegistry::global().counter_value(name));
}

// -- inproc mode ------------------------------------------------------------

int run_inproc(const std::map<std::string, std::string>& opts,
               std::vector<BenchRow>& rows) {
  const std::size_t gates = opt_size(opts, "gates", 300);
  const std::size_t requests = opt_size(opts, "requests", 48);
  const std::size_t wave = opt_size(opts, "wave", 16);
  const std::uint64_t seed = opt_size(opts, "seed", 1);

  serve::Scheduler::Options sopts;
  sopts.workers = 1;  // single worker => deterministic batch formation
  sopts.max_batch_size = opt_size(opts, "max-batch", 8);
  sopts.queue_capacity = std::max<std::size_t>(wave + 1, 256);
  serve::Service service(sopts);
  arm_request_log(opts);

  std::printf("inproc: loading %zu-gate circuit...\n", gates);
  const serve::JobResponse loaded = serve::handle_request(
      service,
      make_request("/load", load_body(netlist_text(gates, seed),
                                      opt_size(opts, "epochs", 60), true)));
  if (loaded.status != 200) die("/load", loaded.status, loaded.body);
  const serve::JsonValue load_info = serve::parse_json(loaded.body);
  const auto num_pins =
      static_cast<std::size_t>(load_info.number_or("pins", 0));

  const std::vector<RequestSpec> mix =
      make_mix("bench", requests, num_pins, seed);
  std::printf("inproc: %zu requests in waves of %zu (max batch %zu)...\n",
              requests, wave, sopts.max_batch_size);
  std::vector<LatencyRow> timeline;
  timeline.reserve(mix.size());
  bool scraped_midrun = false;
  const auto t0 = Clock::now();
  const double run_start_us = obs::process_now_us();
  for (std::size_t start = 0; start < mix.size(); start += wave) {
    // Wave submission: with the worker paused, batch formation depends only
    // on queue content — ceil(analyzes / max_batch) batches per wave.
    service.scheduler.pause();
    std::vector<std::future<serve::JobResponse>> futures;
    std::vector<std::shared_ptr<obs::RequestContext>> traces;
    const std::size_t end = std::min(mix.size(), start + wave);
    for (std::size_t i = start; i < end; ++i) {
      serve::Dispatch d = serve::dispatch_request(
          service, make_request(mix[i].path, mix[i].body));
      if (d.immediate) die(mix[i].path, d.response.status, d.response.body);
      futures.push_back(std::move(d.future));
      traces.push_back(std::move(d.trace));
    }
    service.scheduler.resume();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::JobResponse response = futures[i].get();
      if (response.status != 200)
        die(mix[start + i].path, response.status, response.body);
      // Server-side timing from the finished trace: what the access log and
      // the windowed histograms saw, not the client's observation skew.
      const obs::RequestContext& trace = *traces[i];
      timeline.push_back({start + i, trace.endpoint(),
                          trace.start_us() - run_start_us, trace.total_us(),
                          trace.status(), trace.id_hex()});
    }
    if (!scraped_midrun) {
      // Mid-run scrape: telemetry must be servable *while* traffic is in
      // flight (later waves are still unsubmitted), and the windowed
      // summary must already cover the first wave.
      scraped_midrun = true;
      const serve::JobResponse metrics = serve::handle_request(
          service, [] {
            serve::HttpRequest r;
            r.method = "GET";
            r.path = "/metrics";
            return r;
          }());
      if (metrics.status != 200) die("/metrics", metrics.status, metrics.body);
      check_exposition_scrape(metrics.body, opt_str(opts, "metrics-out", ""));
      const serve::JobResponse stats = serve::handle_request(
          service, [] {
            serve::HttpRequest r;
            r.method = "GET";
            r.path = "/stats";
            return r;
          }());
      if (stats.status != 200) die("/stats", stats.status, stats.body);
      const serve::JsonValue stats_doc = serve::parse_json(stats.body);
      if (stats_doc.find("window") == nullptr)
        die("/stats", 500, "no 'window' object in " + stats.body);
    }
  }
  const double wall = seconds_since(t0);
  service.scheduler.stop();

  BenchRow row;
  row.name = "BM_ServeInproc/" + std::to_string(gates) + "/" +
             std::to_string(requests);
  row.real_time_ms = wall * 1e3;
  row.counters = {
      {"requests_served", counter("serve.requests_served")},
      {"batches_formed", counter("serve.scheduler.batches_formed")},
      {"batched_requests", counter("serve.scheduler.batched_requests")},
      {"registry_hits", counter("serve.registry.hits")},
      {"registry_misses", counter("serve.registry.misses")},
      {"rejected_429", counter("serve.rejected_429")},
      {"expired_504", counter("serve.expired_504")},
      {"window_requests", window_requests_total()},
      {"wall_total_seconds", wall},
      {"wall_per_request_seconds", wall / static_cast<double>(requests)},
      {"wall_ms", wall * 1e3},
  };
  append_window_quantiles(row, timeline);
  rows.push_back(row);
  const std::string latency_csv = opt_str(opts, "latency-csv", "");
  if (!latency_csv.empty()) write_latency_csv(latency_csv, timeline);
  std::printf("inproc: served %.0f requests, %.0f batches, %.0f registry "
              "hits in %.2fs\n",
              row.counters[0].second, row.counters[1].second,
              row.counters[3].second, wall);
  return 0;
}

// -- socket mode ------------------------------------------------------------

serve::HttpResponse roundtrip_or_die(const serve::TcpSocket& socket,
                                     const std::string& method,
                                     const std::string& path,
                                     const std::string& body) {
  const auto response = serve::http_roundtrip(socket, method, path, body);
  if (!response.has_value()) {
    std::fprintf(stderr, "bench_serve: transport failure on %s\n",
                 path.c_str());
    std::exit(1);
  }
  return *response;
}

double metrics_counter(const serve::JsonValue& metrics,
                       const std::string& name) {
  const serve::JsonValue* counters = metrics.find("counters");
  if (counters == nullptr || !counters->is_object()) return 0.0;
  return counters->number_or(name, 0.0);
}

int run_socket(const std::map<std::string, std::string>& opts,
               std::vector<BenchRow>& rows) {
  const auto port =
      static_cast<std::uint16_t>(opt_size(opts, "port", 8437));
  const std::size_t requests = opt_size(opts, "requests", 48);
  const std::size_t connections = opt_size(opts, "connections", 4);
  const std::uint64_t seed = opt_size(opts, "seed", 1);
  const auto arrival_us =
      static_cast<long>(opt_size(opts, "arrival-us", 2000));
  const std::string circuit = opt_str(opts, "circuit", "preload");

  serve::TcpSocket probe = serve::tcp_connect(port);
  if (!probe.valid()) {
    std::fprintf(stderr, "bench_serve: cannot connect to 127.0.0.1:%u\n",
                 static_cast<unsigned>(port));
    return 1;
  }
  const serve::HttpResponse health =
      roundtrip_or_die(probe, "GET", "/health", "");
  if (health.status != 200) die("/health", health.status, health.body);
  const serve::JsonValue health_doc = serve::parse_json(health.body);
  std::size_t num_pins = 0, circuit_gates = 0;
  if (const serve::JsonValue* circuits = health_doc.find("circuits")) {
    for (const serve::JsonValue& info : circuits->as_array()) {
      if (info.string_or("name", "") == circuit) {
        num_pins = static_cast<std::size_t>(info.number_or("pins", 0));
        circuit_gates = static_cast<std::size_t>(info.number_or("gates", 0));
      }
    }
  }
  if (num_pins == 0) {
    std::fprintf(stderr,
                 "bench_serve: circuit '%s' is not loaded on the daemon "
                 "(start it with --preload, or /load it first)\n",
                 circuit.c_str());
    return 1;
  }

  const std::vector<RequestSpec> mix =
      make_mix(circuit, requests, num_pins, seed);
  std::printf("socket: %zu requests over %zu connections, one every %ldus "
              "(open loop)...\n",
              requests, connections, arrival_us);

  // Open-loop arrival: request i is due at start + i*gap, whether or not
  // earlier requests finished. Each connection owns the requests with
  // i % connections == its index, so per-connection order is stable (and
  // each timeline slot is written by exactly one worker — no locking).
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> workers;
  std::vector<int> failures(connections, 0);
  std::vector<LatencyRow> timeline(mix.size());
  for (std::size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      serve::TcpSocket socket = serve::tcp_connect(port);
      if (!socket.valid()) {
        failures[c] = -1;
        return;
      }
      for (std::size_t i = c; i < mix.size(); i += connections) {
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(arrival_us *
                                              static_cast<long>(i)));
        const auto sent = Clock::now();
        const auto response = serve::http_roundtrip(socket, "POST",
                                                    mix[i].path, mix[i].body);
        if (!response.has_value() || response->status != 200) ++failures[c];
        LatencyRow& row = timeline[i];
        row.index = i;
        row.endpoint = mix[i].path.substr(1);
        row.enqueued_offset_us = std::chrono::duration<double, std::micro>(
                                     sent - start).count();
        row.latency_us = std::chrono::duration<double, std::micro>(
                             Clock::now() - sent).count();
        if (response.has_value()) {
          row.status = response->status;
          const auto tid = response->headers.find("x-trace-id");
          if (tid != response->headers.end()) row.trace_id = tid->second;
        }
      }
    });
  }

  // Mid-run scrape from a separate connection while the workers are still
  // driving load: the daemon must serve exposition under traffic. (The
  // windowed families appear with the first *completed* request, which the
  // open loop cannot guarantee by mid-run, so those are asserted on the
  // final scrape below.)
  std::this_thread::sleep_until(
      start + std::chrono::microseconds(arrival_us *
                                        static_cast<long>(requests / 2)));
  const serve::HttpResponse midrun =
      roundtrip_or_die(probe, "GET", "/metrics", "");
  if (midrun.status != 200) die("/metrics", midrun.status, midrun.body);
  if (midrun.body.find("# TYPE ") == std::string::npos)
    die("/metrics", 500, "mid-run scrape is not text exposition");

  for (std::thread& t : workers) t.join();
  const double wall = seconds_since(start);
  const serve::HttpResponse final_scrape =
      roundtrip_or_die(probe, "GET", "/metrics", "");
  if (final_scrape.status != 200)
    die("/metrics", final_scrape.status, final_scrape.body);
  check_exposition_scrape(final_scrape.body, opt_str(opts, "metrics-out", ""));
  int failed = 0;
  for (const int f : failures) {
    if (f < 0) {
      std::fprintf(stderr, "bench_serve: a connection could not be opened\n");
      return 1;
    }
    failed += f;
  }
  if (failed != 0) {
    std::fprintf(stderr, "bench_serve: %d request(s) failed\n", failed);
    return 1;
  }

  // Counter readback moved from /metrics (now text exposition) to /stats,
  // its JSON twin; the windowed row sums the per-endpoint in-window counts.
  const serve::HttpResponse stats =
      roundtrip_or_die(probe, "GET", "/stats", "");
  if (stats.status != 200) die("/stats", stats.status, stats.body);
  const serve::JsonValue stats_doc = serve::parse_json(stats.body);
  double window_requests = 0.0;
  if (const serve::JsonValue* window = stats_doc.find("window")) {
    if (const serve::JsonValue* endpoints = window->find("endpoints")) {
      for (const auto& [endpoint, entry] : endpoints->members()) {
        (void)endpoint;
        window_requests += entry.number_or("count", 0.0);
      }
    }
  }

  BenchRow row;
  row.name = "BM_ServeSocket/" + std::to_string(circuit_gates) + "/" +
             std::to_string(requests);
  row.real_time_ms = wall * 1e3;
  row.counters = {
      {"requests_served", metrics_counter(stats_doc,
                                          "serve.requests_served")},
      {"batches_formed",
       metrics_counter(stats_doc, "serve.scheduler.batches_formed")},
      {"registry_hits", metrics_counter(stats_doc, "serve.registry.hits")},
      {"registry_misses",
       metrics_counter(stats_doc, "serve.registry.misses")},
      {"rejected_429", metrics_counter(stats_doc, "serve.rejected_429")},
      {"expired_504", metrics_counter(stats_doc, "serve.expired_504")},
      {"window_requests", window_requests},
      {"wall_total_seconds", wall},
      {"wall_per_request_seconds", wall / static_cast<double>(requests)},
      {"wall_ms", wall * 1e3},
  };
  append_window_quantiles(row, timeline);
  rows.push_back(row);
  const std::string latency_csv = opt_str(opts, "latency-csv", "");
  if (!latency_csv.empty()) write_latency_csv(latency_csv, timeline);
  std::printf("socket: daemon served %.0f requests (%.0f batches, %.0f "
              "registry hits) in %.2fs\n",
              row.counters[0].second, row.counters[1].second,
              row.counters[2].second, wall);
  return 0;
}

// -- speedup mode -----------------------------------------------------------

int run_speedup(const std::map<std::string, std::string>& opts,
                std::vector<BenchRow>& rows) {
  const std::size_t gates = opt_size(opts, "gates", 1500);
  const std::size_t warm_requests = opt_size(opts, "warm-requests", 8);
  const std::size_t cold_requests = opt_size(opts, "cold-requests", 2);
  const std::size_t epochs = opt_size(opts, "epochs", 120);
  const std::uint64_t seed = opt_size(opts, "seed", 1);
  const double required = opt_double(opts, "require-speedup", 0.0);
  const bool engine_exact = opt_str(opts, "engine-mode", "fast") == "exact";

  const std::string text = netlist_text(gates, seed);
  std::printf("speedup: %zu gates, %zu warm vs %zu cold requests...\n",
              gates, warm_requests, cold_requests);

  serve::Scheduler::Options sopts;
  sopts.workers = 1;
  sopts.max_batch_size = std::max<std::size_t>(1, warm_requests);
  serve::Service service(sopts);
  const std::string body = load_body(text, epochs, engine_exact);
  const auto t_load = Clock::now();
  const serve::JobResponse loaded =
      serve::handle_request(service, make_request("/load", body));
  if (loaded.status != 200) die("/load", loaded.status, loaded.body);
  const double load_seconds = seconds_since(t_load);
  const auto num_pins = static_cast<std::size_t>(
      serve::parse_json(loaded.body).number_or("pins", 0));

  // Warm: the resident engine answers the requests as the daemon would
  // under concurrent load — submitted together so the scheduler coalesces
  // the compatible analyzes into one batched engine run (queries ride along
  // as immediate const reads of the resident baseline).
  const std::vector<RequestSpec> mix =
      make_mix("bench", warm_requests, num_pins, seed);
  const auto t_warm = Clock::now();
  service.scheduler.pause();
  std::vector<std::future<serve::JobResponse>> futures;
  futures.reserve(mix.size());
  for (const RequestSpec& request : mix) {
    serve::Dispatch d = serve::dispatch_request(
        service, make_request(request.path, request.body));
    if (d.immediate) die(request.path, d.response.status, d.response.body);
    futures.push_back(std::move(d.future));
  }
  service.scheduler.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::JobResponse response = futures[i].get();
    if (response.status != 200)
      die(mix[i].path, response.status, response.body);
  }
  const double warm_seconds = seconds_since(t_warm);
  service.scheduler.stop();

  // Cold: what a stateless caller pays per request — parse the netlist,
  // train the surrogate, capture the baseline, then answer the request.
  // Even iterations analyze one perturbed variant, odd iterations answer a
  // baseline query (top-k), mirroring the warm mix's two request classes.
  linalg::Rng rng(seed + 2000);
  const auto t_cold = Clock::now();
  for (std::size_t i = 0; i < cold_requests; ++i) {
    std::istringstream in(text);
    static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
    const circuit::Netlist nl = circuit::read_netlist(in, lib);
    gnn::TimingGnnOptions gopts;
    gopts.epochs = epochs;
    gopts.hidden_dim = 16;
    gnn::TimingGnn model(nl, gopts);
    (void)model.train();
    core::SweepOptions cold_sopts;
    cold_sopts.exact = engine_exact;
    core::SweepEngine engine(nl, model, cold_sopts);
    if (i % 2 == 0) {
      core::SweepVariant variant;
      variant.cap_scalings.push_back(
          {static_cast<circuit::PinId>(rng.index(nl.num_pins())), 5.0});
      const std::vector<core::SweepVariant> variants{variant};
      const auto results = engine.run(variants);
      if (results.size() != 1) die("cold analyze", 500, "no result");
    } else {
      const auto top = core::top_k_nodes(engine.baseline(), 10);
      if (top.empty()) die("cold top-k", 500, "no result");
    }
  }
  const double cold_seconds = seconds_since(t_cold);

  const double warm_avg = warm_seconds / static_cast<double>(warm_requests);
  const double cold_avg = cold_seconds / static_cast<double>(cold_requests);
  const double speedup = warm_avg > 0 ? cold_avg / warm_avg : 0.0;

  BenchRow row;
  row.name = "BM_ServeSpeedup/" + std::to_string(gates);
  row.real_time_ms = (warm_seconds + cold_seconds) * 1e3;
  row.counters = {
      {"warm_speedup", speedup},
      {"wall_load_seconds", load_seconds},
      {"wall_warm_request_seconds", warm_avg},
      {"wall_cold_request_seconds", cold_avg},
  };
  rows.push_back(row);
  std::printf("speedup: load %.2fs once; warm %.3fs/request vs cold "
              "%.2fs/request => %.1fx\n",
              load_seconds, warm_avg, cold_avg, speedup);
  if (required > 0.0 && speedup < required) {
    std::fprintf(stderr,
                 "bench_serve: warm speedup %.1fx below required %.1fx\n",
                 speedup, required);
    return 1;
  }
  return 0;
}

// -- snapshot mode ----------------------------------------------------------

/// Cold-vs-restore acceptance row (DESIGN.md §13): pay one full cold /load
/// (parse + GNN training + baseline eigensolves), write the resident record
/// to a binary snapshot, then restore it under a second name via
/// /load {"snapshot": ...}. The gated proof is in the counters —
/// eigen_runs_restore and train_epochs_restore are the *deltas across the
/// restore* and must be exactly 0 (the BENCH_baseline rows pin them with the
/// exact-zero gate) — while the wall-clock advantage rides along as wall_*
/// fields and is optionally asserted with --require-speedup X. A /top-k
/// cross-check proves the restored circuit answers byte-identically to the
/// cold-loaded one. snapshot_bytes is the written file's size (the
/// snapshot.bytes gauge), pinned so a redundant array cannot creep back.
int run_snapshot(const std::map<std::string, std::string>& opts,
                 std::vector<BenchRow>& rows) {
  const std::size_t gates = opt_size(opts, "gates", 1500);
  const std::size_t epochs = opt_size(opts, "epochs", 120);
  const std::uint64_t seed = opt_size(opts, "seed", 1);
  const double required = opt_double(opts, "require-speedup", 0.0);
  const std::string snap_path =
      opt_str(opts, "snapshot-path", "bench_serve_snapshot.bin");
  const bool engine_exact = opt_str(opts, "engine-mode", "fast") == "exact";

  serve::Scheduler::Options sopts;
  sopts.workers = 1;
  serve::Service service(sopts);

  const std::string text = netlist_text(gates, seed);
  std::printf("snapshot: cold /load of %zu gates (%s mode)...\n", gates,
              engine_exact ? "exact" : "fast");
  const std::string cold_body = load_body(text, epochs, engine_exact);
  const auto t_cold = Clock::now();
  const serve::JobResponse loaded =
      serve::handle_request(service, make_request("/load", cold_body));
  if (loaded.status != 200) die("/load", loaded.status, loaded.body);
  const double cold_seconds = seconds_since(t_cold);

  const std::shared_ptr<serve::CircuitRecord> record =
      service.registry.lookup("bench");
  if (record == nullptr) die("lookup", 500, "'bench' not resident");
  io::SnapshotMeta meta;
  meta.exact = record->options.exact;
  meta.train_r2 = record->train_r2;
  const auto t_write = Clock::now();
  io::write_snapshot(snap_path, *record->model, *record->engine, meta);
  const double write_seconds = seconds_since(t_write);
  const double snapshot_bytes =
      obs::MetricsRegistry::global().gauge_value("snapshot.bytes");
  std::printf("snapshot: wrote %s (%.0f bytes) in %.2fs\n", snap_path.c_str(),
              snapshot_bytes, write_seconds);

  // The restore must re-solve and re-train nothing: snapshot the global
  // counters around it and gate the deltas at exactly zero.
  const double eigen_before = counter("eigen.runs");
  const double train_before = counter("gnn.train_epochs");
  const std::string restore_body = obs::JsonWriter()
                                       .begin_object()
                                       .field("name", "restored")
                                       .field("snapshot", snap_path)
                                       .end_object()
                                       .take();
  const auto t_restore = Clock::now();
  const serve::JobResponse restored =
      serve::handle_request(service, make_request("/load", restore_body));
  if (restored.status != 200) die("/load snapshot", restored.status,
                                  restored.body);
  const double restore_seconds = seconds_since(t_restore);
  const double eigen_delta = counter("eigen.runs") - eigen_before;
  const double train_delta = counter("gnn.train_epochs") - train_before;

  // Cross-check: both residents must give byte-identical /top-k answers
  // (the bodies differ only in the echoed circuit name).
  const auto top_k_nodes_json = [&](const char* name) {
    const std::string body = obs::JsonWriter()
                                 .begin_object()
                                 .field("circuit", name)
                                 .field("k", 10)
                                 .end_object()
                                 .take();
    const serve::JobResponse response =
        serve::handle_request(service, make_request("/top-k", body));
    if (response.status != 200) die("/top-k", response.status, response.body);
    const std::size_t at = response.body.find("\"nodes\"");
    if (at == std::string::npos) die("/top-k", 500, "no 'nodes' in body");
    return response.body.substr(at);
  };
  if (top_k_nodes_json("bench") != top_k_nodes_json("restored"))
    die("/top-k cross-check", 500,
        "restored circuit disagrees with the cold-loaded one");

  const double speedup =
      restore_seconds > 0.0 ? cold_seconds / restore_seconds : 0.0;
  BenchRow row;
  row.name = "BM_SnapshotRestore/" + std::to_string(gates);
  row.real_time_ms = restore_seconds * 1e3;
  row.counters = {
      {"eigen_runs_restore", eigen_delta},
      {"train_epochs_restore", train_delta},
      {"snapshot_reads", counter("snapshot.reads")},
      {"registry_snapshot_loads", counter("serve.registry.snapshot_loads")},
      {"snapshot_bytes", snapshot_bytes},
      {"wall_cold_load_seconds", cold_seconds},
      {"wall_snapshot_write_seconds", write_seconds},
      {"wall_restore_seconds", restore_seconds},
      {"wall_restore_speedup", speedup},
      {"wall_ms", restore_seconds * 1e3},
  };
  rows.push_back(row);
  std::printf("snapshot: cold load %.2fs vs restore %.3fs => %.1fx "
              "(restore ran %.0f eigensolves, %.0f training epochs)\n",
              cold_seconds, restore_seconds, speedup, eigen_delta,
              train_delta);
  if (eigen_delta != 0.0 || train_delta != 0.0) {
    std::fprintf(stderr,
                 "bench_serve: snapshot restore ran %.0f eigensolver runs "
                 "and %.0f training epochs — the warm path is broken\n",
                 eigen_delta, train_delta);
    return 1;
  }
  if (required > 0.0 && speedup < required) {
    std::fprintf(stderr,
                 "bench_serve: restore speedup %.1fx below required %.1fx\n",
                 speedup, required);
    return 1;
  }
  return 0;
}

// -- region mode ------------------------------------------------------------

/// Localized-query acceptance row: load once, then answer R cone-expanded
/// /score-region requests. The gated proof is in the counters — eigen_runs
/// stays at its load-time value (no full-chip solve per query) while every
/// request takes the cone path.
int run_region(const std::map<std::string, std::string>& opts,
               std::vector<BenchRow>& rows) {
  const std::size_t gates = opt_size(opts, "gates", 300);
  const std::size_t requests = opt_size(opts, "requests", 32);
  const std::size_t hops = opt_size(opts, "hops", 2);
  const std::uint64_t seed = opt_size(opts, "seed", 1);

  serve::Scheduler::Options sopts;
  sopts.workers = 1;
  serve::Service service(sopts);

  std::printf("region: loading %zu-gate circuit...\n", gates);
  const serve::JobResponse loaded = serve::handle_request(
      service,
      make_request("/load", load_body(netlist_text(gates, seed),
                                      opt_size(opts, "epochs", 60), true)));
  if (loaded.status != 200) die("/load", loaded.status, loaded.body);
  const serve::JsonValue load_info = serve::parse_json(loaded.body);
  const auto num_pins =
      static_cast<std::size_t>(load_info.number_or("pins", 0));
  const double eigen_runs_at_load = counter("eigen.runs");

  std::printf("region: %zu cone queries (%zu hops)...\n", requests, hops);
  linalg::Rng rng(seed + 2000);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    obs::JsonWriter w;
    w.begin_object()
        .field("circuit", "bench")
        .field("hops", hops)
        .key("nodes")
        .begin_array()
        .value(rng.index(num_pins))
        .end_array();
    const std::string body = w.end_object().take();
    const serve::JobResponse response =
        serve::handle_request(service, make_request("/score-region", body));
    if (response.status != 200)
      die("/score-region", response.status, response.body);
  }
  const double wall = seconds_since(t0);
  service.scheduler.stop();

  const double eigen_runs = counter("eigen.runs");
  BenchRow row;
  row.name = "BM_ServeRegion/" + std::to_string(gates) + "/" +
             std::to_string(requests);
  row.real_time_ms = wall * 1e3;
  row.counters = {
      {"requests_served", counter("serve.requests_served")},
      {"region_cone_requests", counter("serve.region_cone_requests")},
      {"eigen_runs", eigen_runs},
      {"registry_hits", counter("serve.registry.hits")},
      {"wall_total_seconds", wall},
      {"wall_per_request_seconds", wall / static_cast<double>(requests)},
      {"wall_ms", wall * 1e3},
  };
  rows.push_back(row);
  std::printf("region: %zu queries in %.3fs (%.2f ms each); eigen runs "
              "%.0f -> %.0f (no per-query solves)\n",
              requests, wall, wall * 1e3 / static_cast<double>(requests),
              eigen_runs_at_load, eigen_runs);
  if (eigen_runs != eigen_runs_at_load) {
    std::fprintf(stderr,
                 "bench_serve: region queries triggered %.0f eigensolver "
                 "runs — localized path is broken\n",
                 eigen_runs - eigen_runs_at_load);
    return 1;
  }
  return 0;
}

/// One --mode: its entry point and the keys it reads besides `mode`,
/// `seed` and `perf-json`, which main() reads for every mode.
struct Mode {
  std::string_view name;
  int (*run)(const std::map<std::string, std::string>&,
             std::vector<BenchRow>&);
  std::vector<std::string_view> keys;
};

const std::vector<Mode>& modes() {
  static const std::vector<Mode> all = {
      {"inproc",
       run_inproc,
       {"gates", "requests", "wave", "max-batch", "epochs", "access-log",
        "slow-trace", "slow-us", "metrics-out", "latency-csv"}},
      {"socket",
       run_socket,
       {"port", "requests", "connections", "arrival-us", "circuit",
        "metrics-out", "latency-csv"}},
      {"speedup",
       run_speedup,
       {"gates", "warm-requests", "cold-requests", "epochs",
        "require-speedup", "engine-mode"}},
      {"snapshot",
       run_snapshot,
       {"gates", "epochs", "require-speedup", "snapshot-path",
        "engine-mode"}},
      {"region", run_region, {"gates", "requests", "hops", "epochs"}},
  };
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_options(argc, argv);
  const std::string mode = opt_str(opts, "mode", "inproc");
  const auto it = std::find_if(modes().begin(), modes().end(),
                               [&](const Mode& m) { return m.name == mode; });
  if (it == modes().end()) {
    std::fprintf(stderr, "bench_serve: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  // A key the mode does not read is a usage error before any work starts,
  // so a misspelt or retired flag cannot run silently with defaults.
  for (const auto& [key, value] : opts) {
    if (key == "mode" || key == "seed" || key == "perf-json" ||
        std::find(it->keys.begin(), it->keys.end(), key) != it->keys.end())
      continue;
    std::fprintf(stderr, "bench_serve: --mode %s does not read option '--%s'\n",
                 mode.c_str(), key.c_str());
    return 2;
  }
  std::vector<BenchRow> rows;
  const int rc = it->run(opts, rows);
  const std::string report = opt_str(opts, "perf-json", "");
  if (rc == 0 && !report.empty())
    write_report(report, rows, opt_size(opts, "seed", 1));
  return (rc == 0 && g_write_failed) ? 1 : rc;
}
