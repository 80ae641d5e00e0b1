// serve_mix: a resident circuit restored from a snapshot into an in-process
// serve::Server, driven open loop over loopback HTTP.
//
// Set-up (repeated, reported as setup_s): generate the design, cold /load it
// (GNN training + fast-mode baseline capture) into a scratch Service, and
// write its binary snapshot. The measured part restores the snapshot with
// /load {"snapshot": ...}, checks that the restored circuit answers /top-k
// exactly like the cold-loaded one, and then sends the request mix at a
// fixed rate: per 8 requests, 4 single-pin Case-A /analyze, 2 /top-k and
// 2 /score-region. Request i is due at start + i / rate whatever happened
// before it, and every latency is timed from when the request was due.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "circuit/io.hpp"
#include "gnn/timing_gnn.hpp"
#include "io/snapshot.hpp"
#include "linalg/rng.hpp"
#include "obs/json.hpp"
#include "obs/request.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace cirstag;

serve::HttpRequest post(const std::string& path, const std::string& body) {
  serve::HttpRequest req;
  req.method = "POST";
  req.path = path;
  req.body = body;
  return req;
}

/// The ranked-node part of a /top-k body (the rest echoes the circuit name).
std::string top_k_nodes(const std::string& body) {
  const std::size_t at = body.find("\"nodes\"");
  return at == std::string::npos ? std::string() : body.substr(at);
}

const char* kTopKBody = "{\"circuit\": \"bench\", \"k\": 10}";

struct Request {
  std::string path;
  std::string body;
  bool analyze = false;
};

/// The fixed mix, pins and regions drawn from the run seed.
std::vector<Request> make_requests(std::size_t count, std::size_t pins,
                                   std::uint64_t seed) {
  linalg::Rng rng(seed);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = i % 8;
    if (slot % 2 == 0) {
      out.push_back({"/analyze",
                     "{\"circuit\": \"bench\", \"cap_scalings\": [{\"pin\": " +
                         std::to_string(rng.index(pins)) +
                         ", \"factor\": 5.0}]}",
                     true});
    } else if (slot == 1 || slot == 5) {
      out.push_back({"/top-k", kTopKBody, false});
    } else {
      std::string nodes;
      for (int n = 0; n < 8; ++n)
        nodes += (n ? ", " : "") + std::to_string(rng.index(pins));
      out.push_back({"/score-region",
                     "{\"circuit\": \"bench\", \"nodes\": [" + nodes + "]}",
                     false});
    }
  }
  return out;
}

struct Outcome {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  int status = 0;  ///< 0 = transport failure
};

/// Send `requests` open loop at `rate` over `connections` keep-alive
/// connections, one generator thread each; connection c owns requests
/// i = c mod connections and sends each when due (or as soon as its previous
/// request returns, if that is later).
std::vector<Outcome> drive(std::uint16_t port, const std::vector<Request>& requests,
                           double rate, std::size_t connections) {
  std::vector<Outcome> out(requests.size());
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const auto now_s = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::TcpSocket socket = serve::tcp_connect(port);
      for (std::size_t i = c; i < requests.size(); i += connections) {
        Outcome& o = out[i];
        o.due_s = static_cast<double>(i) / rate;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(o.due_s)));
        if (!socket.valid()) socket = serve::tcp_connect(port);
        o.sent_s = now_s();
        const auto response = socket.valid()
                                  ? serve::http_roundtrip(socket, "POST",
                                                          requests[i].path,
                                                          requests[i].body)
                                  : std::nullopt;
        o.done_s = now_s();
        if (response) {
          o.status = response->status;
        } else {
          socket = serve::TcpSocket();  // reconnect for the next request
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

/// Rate calibration (run once by hand, results go into workloads.json):
/// the unloaded /analyze latency from one sequential connection, then the
/// /analyze capacity with every connection sending back to back.
void calibrate(std::uint16_t port, std::size_t pins, const RunOptions& opts) {
  std::vector<Request> analyzes;
  for (const Request& r : make_requests(8 * 64, pins, opts.seed))
    if (r.analyze) analyzes.push_back(r);
  std::vector<double> unloaded_ms;
  {
    serve::TcpSocket socket = serve::tcp_connect(port);
    for (std::size_t i = 0; i < 40; ++i) {
      const auto t0 = Clock::now();
      (void)serve::http_roundtrip(socket, "POST", "/analyze", analyzes[i].body);
      unloaded_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  const std::size_t connections =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> done(connections, 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::TcpSocket socket = serve::tcp_connect(port);
      for (std::size_t i = c; seconds_since(t0) < opts.seconds;
           i = (i + connections) % analyzes.size()) {
        const auto response =
            serve::http_roundtrip(socket, "POST", "/analyze", analyzes[i].body);
        if (response && response->status == 200) ++done[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  std::size_t total = 0;
  for (const std::size_t d : done) total += d;
  std::printf("calibrate: unloaded /analyze p50 %.1f ms p90 %.1f ms (n=%zu); "
              "capacity %.2f analyze/s over %zu connections\n",
              quantile(unloaded_ms, 0.5), quantile(unloaded_ms, 0.9),
              unloaded_ms.size(), static_cast<double>(total) / seconds_since(t0),
              connections);
}

/// Segments of serve's request traces, read back from the access log.
struct LoggedSegments {
  std::vector<double> queue_ms;           ///< every request
  std::vector<double> analyze_compute_s;  ///< /analyze requests
};

LoggedSegments read_access_log(const std::string& path) {
  LoggedSegments out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  char line[8192];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    try {
      const serve::JsonValue v = serve::parse_json(line);
      out.queue_ms.push_back(v.number_or("queue_us", 0.0) / 1e3);
      if (v.string_or("endpoint", "") == "analyze")
        out.analyze_compute_s.push_back(v.number_or("compute_us", 0.0) / 1e6);
    } catch (const std::exception&) {
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace

void run_serve_workload(const RunOptions& opts, const WorkloadConfig& cfg,
                        const std::vector<std::uint32_t>& reference,
                        RunResult& result) {
  serve::Scheduler::Options sched;
  sched.workers = kServeWorkers;
  sched.max_batch_size = kMaxBatch;
  sched.queue_capacity = 256;
  sched.default_deadline_ms = 60000;
  const std::string snapshot_path = opts.out_dir + "/" + cfg.name + ".snap";

  // -- set-up ---------------------------------------------------------------
  // One single-worker Service serves every set-up repeat: the cold load then
  // always runs on the same thread, and so in the same malloc arena, which
  // keeps peak_rss_mb from depending on which thread a repeat landed on.
  serve::Scheduler::Options setup_sched = sched;
  setup_sched.workers = 1;
  serve::Service service(setup_sched);
  // Set-ups are timed in CPU seconds, like analyze_cpu_s (see README.md).
  std::vector<double> setup_seconds, setup_wall_seconds, write_seconds;
  std::string cold_top_k;
  std::size_t pins = 0;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    const circuit::Netlist nl =
        circuit::generate_random_logic(cell_library(), design_spec(cfg));
    std::ostringstream text;
    circuit::write_netlist(text, nl);
    const serve::JobResponse loaded = serve::handle_request(
        service, post("/load", "{\"name\": \"bench\", \"netlist\": " +
                                   obs::json_quote(text.str()) +
                                   ", \"epochs\": " + std::to_string(cfg.epochs) +
                                   ", \"hidden\": " + std::to_string(cfg.hidden) +
                                   ", \"mode\": \"fast\"}"));
    if (loaded.status != 200)
      throw std::runtime_error("set-up /load failed: " + loaded.body);
    const auto record = service.registry.lookup("bench");
    io::SnapshotMeta meta;
    meta.exact = record->options.exact;
    meta.train_r2 = record->train_r2;
    const auto tw = Clock::now();
    io::write_snapshot(snapshot_path, *record->model, *record->engine, meta);
    write_seconds.push_back(seconds_since(tw));
    setup_seconds.push_back(process_cpu_s() - cpu0);
    setup_wall_seconds.push_back(seconds_since(t0));
    pins = record->netlist.num_pins();
    cold_top_k = top_k_nodes(
        serve::handle_request(service, post("/top-k", kTopKBody)).body);
    (void)serve::handle_request(service, post("/unload", "{\"name\": \"bench\"}"));
  };
  // A traced run reports no setup_s, so it sets up once. A timed run sets up
  // half before and half after the traffic: a set-up's time moves by up to
  // 40% as other tenants come and go, so set-ups run back to back would
  // sample only the host's state at the start of the run.
  const std::size_t setup_repeats = opts.trace ? 1 : kSetupRepeats;
  const std::size_t setups_before = (setup_repeats + 1) / 2;
  for (std::size_t r = 0; r < setups_before; ++r) set_up();

  // -- restore into a fresh server -------------------------------------------
  serve::ServerOptions sopts;
  sopts.port = 0;
  sopts.scheduler = sched;
  serve::Server server(sopts);
  std::string error;
  if (!server.start(error)) throw std::runtime_error("server start: " + error);
  std::thread serving([&server] { server.serve_forever(); });
  struct StopOnExit {
    serve::Server& server;
    std::thread& thread;
    ~StopOnExit() {
      server.request_stop();
      if (thread.joinable()) thread.join();
    }
  } stop_on_exit{server, serving};

  double restore_s = 0.0;
  {
    serve::TcpSocket socket = serve::tcp_connect(server.port());
    ++result.attempted;
    const auto t0 = Clock::now();
    const auto restored = serve::http_roundtrip(
        socket, "POST", "/load",
        "{\"name\": \"bench\", \"snapshot\": " + obs::json_quote(snapshot_path) +
            "}");
    restore_s = seconds_since(t0);
    if (!restored || restored->status != 200) {
      ++result.failed;
      result.fail("snapshot /load did not answer 200");
      throw std::runtime_error("snapshot restore failed");
    }
    ++result.attempted;
    const auto top = serve::http_roundtrip(socket, "POST", "/top-k", kTopKBody);
    if (!top || top->status != 200 || top_k_nodes(top->body) != cold_top_k) {
      ++result.failed;
      result.fail("restored circuit's /top-k differs from the cold-loaded one");
    }
  }
  const auto record = server.service().registry.lookup("bench");
  score_quality(record->engine->baseline().node_scores, reference, cfg, result);
  if (opts.calibrate) {
    calibrate(server.port(), pins, opts);
    return;
  }

  // -- open-loop traffic ------------------------------------------------------
  // The access log, armed only for this phase, gives each request's queue
  // and compute segments. Counter deltas cover the whole phase.
  const std::string access_log = opts.out_dir + "/access." + cfg.name + ".jsonl";
  if (opts.trace) obs::RequestLog::global().set_access_log_path(access_log);
  const CounterDelta serve_counters(
      {"serve.scheduler.batched_requests", "serve.scheduler.batches_formed",
       "serve.rejected_429", "serve.rejected_503", "serve.expired_504",
       "sta.incremental_gates_evaluated", "sta.incremental_gates_skipped",
       "knn.delta_updates", "knn.requeried_points", "gnn.incremental_forwards",
       "gnn.incremental_rows"});
  const auto count = std::max<std::size_t>(
      4, static_cast<std::size_t>(cfg.rate_rps * opts.seconds + 0.5));
  const std::vector<Request> requests = make_requests(count, pins, opts.seed);
  const std::size_t connections = std::max<std::size_t>(
      1, std::min<std::size_t>(kMaxConnections,
                               std::thread::hardware_concurrency()));
  const double cpu0 = process_cpu_s();
  const std::vector<Outcome> outcomes =
      drive(server.port(), requests, cfg.rate_rps, connections);
  const double traffic_cpu_s = process_cpu_s() - cpu0;
  const double span_s = static_cast<double>(count) / cfg.rate_rps;
  server.request_stop();
  serving.join();
  LoggedSegments logged;
  if (opts.trace) {
    obs::RequestLog::global().set_access_log_path("");
    logged = read_access_log(access_log);
  }
  while (setup_seconds.size() < setup_repeats) set_up();
  const double batches = serve_counters.delta("serve.scheduler.batches_formed");
  const double batched = serve_counters.delta("serve.scheduler.batched_requests");
  const double rejected = serve_counters.delta("serve.rejected_429") +
                          serve_counters.delta("serve.rejected_503") +
                          serve_counters.delta("serve.expired_504");
  const double sta_evaluated =
      serve_counters.delta("sta.incremental_gates_evaluated");
  const double sta_skipped = serve_counters.delta("sta.incremental_gates_skipped");
  const double knn_requeried = serve_counters.delta("knn.requeried_points");
  const double knn_points =
      serve_counters.delta("knn.delta_updates") * static_cast<double>(pins);
  const double gnn_rows = serve_counters.delta("gnn.incremental_rows");
  const double gnn_forwards = serve_counters.delta("gnn.incremental_forwards");
  // Rows of one full incremental forward (pins x layers), from one
  // no-change forward on the served model once traffic has stopped.
  gnn::GnnIncrementalStats full;
  {
    const linalg::Matrix& features = record->model->base_features();
    (void)record->model->forward_incremental(record->model->snapshot(features),
                                             features, &full);
  }

  std::vector<double> analyze_ms, query_ms, late_ms;
  std::size_t good = 0, failed_requests = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    late_ms.push_back((o.sent_s - o.due_s) * 1e3);
    if (o.status != 200) {
      ++failed_requests;
      continue;
    }
    const double ms = (o.done_s - o.due_s) * 1e3;
    (requests[i].analyze ? analyze_ms : query_ms).push_back(ms);
    if (ms <= cfg.latency_limit_ms) ++good;
  }
  result.attempted += outcomes.size();
  result.failed += failed_requests;
  if (failed_requests > 0)
    result.fail(std::to_string(failed_requests) + " requests did not answer 200");

  // Snapshot read alone (the restore above also rebuilds derived state).
  std::vector<double> read_seconds;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    (void)io::read_snapshot(snapshot_path, cell_library());
    read_seconds.push_back(seconds_since(t0));
  }

  const double analyze_p50 = quantile(analyze_ms, 0.5);
  std::printf("set-ups: wall median %.3f s, CPU median %.3f s (n=%zu)\n",
              median(setup_wall_seconds), median(setup_seconds),
              setup_seconds.size());
  std::printf("serve phase: restore %.3f s; %zu requests over %zu "
              "connections at %.2f req/s; analyze p50 %.1f ms p90 %.1f ms "
              "(n=%zu), query p50 %.2f ms p90 %.2f ms (n=%zu), goodput %.2f "
              "req/s within %.0f ms; generator late p90 %.2f ms\n",
              restore_s, count, connections, cfg.rate_rps, analyze_p50,
              quantile(analyze_ms, 0.9), analyze_ms.size(),
              quantile(query_ms, 0.5), quantile(query_ms, 0.9), query_ms.size(),
              static_cast<double>(good) / span_s, cfg.latency_limit_ms,
              quantile(late_ms, 0.9));

  result.add(result.end_to_end, "setup_s", median(setup_seconds), "s",
             setup_seconds.size());
  // The whole process's CPU time over the traffic phase (server, scheduler,
  // engine and the generator threads) per /analyze answered; the queries
  // riding along cost milliseconds.
  result.add(result.end_to_end, "analyze_cpu_s",
             ratio(traffic_cpu_s, static_cast<double>(analyze_ms.size())), "s",
             analyze_ms.size());
  result.add(result.end_to_end, "peak_rss_mb", peak_rss_mb(), "MiB");

  auto& layer = result.per_layer;
  // A batch's variants run in parallel and each /analyze request's compute
  // segment spans its whole batch, so this is a variant's latency inside the
  // engine, not its share of CPU time.
  result.add(layer, "core.sweep_variant_s", median(logged.analyze_compute_s),
             "s", logged.analyze_compute_s.size());
  result.add(layer, "core.sweep_knn_requery_frac",
             ratio(knn_requeried, knn_points), "fraction");
  result.add(layer, "core.sweep_sta_cone_frac",
             ratio(sta_evaluated, sta_evaluated + sta_skipped), "fraction");
  result.add(layer, "core.sweep_gnn_row_frac",
             ratio(gnn_rows, gnn_forwards * static_cast<double>(full.total_rows)),
             "fraction");
  result.add(layer, "io.snapshot_write_s", median(write_seconds), "s",
             write_seconds.size());
  result.add(layer, "io.snapshot_read_s", median(read_seconds), "s",
             read_seconds.size());
  result.add(layer, "io.snapshot_bytes", gauge("snapshot.bytes"), "bytes");
  result.add(layer, "serve.restore_s", restore_s, "s");
  result.add(layer, "serve.analyze_p50_ms", analyze_p50, "ms", analyze_ms.size());
  result.add(layer, "serve.analyze_p90_ms", quantile(analyze_ms, 0.9), "ms",
             analyze_ms.size());
  result.add(layer, "serve.query_p50_ms", quantile(query_ms, 0.5), "ms",
             query_ms.size());
  result.add(layer, "serve.query_p90_ms", quantile(query_ms, 0.9), "ms",
             query_ms.size());
  result.add(layer, "serve.goodput_rps", static_cast<double>(good) / span_s,
             "1/s", outcomes.size());
  result.add(layer, "serve.queue_wait_p50_ms", median(logged.queue_ms), "ms",
             logged.queue_ms.size());
  result.add(layer, "serve.batch_occupancy",
             ratio(batched, batches * static_cast<double>(kMaxBatch)),
             "fraction");
  result.add(layer, "serve.rejected", rejected, "count");
  result.add(layer, "serve.gen_late_p90_ms", quantile(late_ms, 0.9), "ms",
             late_ms.size());
}

}  // namespace perfbench
