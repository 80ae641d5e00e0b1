#include "serve/handlers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/query.hpp"
#include "core/sweep.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "serve/exposition.hpp"
#include "serve/json.hpp"

namespace cirstag::serve {

namespace {

Dispatch immediate(JobResponse response) {
  Dispatch d;
  d.immediate = true;
  d.response = std::move(response);
  return d;
}

Dispatch immediate_error(int status, const std::string& message) {
  return immediate({status, error_body(message)});
}

/// Ceilings of the integer request fields that have no natural one
/// (README, "Serving"): past them a request is refused with 422. The
/// deadline's, kMaxDeadlineMs, is in handlers.hpp.
constexpr double kMaxEpochs = 100'000;
constexpr double kMaxHidden = 1'024;

/// Whether `v` is a whole number in [lo, hi], stored in `out` when it is.
/// The range check comes before the integer cast: casting an out-of-range
/// double such as 1e300 is undefined. Every integer request field goes
/// through here; a false return is the caller's 422.
bool whole_in(const JsonValue& v, double lo, double hi, std::size_t& out) {
  if (!v.is_number()) return false;
  const double x = v.as_number();
  if (!(x >= lo && x <= hi) || x != std::floor(x)) return false;
  out = static_cast<std::size_t>(x);
  return true;
}

/// Report payload shared by the analyze and sweep responses. The score
/// arrays render through %.17g (obs::JsonWriter), which round-trips IEEE
/// doubles exactly — the socket byte-identity contract the e2e test asserts
/// rests on this.
void write_report(obs::JsonWriter& w, const core::CirStagReport& report) {
  w.begin_object()
      .field("node_scores", report.node_scores)
      .field("edge_scores", report.edge_scores)
      .field("eigenvalues", report.eigenvalues)
      .key("checksums")
      .raw(report.checksums.to_json())
      .field("health_ok", report.health.ok())
      .field("total_seconds", report.timings.total())
      .end_object();
}

/// One sweep variant's result members: the report and its scalars.
void write_variant(obs::JsonWriter& w,
                   const core::SweepVariantResult& result) {
  write_report(w.key("report"), result.report);
  w.field("worst_arrival", result.worst_arrival)
      .field("subspace_sweeps", result.stats.subspace_sweeps);
}

/// The "nodes" member of /top-k and /score-region: [{"node", "score"}, ...].
void write_nodes(obs::JsonWriter& w,
                 const std::vector<core::NodeScore>& nodes) {
  w.key("nodes").begin_array();
  for (const core::NodeScore& n : nodes)
    w.begin_object()
        .field("node", n.node)
        .field("score", n.score)
        .end_object();
  w.end_array();
}

// -- request payloads -------------------------------------------------------

struct AnalyzePayload {
  std::string circuit;
  std::shared_ptr<CircuitRecord> record;
  core::SweepVariant variant;
};

struct SweepPayload {
  std::string circuit;
  std::shared_ptr<CircuitRecord> record;
  std::vector<core::SweepVariant> variants;
};

struct LoadPayload {
  std::string name;
  std::string source;  ///< path, inline netlist text, or snapshot path
  bool is_path = false;
  bool is_snapshot = false;  ///< restore a binary snapshot (io/snapshot)
  LoadOptions options;
};

/// Parse one [{"pin": id, "factor": f}, ...] array into Case-A cap
/// scalings. Returns false with `error` set on malformed entries.
bool parse_cap_scalings(const JsonValue& array, const CircuitRecord& record,
                        std::vector<core::CapScaling>& out,
                        std::string& error) {
  if (!array.is_array()) {
    error = "'cap_scalings' must be an array";
    return false;
  }
  const std::size_t num_pins = record.netlist.num_pins();
  for (const JsonValue& entry : array.as_array()) {
    if (!entry.is_object()) {
      error = "each cap scaling must be an object with 'pin' and 'factor'";
      return false;
    }
    const JsonValue* pin = entry.find("pin");
    const JsonValue* factor = entry.find("factor");
    if (pin == nullptr || !pin->is_number() || factor == nullptr ||
        !factor->is_number()) {
      error = "each cap scaling must carry numeric 'pin' and 'factor'";
      return false;
    }
    std::size_t pin_id = 0;
    if (!whole_in(*pin, 0, static_cast<double>(num_pins) - 1, pin_id)) {
      error = "cap scaling pin out of range (circuit has " +
              std::to_string(num_pins) + " pins)";
      return false;
    }
    const double factor_value = factor->as_number();
    if (!(factor_value > 0.0) || !std::isfinite(factor_value)) {
      error = "cap scaling factor must be finite and positive";
      return false;
    }
    out.push_back({static_cast<circuit::PinId>(pin_id), factor_value});
  }
  return true;
}

JobResponse format_variant_response(const AnalyzePayload& payload,
                                    const core::SweepVariantResult& result) {
  obs::JsonWriter w;
  w.begin_object().field("circuit", payload.circuit).field("baseline", false);
  write_variant(w, result);
  return {200, w.end_object().take()};
}

/// Batch executor: every job shares the analyze batch key (same circuit
/// name), so normally the whole group is one engine->run call. Records are
/// still grouped by identity — an unload/reload between submissions may
/// leave two generations of the same name in one batch.
std::vector<JobResponse> run_analyze_batch(std::vector<Job*>& jobs) {
  std::vector<JobResponse> out(jobs.size());
  std::map<CircuitRecord*, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto* payload = static_cast<AnalyzePayload*>(jobs[i]->payload.get());
    groups[payload->record.get()].push_back(i);
  }
  for (auto& [record, indices] : groups) {
    std::vector<core::SweepVariant> variants;
    variants.reserve(indices.size());
    for (const std::size_t i : indices) {
      variants.push_back(
          static_cast<AnalyzePayload*>(jobs[i]->payload.get())->variant);
    }
    std::lock_guard<std::mutex> lock(record->run_mutex);
    const std::vector<core::SweepVariantResult> results =
        record->engine->run(variants);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const std::size_t i = indices[j];
      // Per-member render attribution: one thread serializes the whole
      // coalesced batch, but each member's trace gets its own render span
      // and render_us covering exactly its response.
      const obs::RenderScope render(jobs[i]->trace.get());
      out[i] = format_variant_response(
          *static_cast<AnalyzePayload*>(jobs[i]->payload.get()), results[j]);
    }
  }
  return out;
}

// -- endpoint dispatchers ---------------------------------------------------

Dispatch submit_or_reject(Service& service, Job job) {
  Scheduler::SubmitResult submitted = service.scheduler.submit(std::move(job));
  if (!submitted.accepted)
    return immediate_error(submitted.reject_status, submitted.reject_detail);
  Dispatch d;
  d.future = std::move(submitted.future);
  return d;
}

/// Shared body-field plumbing: optional "deadline_ms" (whole milliseconds,
/// at most one day) applied to the job, else the scheduler default.
bool apply_deadline(const JsonValue& body, Job& job, std::string& error) {
  const JsonValue* deadline = body.find("deadline_ms");
  if (deadline == nullptr) return true;
  std::size_t ms = 0;
  if (!whole_in(*deadline, 1, kMaxDeadlineMs, ms)) {
    error = "'deadline_ms' must be a whole number of milliseconds in [1, " +
            std::to_string(kMaxDeadlineMs) + "]";
    return false;
  }
  job.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
  return true;
}

using TracePtr = std::shared_ptr<obs::RequestContext>;

Dispatch dispatch_load(Service& service, const JsonValue& body,
                       const TracePtr& trace) {
  auto payload = std::make_shared<LoadPayload>();
  payload->name = body.string_or("name", "");
  if (payload->name.empty())
    return immediate_error(422, "missing 'name'");
  const JsonValue* path = body.find("path");
  const JsonValue* netlist = body.find("netlist");
  const JsonValue* snapshot = body.find("snapshot");
  const int sources = (path != nullptr ? 1 : 0) + (netlist != nullptr ? 1 : 0) +
                      (snapshot != nullptr ? 1 : 0);
  if (sources != 1)
    return immediate_error(
        422, "provide exactly one of 'path', 'netlist' or 'snapshot'");
  if (snapshot != nullptr) {
    // Binary-snapshot restore: the file itself records mode/epochs/hidden,
    // so overriding them here can only produce an engine whose options
    // disagree with the adopted warm state — reject instead of ignoring.
    if (!snapshot->is_string() || snapshot->as_string().empty())
      return immediate_error(400, "'snapshot' must be a non-empty path string");
    if (body.find("epochs") != nullptr || body.find("hidden") != nullptr ||
        body.find("mode") != nullptr)
      return immediate_error(
          422,
          "'epochs'/'hidden'/'mode' are recorded in the snapshot and cannot "
          "be overridden");
    payload->source = snapshot->as_string();
    payload->is_snapshot = true;
  } else {
    const JsonValue* source = path != nullptr ? path : netlist;
    if (!source->is_string())
      return immediate_error(422, "'path'/'netlist' must be a string");
    payload->source = source->as_string();
    payload->is_path = path != nullptr;

    const JsonValue* epochs = body.find("epochs");
    const JsonValue* hidden = body.find("hidden");
    if ((epochs != nullptr &&
         !whole_in(*epochs, 1, kMaxEpochs, payload->options.gnn_epochs)) ||
        (hidden != nullptr &&
         !whole_in(*hidden, 1, kMaxHidden, payload->options.gnn_hidden)))
      return immediate_error(
          422, "'epochs' and 'hidden' must be whole numbers in [1, " +
                   std::to_string(static_cast<long>(kMaxEpochs)) +
                   "] and [1, " +
                   std::to_string(static_cast<long>(kMaxHidden)) + "]");
    const std::string mode = body.string_or("mode", "exact");
    if (mode != "exact" && mode != "fast")
      return immediate_error(422, "'mode' must be \"exact\" or \"fast\"");
    payload->options.exact = mode == "exact";
  }

  Job job;
  job.endpoint = "load";
  job.payload = payload;
  job.trace = trace;
  trace->set_circuit(payload->name);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  CircuitRegistry* registry = &service.registry;
  job.run = [registry, payload, trace]() -> JobResponse {
    const CircuitRegistry::LoadResult loaded =
        payload->is_snapshot
            ? registry->load_from_snapshot(payload->name, payload->source)
        : payload->is_path
            ? registry->load_from_path(payload->name, payload->source,
                                       payload->options)
            : registry->load_from_text(payload->name, payload->source,
                                       payload->options);
    if (loaded.record == nullptr) {
      // A snapshot that fails to open/validate is a bad request artifact:
      // 400 (vs 422 for semantic errors in textual netlist loads).
      const int status = loaded.name_conflict        ? 409
                         : payload->is_snapshot      ? 400
                                                     : 422;
      return {status, error_body(loaded.error)};
    }
    const CircuitRecord& record = *loaded.record;
    const obs::RenderScope render(trace.get());
    return {200, obs::JsonWriter()
                     .begin_object()
                     .field("name", record.name)
                     .field("pins", record.netlist.num_pins())
                     .field("gates", record.netlist.num_gates())
                     .field("mode", record.options.exact ? "exact" : "fast")
                     .field("restored", payload->is_snapshot)
                     .field("train_r2", record.train_r2)
                     .field("train_seconds", record.train_seconds)
                     .field("baseline_seconds", record.baseline_seconds)
                     .end_object()
                     .take()};
  };
  return submit_or_reject(service, std::move(job));
}

Dispatch dispatch_unload(Service& service, const JsonValue& body,
                         const TracePtr& trace) {
  const std::string name = body.string_or("name", "");
  if (name.empty()) return immediate_error(422, "missing 'name'");
  Job job;
  job.endpoint = "unload";
  job.trace = trace;
  trace->set_circuit(name);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  CircuitRegistry* registry = &service.registry;
  job.run = [registry, name, trace]() -> JobResponse {
    if (!registry->unload(name))
      return {404, error_body("circuit '" + name + "' is not loaded")};
    const obs::RenderScope render(trace.get());
    return {200, obs::JsonWriter()
                     .begin_object()
                     .field("unloaded", name)
                     .end_object()
                     .take()};
  };
  return submit_or_reject(service, std::move(job));
}

Dispatch dispatch_analyze(Service& service, const JsonValue& body,
                          const TracePtr& trace) {
  auto payload = std::make_shared<AnalyzePayload>();
  payload->circuit = body.string_or("circuit", "");
  if (payload->circuit.empty())
    return immediate_error(422, "missing 'circuit'");
  payload->record = service.registry.lookup(payload->circuit);
  if (payload->record == nullptr)
    return immediate_error(404,
                           "circuit '" + payload->circuit + "' is not loaded");
  if (const JsonValue* scalings = body.find("cap_scalings")) {
    std::string error;
    if (!parse_cap_scalings(*scalings, *payload->record,
                            payload->variant.cap_scalings, error))
      return immediate_error(422, error);
  }

  Job job;
  job.endpoint = "analyze";
  job.payload = payload;
  job.trace = trace;
  trace->set_circuit(payload->circuit);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  if (payload->variant.cap_scalings.empty()) {
    // Unperturbed request: serve the resident baseline (immutable after
    // load, byte-identical to CirStag::analyze) — a const read, no
    // run_mutex, no batching.
    job.run = [payload, trace]() -> JobResponse {
      const obs::RenderScope render(trace.get());
      obs::JsonWriter w;
      w.begin_object()
          .field("circuit", payload->circuit)
          .field("baseline", true)
          .key("report");
      write_report(w, payload->record->engine->baseline());
      return {200, w.end_object().take()};
    };
  } else {
    job.batch_key = "analyze:" + payload->circuit;
    job.run_batch = run_analyze_batch;
  }
  return submit_or_reject(service, std::move(job));
}

Dispatch dispatch_sweep(Service& service, const JsonValue& body,
                        const TracePtr& trace) {
  auto payload = std::make_shared<SweepPayload>();
  payload->circuit = body.string_or("circuit", "");
  if (payload->circuit.empty())
    return immediate_error(422, "missing 'circuit'");
  payload->record = service.registry.lookup(payload->circuit);
  if (payload->record == nullptr)
    return immediate_error(404,
                           "circuit '" + payload->circuit + "' is not loaded");
  const JsonValue* variants = body.find("variants");
  if (variants == nullptr || !variants->is_array() ||
      variants->as_array().empty())
    return immediate_error(422, "'variants' must be a non-empty array");
  for (const JsonValue& entry : variants->as_array()) {
    // Each variant is an object ({"cap_scalings": [...]}) holding the one
    // field of core::SweepVariant: capacitance edits. A topology (Case-B)
    // study needs no sweep; it scores its unperturbed graph once.
    if (!entry.is_object())
      return immediate_error(422,
                             "each variant must be an object with "
                             "'cap_scalings'");
    const JsonValue* scalings = entry.find("cap_scalings");
    if (scalings == nullptr)
      return immediate_error(422,
                             "each variant must carry a 'cap_scalings' array");
    core::SweepVariant variant;
    std::string error;
    if (!parse_cap_scalings(*scalings, *payload->record, variant.cap_scalings,
                            error))
      return immediate_error(422, error);
    payload->variants.push_back(std::move(variant));
  }

  Job job;
  job.endpoint = "sweep";
  job.payload = payload;
  job.trace = trace;
  trace->set_circuit(payload->circuit);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  job.run = [payload, trace]() -> JobResponse {
    CircuitRecord& record = *payload->record;
    std::lock_guard<std::mutex> lock(record.run_mutex);
    const std::vector<core::SweepVariantResult> results =
        record.engine->run(payload->variants);
    const core::SweepStats& stats = record.engine->stats();
    const obs::RenderScope render(trace.get());
    obs::JsonWriter w;
    w.begin_object()
        .field("circuit", payload->circuit)
        .key("results")
        .begin_array();
    for (const core::SweepVariantResult& result : results) {
      w.begin_object();
      write_variant(w, result);
      w.end_object();
    }
    w.end_array()
        .key("stats")
        .begin_object()
        .field("variants", stats.variants)
        .field("sweep_seconds", stats.sweep_seconds)
        .field("solver_cache_hits", stats.solver_cache_hits)
        .end_object();
    return {200, w.end_object().take()};
  };
  return submit_or_reject(service, std::move(job));
}

Dispatch dispatch_top_k(Service& service, const JsonValue& body,
                        const TracePtr& trace) {
  const std::string name = body.string_or("circuit", "");
  if (name.empty()) return immediate_error(422, "missing 'circuit'");
  std::shared_ptr<CircuitRecord> record = service.registry.lookup(name);
  if (record == nullptr)
    return immediate_error(404, "circuit '" + name + "' is not loaded");
  const double k_value = body.number_or("k", 10);
  if (!(k_value >= 1) || k_value != std::floor(k_value))
    return immediate_error(422, "'k' must be a positive integer");
  // top_k_nodes returns at most every pin: clamp to that before the cast.
  const auto k = static_cast<std::size_t>(std::min(
      k_value,
      static_cast<double>(record->engine->baseline().node_scores.size())));

  Job job;
  job.endpoint = "top-k";
  job.trace = trace;
  trace->set_circuit(name);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  job.run = [record, name, k, trace]() -> JobResponse {
    const std::vector<core::NodeScore> nodes =
        core::top_k_nodes(record->engine->baseline(), k);
    const obs::RenderScope render(trace.get());
    obs::JsonWriter w;
    w.begin_object().field("circuit", name).field("k", k);
    write_nodes(w, nodes);
    return {200, w.end_object().take()};
  };
  return submit_or_reject(service, std::move(job));
}

Dispatch dispatch_score_region(Service& service, const JsonValue& body,
                               const TracePtr& trace) {
  const std::string name = body.string_or("circuit", "");
  if (name.empty()) return immediate_error(422, "missing 'circuit'");
  std::shared_ptr<CircuitRecord> record = service.registry.lookup(name);
  if (record == nullptr)
    return immediate_error(404, "circuit '" + name + "' is not loaded");
  const JsonValue* nodes = body.find("nodes");
  if (nodes == nullptr || !nodes->is_array())
    return immediate_error(422, "'nodes' must be an array of node ids");
  const std::size_t num_pins = record->engine->baseline().node_scores.size();
  auto ids = std::make_shared<std::vector<std::size_t>>();
  ids->reserve(nodes->as_array().size());
  for (const JsonValue& entry : nodes->as_array()) {
    std::size_t id = 0;
    if (!whole_in(entry, 0, static_cast<double>(num_pins) - 1, id))
      return immediate_error(422, "'nodes' entries must be pin ids below " +
                                      std::to_string(num_pins));
    ids->push_back(id);
  }

  // Optional cone expansion: "hops": h scores the h-ring fan-in/fan-out
  // cone of the listed seed nodes over the pin graph instead of the exact
  // node set — the localized sub-linear query path.
  std::size_t hops = 0;
  bool cone = false;
  if (const JsonValue* h = body.find("hops"); h != nullptr) {
    if (!whole_in(*h, 0, 1e6, hops))
      return immediate_error(422, "'hops' must be a small non-negative count");
    cone = true;
  }

  Job job;
  job.endpoint = "score-region";
  job.trace = trace;
  trace->set_circuit(name);
  std::string error;
  if (!apply_deadline(body, job, error)) return immediate_error(422, error);
  job.run = [record, name, ids, hops, cone, trace]() -> JobResponse {
    core::RegionScore region;
    try {
      if (cone) {
        static const obs::Counter cone_requests("serve.region_cone_requests");
        cone_requests.add();
        region = core::score_cone(record->engine->baseline(),
                                  record->engine->pin_graph(), *ids, hops);
      } else {
        region = core::score_region(record->engine->baseline(), *ids);
      }
    } catch (const std::out_of_range& e) {
      return {422, error_body(e.what())};
    }
    const obs::RenderScope render(trace.get());
    obs::JsonWriter w;
    w.begin_object()
        .field("circuit", name)
        .field("count", region.nodes.size())
        .field("mean", region.mean)
        .field("max", region.max)
        .field("argmax", region.argmax)
        .field("design_mean", region.design_mean);
    write_nodes(w, region.nodes);
    return {200, w.end_object().take()};
  };
  return submit_or_reject(service, std::move(job));
}

JobResponse handle_health(Service& service) {
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - service.started)
                            .count();
  const obs::BuildInfo& build = obs::build_info();
  obs::JsonWriter w;
  w.begin_object()
      .field("status", service.scheduler.draining() ? "draining" : "ok")
      .field("uptime_seconds", uptime)
      .field("queue_depth", service.scheduler.queue_depth())
      .key("circuits")
      .begin_array();
  for (const CircuitRegistry::CircuitInfo& info : service.registry.infos())
    w.begin_object()
        .field("name", info.name)
        .field("pins", info.pins)
        .field("gates", info.gates)
        .field("mode", info.exact ? "exact" : "fast")
        .field("train_r2", info.train_r2)
        .end_object();
  w.end_array()
      .key("build")
      .begin_object()
      .field("git_describe", build.git_describe)
      .field("build_type", build.build_type)
      .field("compiler", build.compiler)
      .end_object();
  return {200, w.end_object().take()};
}

}  // namespace

namespace {

/// Inner routing; the public wrapper owns trace creation and finalization.
Dispatch route_request(Service& service, const HttpRequest& request,
                       const TracePtr& trace) {
  const std::string& path = request.path;
  if (path == "/health" || path == "/metrics" || path == "/stats") {
    if (request.method != "GET")
      return immediate_error(405, "use GET for " + path);
    if (path == "/health") return immediate(handle_health(service));
    if (path == "/stats") return immediate({200, render_stats_json(service)});
    return immediate({200, render_metrics_exposition(service),
                      "text/plain; version=0.0.4; charset=utf-8"});
  }

  const bool known_post = path == "/load" || path == "/unload" ||
                          path == "/analyze" || path == "/sweep" ||
                          path == "/score-region" || path == "/top-k";
  if (!known_post) return immediate_error(404, "unknown endpoint " + path);
  if (request.method != "POST")
    return immediate_error(405, "use POST for " + path);

  JsonValue body;
  try {
    body = parse_json(request.body);
  } catch (const JsonError& e) {
    return immediate_error(400, std::string("malformed JSON body: ") +
                                    e.what());
  }
  if (!body.is_object())
    return immediate_error(400, "request body must be a JSON object");

  if (path == "/load") return dispatch_load(service, body, trace);
  if (path == "/unload") return dispatch_unload(service, body, trace);
  if (path == "/analyze") return dispatch_analyze(service, body, trace);
  if (path == "/sweep") return dispatch_sweep(service, body, trace);
  if (path == "/top-k") return dispatch_top_k(service, body, trace);
  return dispatch_score_region(service, body, trace);
}

}  // namespace

Dispatch dispatch_request(Service& service, const HttpRequest& request) {
  // Every request — control plane included — gets a trace: the endpoint name
  // is the path minus its leading slash ("unknown" paths keep the raw path,
  // so the access log shows what was probed).
  auto trace = std::make_shared<obs::RequestContext>(
      !request.path.empty() && request.path.front() == '/'
          ? request.path.substr(1)
          : request.path);
  Dispatch d = route_request(service, request, trace);
  d.trace = trace;
  if (d.immediate) {
    // Immediate responses (control plane, parse errors, rejections) never
    // reach the scheduler, so they are finished and logged here.
    trace->finish(d.response.status);
    obs::RequestLog::global().record(*trace);
  }
  return d;
}

JobResponse handle_request(Service& service, const HttpRequest& request) {
  Dispatch d = dispatch_request(service, request);
  if (d.immediate) return std::move(d.response);
  return d.future.get();
}

}  // namespace cirstag::serve
