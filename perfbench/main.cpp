// cirstag_perfbench: the repo benchmark program (perfbench/README.md).
//
//   cirstag_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--benchmark BENCHMARK.json]
//                     [--config perfbench/workloads.json] [--refs DIR]
//                     [--out DIR] [--tiny] [--perturb-reference]
//                     [--regen-reference] [--design-seed N] [--calibrate]
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1, as
// BENCHMARK.json names them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "cirstag_perfbench: %s\n", why.c_str());
  std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--benchmark") o.benchmark_path = value();
      else if (a == "--config") o.config_path = value();
      else if (a == "--refs") o.refs_dir = value();
      else if (a == "--out") o.out_dir = value();
      else if (a == "--design-seed") o.design_seed_override = std::stoull(value());
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--perturb-reference") o.perturb_reference = true;
      else if (a == "--regen-reference") o.regen_reference = true;
      else if (a == "--calibrate") o.calibrate = true;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::size_t size_field(const cirstag::serve::JsonValue& w, const char* key) {
  return static_cast<std::size_t>(w.number_or(key, 0.0));
}

WorkloadConfig load_config(const RunOptions& opts) {
  const cirstag::serve::JsonValue doc =
      cirstag::serve::parse_json(read_file(opts.config_path));
  const cirstag::serve::JsonValue* all = doc.find("workloads");
  const cirstag::serve::JsonValue* w = all ? all->find(opts.workload) : nullptr;
  if (w == nullptr) usage("unknown workload " + opts.workload);
  WorkloadConfig cfg;
  cfg.name = opts.workload;
  cfg.kind = w->string_or("kind", "");
  cfg.gates = opts.tiny ? kTinyGates : size_field(*w, "gates");
  cfg.design_seed = size_field(*w, "design_seed");
  cfg.epochs = size_field(*w, "epochs");
  cfg.hidden = size_field(*w, "hidden");
  cfg.min_top1pct_overlap = w->number_or("min_top1pct_overlap", 0.0);
  cfg.min_spearman = w->number_or("min_spearman", 0.0);
  cfg.rate_rps = w->number_or("rate_rps", 0.0);
  cfg.latency_limit_ms = w->number_or("latency_limit_ms", 0.0);
  if (opts.design_seed_override != 0) cfg.design_seed = opts.design_seed_override;
  if (cfg.gates == 0 || cfg.design_seed == 0 || cfg.epochs == 0 ||
      cfg.hidden == 0 || (cfg.kind != "analyze" && cfg.kind != "serve"))
    usage("workload " + cfg.name + " is incomplete in " + opts.config_path);
  if (!(cfg.rate_rps > 0.0) || !(cfg.latency_limit_ms > 0.0))
    usage("workload " + cfg.name + " needs rate_rps and latency_limit_ms");
  return cfg;
}

/// (name, unit) of every metric BENCHMARK.json declares in `section`
/// ("end_to_end" or "per_layer"), in declaration order.
std::vector<std::pair<std::string, std::string>> declared_metrics(
    const RunOptions& opts, const char* section) {
  const cirstag::serve::JsonValue doc =
      cirstag::serve::parse_json(read_file(opts.benchmark_path));
  const cirstag::serve::JsonValue* list = doc.find(section);
  if (list == nullptr || !list->is_array())
    usage(std::string("no ") + section + " list in " + opts.benchmark_path);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : list->as_array())
    out.emplace_back(m.string_or("name", ""), m.string_or("unit", ""));
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += cirstag::obs::json_quote(metrics[i].name) + ": {\"value\": ";
    cirstag::obs::append_json_number(out, std::isfinite(metrics[i].value)
                                              ? metrics[i].value
                                              : 0.0);
    out += ", \"unit\": " + cirstag::obs::json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int run(const RunOptions& opts) {
  const WorkloadConfig cfg = load_config(opts);
  const auto declared =
      declared_metrics(opts, opts.trace ? "per_layer" : "end_to_end");
  std::filesystem::create_directories(opts.out_dir);
  cirstag::runtime::set_global_threads(kThreads);

  if (opts.regen_reference) {
    const std::string path = reference_path(opts, cfg);
    write_reference(path, cfg, ranking_of(exact_reference_scores(cfg)));
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }
  std::vector<std::uint32_t> reference =
      opts.tiny ? ranking_of(exact_reference_scores(cfg))
                : read_reference(reference_path(opts, cfg));
  if (opts.perturb_reference) std::reverse(reference.begin(), reference.end());

  RunResult result;
  SpanLog spans(opts.trace);
  int status = 0;
  try {
    if (opts.trace) {
      run_traced_analysis(opts, cfg, spans, result);
      // The sweep, snapshot and serve layers are traced on every workload:
      // an analyze workload serves its own design for a short phase.
      RunOptions serve_opts = opts;
      if (cfg.kind == "analyze")
        serve_opts.seconds = std::min(opts.seconds, kTracedServeSeconds);
      const ScopedSpan s(spans, "serve_phase");
      run_serve_workload(serve_opts, cfg, reference, result);
    } else if (cfg.kind == "analyze") {
      run_analyze_workload(opts, cfg, reference, result);
    } else {
      run_serve_workload(opts, cfg, reference, result);
    }
  } catch (const std::exception& e) {
    ++result.attempted;
    ++result.failed;
    result.fail(std::string("exception: ") + e.what());
    status = 1;
  }
  if (opts.calibrate) return status;

  // Every metric BENCHMARK.json declares for this trace level is reported,
  // in declaration order and with the declared unit.
  const std::vector<Metric>& measured =
      opts.trace ? result.per_layer : result.end_to_end;
  std::vector<Metric> shown;
  for (const auto& [name, unit] : declared) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == measured.end()) {
      result.fail("metric " + name + " was not measured");
    } else if (it->unit != unit) {
      result.fail("metric " + name + " is measured in " + it->unit +
                  ", declared in " + unit);
    } else {
      shown.push_back(*it);
    }
  }
  if (opts.trace) {
    const std::string span_path = opts.out_dir + "/spans." + cfg.name + ".seed" +
                                  std::to_string(opts.seed) + ".json";
    std::ofstream(span_path) << spans.to_json();
    std::printf("\nspans written to %s\nself time:\n%s", span_path.c_str(),
                spans.self_time_table().c_str());
  }

  std::printf("\n%s (design seed %llu, %zu gates, run seed %llu): %s\n",
              cfg.name.c_str(), static_cast<unsigned long long>(cfg.design_seed),
              cfg.gates, static_cast<unsigned long long>(opts.seed),
              result.correct ? "verified" : "VERIFICATION FAILED");
  for (const std::string& p : result.problems)
    std::printf("  problem: %s\n", p.c_str());
  std::printf("  ops %zu, ops_failed %zu\n", result.attempted, result.failed);
  for (const Metric& m : shown)
    std::printf("  %-28s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted, result.failed,
              metrics_json(shown).c_str());
  std::fflush(stdout);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::RunOptions opts = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cirstag_perfbench: %s\n", e.what());
    return 1;
  }
}
