// cirstag_cli — command-line front end for the CirSTAG library.
//
//   cirstag_cli generate <out.ckt> [--name N] [--gates G] [--seed S]
//   cirstag_cli sta <in.ckt> [--paths K] [--clock T]
//   cirstag_cli analyze <in.ckt> [--scores out.csv] [--epochs E] [--top K]
//   cirstag_cli sweep <in.ckt> [--variants N] [--pins-per-variant K]
//   cirstag_cli montecarlo <in.ckt> [--samples N]
//   cirstag_cli corners <in.ckt>
//   cirstag_cli snapshot <in.ckt> <out.snap> [--epochs E] [--exact 0|1]
//   cirstag_cli serve [--port N] [--workers W] [--preload in.ckt]
//                     [--preload-snapshot in.snap]
//   cirstag_cli help | --version
//
// Every command accepts --threads N to size the parallel runtime pool
// (CIRSTAG_THREADS env var is the default; results are identical at any
// thread count). Netlists use the plain-text "cirstag-netlist 1" format
// (circuit/io.hpp).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <cmath>
#include <csignal>
#include <unistd.h>

#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "circuit/slack.hpp"
#include "circuit/variation.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "io/snapshot.hpp"
#include "linalg/rng.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "kernels/kernels.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/ascii.hpp"
#include "util/csv.hpp"

namespace {

using namespace cirstag;
using namespace cirstag::circuit;

constexpr const char* kUsage =
    "usage: cirstag_cli <command> [args] [--flag value ...]\n"
    "\n"
    "commands:\n"
    "  generate <out.ckt>   synthesize a random netlist\n"
    "                       [--name N] [--gates G] [--inputs I] [--outputs O]\n"
    "                       [--levels L] [--seed S]\n"
    "  sta <in.ckt>         golden static timing analysis\n"
    "                       [--paths K] [--clock T]\n"
    "  analyze <in.ckt>     train GNN surrogate + CirSTAG stability scores\n"
    "                       [--scores out.csv] [--epochs E] [--hidden H]\n"
    "                       [--top K] [--coarsen auto|off]\n"
    "                       [--perf-json out.json]\n"
    "  sweep <in.ckt>       batched Case-A perturbation sweep: analyze N\n"
    "                       capacitance-scaled variants through the sweep\n"
    "                       engine (shared baseline, incremental STA/GNN,\n"
    "                       cross-variant reuse)\n"
    "                       [--variants N] [--pins-per-variant K]\n"
    "                       [--factor F] [--exact 0|1] [--epochs E]\n"
    "                       [--hidden H] [--seed S] [--scores out.csv]\n"
    "  montecarlo <in.ckt>  Monte-Carlo STA under process variation\n"
    "                       [--samples N] [--seed S]\n"
    "  corners <in.ckt>     corner-based STA sweep\n"
    "  snapshot <in.ckt> <out.snap>\n"
    "                       train the GNN, capture the sweep baseline, and\n"
    "                       write a binary warm-state snapshot (DESIGN.md\n"
    "                       §13); restore it with `serve --preload-snapshot`\n"
    "                       or /load {\"snapshot\": ...} — no retraining and\n"
    "                       zero eigensolves on restore\n"
    "                       [--epochs E] [--hidden H] [--exact 0|1]\n"
    "  serve                resident analysis daemon: keeps circuits (GNN +\n"
    "                       sweep baseline + warm solver cache) loaded and\n"
    "                       answers HTTP/1.1+JSON requests on 127.0.0.1\n"
    "                       endpoints: /load /unload /analyze /sweep\n"
    "                       /score-region /top-k /health /metrics /stats\n"
    "                       [--port N] [--workers W] [--queue-capacity Q]\n"
    "                       [--max-batch B] [--deadline-ms D]\n"
    "                       [--preload in.ckt] [--preload-name NAME]\n"
    "                       [--preload-snapshot in.snap]\n"
    "                       [--epochs E] [--hidden H] [--exact 0|1]\n"
    "                       [--access-log PATH]  per-request JSONL log\n"
    "                       [--slow-trace PATH]  slow-request exemplars\n"
    "                       [--slow-us T]        exemplar latency threshold\n"
    "                                            (captures are rate-limited)\n"
    "  help                 print this message\n"
    "  --version            print build identity (git describe, build type,\n"
    "                       compiler) and exit\n"
    "\n"
    "Every command rejects an option it does not read (exit 2).\n"
    "\n"
    "global flags:\n"
    "  --threads N          parallel runtime pool width (default: the\n"
    "                       CIRSTAG_THREADS env var, else hardware threads;\n"
    "                       scores are bit-identical at every setting)\n"
    "  --trace-json PATH    record trace spans and write a Chrome Trace\n"
    "                       Event Format file (open in chrome://tracing or\n"
    "                       Perfetto); instrumentation never changes results\n"
    "  --metrics-json PATH  write the aggregated metrics registry (counters,\n"
    "                       gauges, histograms with p50/p95/p99) as JSON on\n"
    "                       exit, with the run's health report embedded\n"
    "                       (and the profile summary with --profile-folded)\n"
    "  --profile-folded P   write the exact self thread-time (microseconds)\n"
    "                       of every span path to P as folded stacks\n"
    "                       (flamegraph.pl / inferno / speedscope input)\n"
    "  --manifest-json P    write a run-provenance manifest (git describe,\n"
    "                       build flags, resolved config, seeds, per-phase\n"
    "                       FNV-1a checksums) to P\n"
    "  --log-json PATH      mirror diagnostics as JSON lines to PATH\n"
    "  --log-level L        debug|info|warn|error|off (default: the\n"
    "                       CIRSTAG_LOG_LEVEL env var, else info)\n"
    "\n"
    "The kernel table is AVX2+FMA when the CPU has it; CIRSTAG_SIMD=off\n"
    "forces the portable scalar path (bit-identical results).\n"
    "\n"
    "analyze knobs:\n"
    "  --coarsen auto|off   multilevel eigensolver (DESIGN.md §12): 'auto'\n"
    "                       (default) coarsens graphs at or above the\n"
    "                       engagement threshold and solves coarse-to-fine;\n"
    "                       'off' always runs the exact single-level path\n"
    "                       (byte-identical to historical results; small\n"
    "                       graphs are byte-identical under both settings)\n"
    "  --perf-json PATH     write a benchmark-shaped JSON report with the\n"
    "                       run's deterministic counters (coarsen.levels,\n"
    "                       coarsen.coarsest_n, eigen.ritz_refine_sweeps,\n"
    "                       eigen.runs) for the CI counter gate\n";

/// Options every command reads through apply_global_flags.
constexpr std::string_view kGlobalOptions[] = {
    "threads",      "log-level",      "log-json",     "trace-json",
    "metrics-json", "profile-folded", "manifest-json"};

/// "--key value" option map for everything after the positional args.
/// `accepted` lists the command's own keys; any other key that is not a
/// global option is a usage error, so a misspelt or retired flag fails
/// loudly instead of silently running with defaults. A trailing flag with
/// no value is an error too.
std::map<std::string, std::string> parse_options(
    int argc, char** argv, int start,
    std::initializer_list<std::string_view> accepted) {
  std::map<std::string, std::string> opts;
  for (int i = start; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      obs::logf_error("cli", "unexpected argument '%s'", argv[i]);
      std::exit(2);
    }
    const std::string_view key = argv[i] + 2;
    const auto known = [&](std::string_view k) { return k == key; };
    if (std::none_of(std::begin(kGlobalOptions), std::end(kGlobalOptions),
                     known) &&
        std::none_of(accepted.begin(), accepted.end(), known)) {
      obs::logf_error("cli", "unknown option '%s' for command '%s'", argv[i],
                      argv[1]);
      std::exit(2);
    }
    if (i + 1 >= argc) {
      obs::logf_error("cli", "missing value for option '%s'", argv[i]);
      std::exit(2);
    }
    opts[argv[i] + 2] = argv[i + 1];
  }
  return opts;
}

[[noreturn]] void bad_option_value(const std::string& key,
                                   const std::string& value,
                                   const char* expected) {
  obs::logf_error("cli", "invalid value '%s' for option '--%s' (expected %s)",
                  value.c_str(), key.c_str(), expected);
  std::exit(2);
}

double opt_double(const std::map<std::string, std::string>& opts,
                  const std::string& key, double fallback) {
  const auto it = opts.find(key);
  if (it == opts.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    bad_option_value(key, it->second, "a number");
  }
}

std::size_t opt_size(const std::map<std::string, std::string>& opts,
                     const std::string& key, std::size_t fallback) {
  const auto it = opts.find(key);
  if (it == opts.end()) return fallback;
  try {
    // std::stoull accepts a leading minus and wraps it ("-1" reads 2^64-1).
    if (it->second.find('-') != std::string::npos)
      throw std::invalid_argument(it->second);
    std::size_t pos = 0;
    const auto v = std::stoull(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    bad_option_value(key, it->second, "a non-negative integer");
  }
}

/// opt_size for an option with a range: a value outside [lo, hi] is a usage
/// error too, so a narrowing cast after it cannot wrap.
std::size_t opt_size_in(const std::map<std::string, std::string>& opts,
                        const std::string& key, std::size_t fallback,
                        std::size_t lo, std::size_t hi) {
  const std::size_t v = opt_size(opts, key, fallback);
  if (v < lo || v > hi) {
    const std::string range = "an integer in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]";
    bad_option_value(key, opts.at(key), range.c_str());
  }
  return v;
}

std::string opt_str(const std::map<std::string, std::string>& opts,
                    const std::string& key, const std::string& fallback) {
  const auto it = opts.find(key);
  return it == opts.end() ? fallback : it->second;
}

/// Output paths of --trace-json / --metrics-json / --profile-folded /
/// --manifest-json; written by main() after the command returns so the
/// files cover the whole run.
std::string g_trace_path;
std::string g_metrics_path;
std::string g_profile_path;
std::string g_manifest_path;
std::uint64_t g_health_begin = 0;

/// Set when a requested artifact file could not be written; main() then
/// exits 1 even though the command itself succeeded.
bool g_write_failed = false;

/// Write one requested artifact through obs::write_text. A failure names the
/// path and fails the run, but never stops the remaining sinks.
bool write_artifact(const char* what, const std::string& path,
                    const std::string& text) {
  if (obs::write_text(path, text)) return true;
  obs::logf_error("cli", "cannot write %s to %s", what, path.c_str());
  g_write_failed = true;
  return false;
}

/// The command's root span (`cli.<command>`) while it is open, and its wall
/// and child-covered seconds once captured; the "profile" section's
/// attribution_fraction is their ratio.
const obs::TraceSpan* g_root = nullptr;
double g_root_seconds = 0.0;
double g_root_covered_seconds = 0.0;

void capture_root_span() {
  if (g_root == nullptr) return;
  g_root_seconds = g_root->seconds();
  g_root_covered_seconds = g_root->child_seconds();
}

double root_attribution() {
  return g_root_seconds > 0.0
             ? std::clamp(g_root_covered_seconds / g_root_seconds, 0.0, 1.0)
             : 0.0;
}

/// The "profile" section of --metrics-json: the root span's wall time, the
/// share of it covered by child spans, and self thread-time per leaf span.
std::string profile_json() {
  std::map<std::string, double> self_us;
  for (const auto& [path, us] : obs::Tracer::global().folded()) {
    const std::size_t cut = path.rfind(';');
    self_us[cut == std::string::npos ? path : path.substr(cut + 1)] += us;
  }
  obs::JsonWriter w;
  w.begin_object()
      .field("duration_seconds", g_root_seconds)
      .field("attribution_fraction", root_attribution())
      .key("self_us")
      .begin_object();
  for (const auto& [name, us] : self_us) w.field(name, std::llround(us));
  return w.end_object().end_object().take();
}

/// Honors the global flags every command accepts: --threads sizes the pool
/// (a width above runtime::kMaxThreads is a usage error, before any pool
/// exists), --trace-json / --metrics-json / --profile-folded /
/// --manifest-json arm the observability sinks, --log-level / --log-json
/// configure the structured logger.
void apply_global_flags(const std::map<std::string, std::string>& opts) {
  const std::size_t n =
      opt_size_in(opts, "threads", 0, 0, runtime::kMaxThreads);
  if (n > 0) runtime::set_global_threads(n);

  const std::string level = opt_str(opts, "log-level", "");
  if (!level.empty()) {
    const auto parsed =
        obs::parse_log_level(level.c_str(), obs::LogLevel::off);
    if (parsed == obs::LogLevel::off && level != "off")
      bad_option_value("log-level", level,
                       "debug|info|warn|error|off");
    obs::Logger::global().set_level(parsed);
  }
  const std::string log_json = opt_str(opts, "log-json", "");
  if (!log_json.empty() && !obs::Logger::global().set_json_path(log_json))
    obs::logf_error("cli", "cannot open log sink %s", log_json.c_str());

  g_health_begin = obs::HealthMonitor::global().next_index();

  g_trace_path = opt_str(opts, "trace-json", "");
  g_metrics_path = opt_str(opts, "metrics-json", "");
  g_profile_path = opt_str(opts, "profile-folded", "");
  g_manifest_path = opt_str(opts, "manifest-json", "");
  if (!g_trace_path.empty()) obs::Tracer::global().set_enabled(true);
  if (!g_profile_path.empty()) obs::Tracer::global().set_profiling(true);
}

/// Flush the observability sinks (no-ops when the flags were absent).
void write_observability_outputs() {
  capture_root_span();
  if (!g_profile_path.empty() &&
      write_artifact("profile", g_profile_path,
                     obs::Tracer::global().to_folded()))
    std::printf("profile written to %s (%.0f%% of %.2fs in child spans)\n",
                g_profile_path.c_str(), 100.0 * root_attribution(),
                g_root_seconds);
  const obs::HealthReport health =
      obs::HealthMonitor::global().collect_since(g_health_begin);
  if (!health.ok()) {
    obs::log_warn(
        "health",
        "run recorded " +
            std::to_string(health.count(obs::HealthSeverity::warning)) +
            " warning(s) and " +
            std::to_string(health.count(obs::HealthSeverity::error)) +
            " error(s); see --metrics-json \"health\" section");
  }
  if (!g_trace_path.empty() &&
      write_artifact("trace", g_trace_path,
                     obs::Tracer::global().to_chrome_json() + '\n'))
    std::printf("trace written to %s\n", g_trace_path.c_str());
  if (!g_metrics_path.empty()) {
    std::vector<std::pair<std::string, std::string>> extra;
    extra.emplace_back("health", health.to_json());
    if (!g_profile_path.empty())
      extra.emplace_back("profile", profile_json());
    if (write_artifact("metrics", g_metrics_path,
                       obs::MetricsRegistry::global().to_json(extra) + '\n'))
      std::printf("metrics written to %s\n", g_metrics_path.c_str());
  }
}

/// Start the --manifest-json document: build section (baked in by the
/// builder) plus the "run" section every command shares.
obs::ManifestBuilder make_manifest(const char* command,
                                   const std::string& netlist_path) {
  obs::ManifestBuilder mb;
  mb.set("run", "command", command);
  mb.set("run", "netlist", netlist_path);
  mb.set("run", "threads", runtime::global_pool().num_threads());
  mb.set("run", "simd", kernels::active_isa());
  mb.set("run", "profiler_enabled", !g_profile_path.empty());
  return mb;
}

/// Write the manifest when --manifest-json was given (no-op otherwise).
void write_manifest(const obs::ManifestBuilder& mb) {
  if (!g_manifest_path.empty() &&
      write_artifact("manifest", g_manifest_path, mb.to_json() + '\n'))
    std::printf("manifest written to %s\n", g_manifest_path.c_str());
}

// ---------------------------------------------------------------------------
// Signal handling
//
// SIGINT/SIGTERM must not lose the run's observability artifacts: a profiled
// multi-minute sweep that gets Ctrl-C'd should still leave its
// --metrics-json / --trace-json / --profile-folded / --manifest-json files
// behind. Two modes:
//   - serve: the handler only sets a flag; the accept loop polls it and
//     turns it into a graceful drain, after which main() flushes the sinks
//     through the normal exit path.
//   - batch commands: there is no event loop to poll a flag, so the handler
//     flushes the sinks directly and exits 128+sig. That flush is not
//     strictly async-signal-safe (it allocates and writes files), which is
//     an accepted trade on this diagnostics-only path: the alternative is
//     losing the artifacts entirely, and a second signal always forces an
//     immediate exit.

std::atomic<int> g_signal_received{0};
std::atomic<bool> g_serve_mode{false};

extern "C" void cli_handle_signal(int sig) {
  int expected = 0;
  if (!g_signal_received.compare_exchange_strong(expected, sig))
    std::_Exit(128 + sig);  // second signal: give up on graceful paths
  if (g_serve_mode.load(std::memory_order_relaxed)) return;
  write_observability_outputs();
  std::_Exit(128 + sig);
}

void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = cli_handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int cmd_serve(int argc, char** argv) {
  const auto opts = parse_options(
      argc, argv, 2,
      {"port", "queue-capacity", "workers", "max-batch", "deadline-ms",
       "access-log", "slow-trace", "slow-us", "preload", "preload-snapshot",
       "preload-name", "epochs", "hidden", "exact"});
  apply_global_flags(opts);

  serve::ServerOptions sopts;
  sopts.port =
      static_cast<std::uint16_t>(opt_size_in(opts, "port", 8437, 0, 65535));
  sopts.scheduler.queue_capacity = opt_size(opts, "queue-capacity", 256);
  sopts.scheduler.workers =
      opt_size_in(opts, "workers", 2, 0, runtime::kMaxThreads);
  sopts.scheduler.max_batch_size = opt_size(opts, "max-batch", 8);
  sopts.scheduler.default_deadline_ms = static_cast<int>(
      opt_size_in(opts, "deadline-ms", 60000, 1, serve::kMaxDeadlineMs));

  // Request-log sinks: access log (one JSONL line per request) and slow
  // exemplars (span tree + folded profile for requests over --slow-us).
  {
    auto& rlog = obs::RequestLog::global();
    rlog.set_access_log_path(opt_str(opts, "access-log", ""));
    rlog.set_exemplar_path(opt_str(opts, "slow-trace", ""));
    const std::size_t slow_us = opt_size(opts, "slow-us", 0);
    rlog.set_slow_threshold_us(slow_us == 0 ? -1.0
                                            : static_cast<double>(slow_us));
  }

  serve::Server server(sopts);
  std::string error;
  if (!server.start(error)) {
    obs::logf_error("serve", "cannot listen on 127.0.0.1:%zu: %s",
                    static_cast<std::size_t>(sopts.port), error.c_str());
    return 1;
  }

  // Optional warm start: load a circuit before accepting, so scripted
  // drivers (CI smoke, bench) skip shipping the netlist over HTTP.
  // --preload parses + trains from a netlist; --preload-snapshot restores
  // a `cirstag_cli snapshot` file without training or eigensolves.
  const std::string preload = opt_str(opts, "preload", "");
  const std::string preload_snapshot = opt_str(opts, "preload-snapshot", "");
  if (!preload.empty() && !preload_snapshot.empty()) {
    obs::log_error("serve", "--preload and --preload-snapshot are mutually "
                            "exclusive (they would race for the same name)");
    return 2;
  }
  if (!preload_snapshot.empty()) {
    const std::string name = opt_str(opts, "preload-name", "preload");
    const auto loaded =
        server.service().registry.load_from_snapshot(name, preload_snapshot);
    if (loaded.record == nullptr) {
      obs::logf_error("serve", "snapshot preload of %s failed: %s",
                      preload_snapshot.c_str(), loaded.error.c_str());
      return 1;
    }
  }
  if (!preload.empty()) {
    serve::LoadOptions lopts;
    lopts.gnn_epochs = opt_size(opts, "epochs", 300);
    lopts.gnn_hidden = opt_size(opts, "hidden", 24);
    lopts.exact = opt_size(opts, "exact", 1) != 0;
    const std::string name = opt_str(opts, "preload-name", "preload");
    const auto loaded =
        server.service().registry.load_from_path(name, preload, lopts);
    if (loaded.record == nullptr) {
      obs::logf_error("serve", "preload of %s failed: %s", preload.c_str(),
                      loaded.error.c_str());
      return 1;
    }
  }

  g_serve_mode.store(true, std::memory_order_relaxed);
  std::printf("cirstag serve: listening on 127.0.0.1:%u (pid %ld)\n",
              static_cast<unsigned>(server.port()),
              static_cast<long>(getpid()));
  std::fflush(stdout);  // scripts wait for this line before driving load

  server.serve_forever(
      [] { return g_signal_received.load(std::memory_order_relaxed) != 0; });

  const int sig = g_signal_received.load(std::memory_order_relaxed);
  if (sig != 0)
    obs::logf_info("serve", "signal %d: drained and stopped", sig);
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli generate <out.ckt> [options]\n");
    return 2;
  }
  const auto opts = parse_options(
      argc, argv, 3, {"name", "gates", "inputs", "outputs", "levels", "seed"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();

  RandomCircuitSpec spec;
  spec.name = opt_str(opts, "name", "cli_design");
  spec.num_gates = opt_size(opts, "gates", 1000);
  spec.num_inputs = opt_size(opts, "inputs", std::max<std::size_t>(
                                                  16, spec.num_gates / 40));
  spec.num_outputs = opt_size(opts, "outputs", std::max<std::size_t>(
                                                   8, spec.num_gates / 80));
  spec.num_levels = opt_size(opts, "levels", 12);
  spec.seed = opt_size(opts, "seed", 1);

  const Netlist nl = generate_random_logic(lib, spec);
  save_netlist(argv[2], nl);
  std::printf("wrote %s: %zu gates, %zu pins, %zu nets\n", argv[2],
              nl.num_gates(), nl.num_pins(), nl.num_nets());

  obs::ManifestBuilder mb = make_manifest("generate", argv[2]);
  mb.set("config", "gates", spec.num_gates);
  mb.set("config", "seed", spec.seed);
  write_manifest(mb);
  return 0;
}

int cmd_sta(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli sta <in.ckt> [options]\n");
    return 2;
  }
  const auto opts = parse_options(argc, argv, 3, {"paths", "clock"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);
  const TimingReport timing = run_sta(nl);
  const double clock = opt_double(opts, "clock", 0.0);
  const SlackReport slack = compute_slack(nl, timing, {}, clock);

  std::printf("design: %zu gates, %zu pins, %zu outputs\n", nl.num_gates(),
              nl.num_pins(), nl.primary_outputs().size());
  std::printf("worst arrival: %.4f\n", timing.worst_arrival);
  std::printf("worst slack:   %.4f (pin %u)\n", slack.worst_slack,
              slack.worst_pin);

  const auto k = opt_size(opts, "paths", 3);
  const auto paths = critical_paths(nl, timing, {}, k);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::printf("path %zu: arrival %.4f, %zu pins:", i + 1, paths[i].arrival,
                paths[i].pins.size());
    for (PinId p : paths[i].pins) std::printf(" %u", p);
    std::printf("\n");
  }
  write_manifest(make_manifest("sta", argv[2]));
  return 0;
}

/// --coarsen -> the policy of both eigensolver phases (Phase-1 embedding,
/// Phase-3 generalized).
void apply_coarsen_flag(const std::map<std::string, std::string>& opts,
                        core::CirStagConfig& cfg) {
  const std::string mode = opt_str(opts, "coarsen", "auto");
  if (mode == "off") {
    cfg.embedding.coarsen.mode = graphs::CoarsenMode::off;
    cfg.stability.coarsen.mode = graphs::CoarsenMode::off;
  } else if (mode != "auto") {
    bad_option_value("coarsen", mode, "'auto' or 'off'");
  }
}

/// One benchmark-shaped row of the run's deterministic counters, consumed by
/// the same tools/check_bench_regression.py gate the benches feed (wall_ms
/// rides along ungated).
void write_perf_json(const std::string& path, std::size_t pins,
                     double wall_ms) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::JsonWriter w;
  w.begin_object().key("context").begin_object();
  w.field("executable", "cirstag_cli").end_object();
  w.key("benchmarks").begin_array().begin_object();
  w.field("name", "CLI_Analyze/" + std::to_string(pins))
      .field("run_type", "iteration")
      .field("iterations", 1)
      .field("time_unit", "ms")
      .field("real_time", wall_ms)
      .field("coarsen_levels", reg.gauge_value("coarsen.levels"))
      .field("coarsen_coarsest_n", reg.gauge_value("coarsen.coarsest_n"))
      .field("ritz_refine_sweeps",
             reg.counter_value("eigen.ritz_refine_sweeps"))
      .field("eigen_runs", reg.counter_value("eigen.runs"))
      .field("wall_ms", wall_ms);
  w.end_object().end_array().end_object();
  if (write_artifact("perf report", path, w.take() + '\n'))
    std::printf("perf report written to %s\n", path.c_str());
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli analyze <in.ckt> [options]\n");
    return 2;
  }
  const auto opts = parse_options(
      argc, argv, 3,
      {"scores", "epochs", "hidden", "top", "coarsen", "perf-json"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);

  // Validate the knob before the (slow) GNN training step.
  core::CirStagConfig cfg;
  apply_coarsen_flag(opts, cfg);

  std::printf("training timing GNN surrogate...\n");
  gnn::TimingGnnOptions gopts;
  gopts.epochs = opt_size(opts, "epochs", 300);
  gopts.hidden_dim = opt_size(opts, "hidden", 24);
  gnn::TimingGnn model(nl, gopts);
  const auto stats = model.train();
  std::printf("  R2 = %.4f\n", stats.r2);

  std::printf("running CirSTAG...\n");
  const core::CirStag analyzer(cfg);
  const auto report =
      analyzer.analyze(pin_graph(nl), model.base_features(),
                       model.embed(model.base_features()));
  const double analyze_ms = report.timings.total() * 1e3;
  std::printf("  DMD spectrum head: %.4g %.4g %.4g\n", report.eigenvalues[0],
              report.eigenvalues[1], report.eigenvalues[2]);
  std::printf("  timings: embed %.2fs manifold %.2fs stability %.2fs "
              "(%zu threads, %.2fs parallel busy)\n",
              report.timings.embedding_seconds,
              report.timings.manifold_seconds,
              report.timings.stability_seconds, report.timings.threads,
              report.timings.total_busy());

  const auto top = opt_size(opts, "top", 10);
  std::vector<std::size_t> order(nl.num_pins());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.node_scores[a] > report.node_scores[b];
  });
  util::AsciiTable table({"rank", "pin", "score", "kind", "cap"});
  const char* kinds[] = {"PI", "PO", "cell-in", "cell-out"};
  for (std::size_t i = 0; i < std::min(top, order.size()); ++i) {
    const auto p = static_cast<PinId>(order[i]);
    table.add_row({std::to_string(i + 1), std::to_string(p),
                   util::fmt(report.node_scores[p], 6),
                   kinds[static_cast<int>(nl.pin(p).kind)],
                   util::fmt(nl.pin(p).capacitance, 3)});
  }
  std::printf("%s", table.to_string().c_str());

  const std::string csv_path = opt_str(opts, "scores", "");
  if (!csv_path.empty()) {
    util::CsvWriter csv({"pin", "score"});
    for (PinId p = 0; p < nl.num_pins(); ++p)
      csv.add_row(std::vector<double>{static_cast<double>(p),
                                      report.node_scores[p]});
    csv.save(csv_path);
    std::printf("scores written to %s\n", csv_path.c_str());
  }

  const std::string perf_path = opt_str(opts, "perf-json", "");
  if (!perf_path.empty()) write_perf_json(perf_path, nl.num_pins(), analyze_ms);

  obs::ManifestBuilder mb = make_manifest("analyze", argv[2]);
  mb.set("config", "epochs", gopts.epochs);
  mb.set("config", "hidden_dim", gopts.hidden_dim);
  mb.set("config", "gnn_seed", gopts.seed);
  mb.set("config", "probes", cfg.manifold.sparsify.resistance.num_probes);
  mb.set("config", "coarsen",
         cfg.embedding.coarsen.mode != graphs::CoarsenMode::off);
  mb.set("config", "coarsen_levels", cfg.embedding.coarsen.max_levels);
  mb.set_checksums("checksums", report.checksums);
  write_manifest(mb);
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli sweep <in.ckt> [options]\n");
    return 2;
  }
  const auto opts = parse_options(
      argc, argv, 3,
      {"variants", "pins-per-variant", "factor", "seed", "epochs", "hidden",
       "exact", "scores"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);

  const auto num_variants = opt_size(opts, "variants", 16);
  const auto pins_per_variant = opt_size(opts, "pins-per-variant", 4);
  const double factor = opt_double(opts, "factor", 5.0);
  const auto seed = opt_size(opts, "seed", 1);

  std::printf("training timing GNN surrogate...\n");
  gnn::TimingGnnOptions gopts;
  gopts.epochs = opt_size(opts, "epochs", 300);
  gopts.hidden_dim = opt_size(opts, "hidden", 24);
  gnn::TimingGnn model(nl, gopts);
  std::printf("  R2 = %.4f\n", model.train().r2);

  core::SweepOptions sopts;
  sopts.exact = opt_size(opts, "exact", 0) != 0;
  std::printf("capturing sweep baseline (%s mode)...\n",
              sopts.exact ? "exact" : "fast");
  core::SweepEngine engine(nl, model, sopts);
  std::printf("  baseline: %.2fs, worst arrival %.4f, top eig %.4g\n",
              engine.stats().baseline_seconds,
              engine.baseline_timing().worst_arrival,
              engine.baseline().eigenvalues.empty()
                  ? 0.0
                  : engine.baseline().eigenvalues[0]);

  // Random Case-A variants: each scales a small pin cohort's capacitance.
  std::vector<core::SweepVariant> variants(num_variants);
  linalg::Rng rng(seed);
  for (auto& v : variants)
    for (std::size_t p = 0; p < pins_per_variant; ++p)
      v.cap_scalings.push_back(
          {static_cast<PinId>(rng.index(nl.num_pins())), factor});

  std::printf("running %zu-variant sweep...\n", variants.size());
  const auto results = engine.run(variants);

  const auto& base_scores = engine.baseline().node_scores;
  double base_norm2 = 0.0;
  for (double s : base_scores) base_norm2 += s * s;
  const auto score_shift = [&](const std::vector<double>& scores) {
    double d2 = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const double d = scores[i] - base_scores[i];
      d2 += d * d;
    }
    return base_norm2 > 0.0 ? std::sqrt(d2 / base_norm2) : 0.0;
  };

  util::AsciiTable table({"variant", "worst_arrival", "score_shift",
                          "sta_cone", "gnn_rows", "sweeps"});
  util::CsvWriter csv({"variant", "worst_arrival", "score_shift", "sta_cone",
                       "gnn_rows", "subspace_sweeps"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double shift = score_shift(r.report.node_scores);
    table.add_row({std::to_string(i), util::fmt(r.worst_arrival, 4),
                   util::fmt(shift, 4),
                   util::fmt(r.stats.sta.cone_fraction(), 3),
                   util::fmt(r.stats.gnn.row_fraction(), 3),
                   std::to_string(r.stats.subspace_sweeps)});
    csv.add_row({std::to_string(i), util::fmt(r.worst_arrival, 6),
                 util::fmt(shift, 6), util::fmt(r.stats.sta.cone_fraction(), 6),
                 util::fmt(r.stats.gnn.row_fraction(), 6),
                 std::to_string(r.stats.subspace_sweeps)});
  }
  std::printf("%s", table.to_string().c_str());

  const auto& sw = engine.stats();
  std::printf("sweep: %zu variants in %.2fs (baseline %.2fs)\n", sw.variants,
              sw.sweep_seconds, sw.baseline_seconds);
  std::printf("  reuse: STA cone %.3f, GNN rows %.3f, subspace sweeps %.3f "
              "of budget, solver-cache hits %zu\n",
              sw.avg_sta_cone_fraction, sw.avg_gnn_row_fraction,
              sw.avg_subspace_sweep_fraction, sw.solver_cache_hits);
  if (!sopts.exact)
    std::printf("  (fast mode: scores within %.2f relative L2 of the naive "
                "per-variant loop; --exact 1 for byte-identical reports)\n",
                core::kFastScoreDriftTolerance);

  const std::string csv_path = opt_str(opts, "scores", "");
  if (!csv_path.empty()) {
    csv.save(csv_path);
    std::printf("per-variant summary written to %s\n", csv_path.c_str());
  }

  obs::ManifestBuilder mb = make_manifest("sweep", argv[2]);
  mb.set("config", "variants", num_variants);
  mb.set("config", "pins_per_variant", pins_per_variant);
  mb.set("config", "factor", factor);
  mb.set("config", "variant_seed", seed);
  mb.set("config", "exact", sopts.exact);
  mb.set("config", "epochs", gopts.epochs);
  mb.set("config", "hidden_dim", gopts.hidden_dim);
  mb.set_checksums("checksums", engine.baseline().checksums);
  write_manifest(mb);
  return 0;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: cirstag_cli snapshot <in.ckt> <out.snap> [options]\n");
    return 2;
  }
  const auto opts =
      parse_options(argc, argv, 4, {"epochs", "hidden", "exact"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);

  std::printf("training timing GNN surrogate...\n");
  gnn::TimingGnnOptions gopts;
  gopts.epochs = opt_size(opts, "epochs", 300);
  gopts.hidden_dim = opt_size(opts, "hidden", 24);
  gnn::TimingGnn model(nl, gopts);
  const auto stats = model.train();
  std::printf("  R2 = %.4f\n", stats.r2);

  core::SweepOptions sopts;
  sopts.exact = opt_size(opts, "exact", 1) != 0;
  std::printf("capturing sweep baseline (%s mode)...\n",
              sopts.exact ? "exact" : "fast");
  core::SweepEngine engine(nl, model, sopts);
  std::printf("  baseline: %.2fs, worst arrival %.4f\n",
              engine.stats().baseline_seconds,
              engine.baseline_timing().worst_arrival);

  io::SnapshotMeta meta;
  meta.exact = sopts.exact;
  meta.train_r2 = stats.r2;
  io::write_snapshot(argv[3], model, engine, meta);
  const double bytes =
      obs::MetricsRegistry::global().gauge_value("snapshot.bytes");
  std::printf("snapshot written to %s (%.1f MiB, %s mode)\n", argv[3],
              bytes / (1024.0 * 1024.0), sopts.exact ? "exact" : "fast");

  obs::ManifestBuilder mb = make_manifest("snapshot", argv[2]);
  mb.set("config", "snapshot_path", argv[3]);
  mb.set("config", "epochs", gopts.epochs);
  mb.set("config", "hidden_dim", gopts.hidden_dim);
  mb.set("config", "exact", sopts.exact);
  mb.set_checksums("checksums", engine.baseline().checksums);
  write_manifest(mb);
  return 0;
}

int cmd_montecarlo(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli montecarlo <in.ckt> [options]\n");
    return 2;
  }
  const auto opts = parse_options(argc, argv, 3, {"seed", "samples"});
  apply_global_flags(opts);
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);

  VariationModel model;
  model.seed = opt_size(opts, "seed", 1234);
  const auto samples = opt_size(opts, "samples", 200);
  const auto res = monte_carlo_sta(nl, model, samples);
  std::printf("Monte-Carlo STA over %zu samples:\n", res.samples);
  std::printf("  worst arrival: mean %.4f  std %.4f  p95 %.4f\n",
              res.worst_mean, res.worst_std, res.worst_p95);
  std::printf("  nominal: %.4f\n", run_sta(nl).worst_arrival);
  obs::ManifestBuilder mb = make_manifest("montecarlo", argv[2]);
  mb.set("config", "samples", samples);
  mb.set("config", "seed", model.seed);
  write_manifest(mb);
  return 0;
}

int cmd_corners(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: cirstag_cli corners <in.ckt>\n");
    return 2;
  }
  apply_global_flags(parse_options(argc, argv, 3, {}));
  const CellLibrary lib = CellLibrary::standard();
  const Netlist nl = load_netlist(argv[2], lib);
  const auto corners = standard_corners();
  const auto results = corner_analysis(nl, corners);
  for (std::size_t i = 0; i < corners.size(); ++i)
    std::printf("  %-8s (x%.2f): worst arrival %.4f\n", corners[i].name,
                corners[i].delay_scale, results[i]);
  write_manifest(make_manifest("corners", argv[2]));
  return 0;
}

struct Command {
  std::string_view name;
  const char* span;  ///< root span the whole command runs under
  int (*run)(int, char**);
};

constexpr Command kCommands[] = {
    {"generate", "cli.generate", cmd_generate},
    {"sta", "cli.sta", cmd_sta},
    {"analyze", "cli.analyze", cmd_analyze},
    {"sweep", "cli.sweep", cmd_sweep},
    {"snapshot", "cli.snapshot", cmd_snapshot},
    {"montecarlo", "cli.montecarlo", cmd_montecarlo},
    {"corners", "cli.corners", cmd_corners},
    {"serve", "cli.serve", cmd_serve},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::printf("%s", kUsage);
    return 0;
  }
  if (cmd == "--version" || cmd == "version") {
    const cirstag::obs::BuildInfo& info = cirstag::obs::build_info();
    std::printf("cirstag %s (%s; %s)\n", info.git_describe.c_str(),
                info.build_type.c_str(), info.compiler.c_str());
    return 0;
  }
  install_signal_handlers();
  try {
    for (const Command& c : kCommands) {
      if (cmd != c.name) continue;
      int rc = 0;
      {
        const cirstag::obs::TraceSpan root(c.span, "cli");
        g_root = &root;
        rc = c.run(argc, argv);
        capture_root_span();
        g_root = nullptr;
      }
      // Flush after the root span closes so the outputs cover the whole run.
      write_observability_outputs();
      return (rc == 0 && g_write_failed) ? 1 : rc;
    }
  } catch (const std::exception& e) {
    g_root = nullptr;
    cirstag::obs::log_error("cli", e.what());
    return 1;
  }
  cirstag::obs::logf_error("cli", "unknown command '%s'", cmd.c_str());
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}
