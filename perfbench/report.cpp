// Span store, registry deltas, statistics and reference rankings.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "gnn/timing_gnn.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

// -- spans -----------------------------------------------------------------

int SpanLog::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = seconds_since(origin_);
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

namespace {

/// Seconds of each span covered by its direct children.
std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  return covered;
}

}  // namespace

double SpanLog::unattributed_fraction(int id) const {
  const double total = duration(id);
  if (total <= 0.0) return 0.0;
  return (total - child_seconds(spans_)[static_cast<std::size_t>(id)]) / total;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"id\": " + std::to_string(i) +
           ", \"name\": " + cirstag::obs::json_quote(s.name) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"start_s\": ";
    cirstag::obs::append_json_number(out, s.start_s);
    out += ", \"end_s\": ";
    cirstag::obs::append_json_number(out, s.end_s);
    out += ", \"thread\": " + std::to_string(s.thread) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::string SpanLog::self_time_table() const {
  const std::vector<double> covered = child_seconds(spans_);
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  double roots = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_s - spans_[i].start_s;
    auto& row = by_name[spans_[i].name];
    row.first += d;
    row.second += d - covered[i];
    if (spans_[i].parent < 0) roots += d;
  }
  std::vector<std::pair<std::string, std::pair<double, double>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.second > b.second.second;
  });
  std::string out = "span                              total_s    self_s  self%\n";
  char line[160];
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "%-32s %8.3f  %8.3f  %5.1f\n",
                  name.c_str(), t.first, t.second,
                  roots > 0.0 ? 100.0 * t.second / roots : 0.0);
    out += line;
  }
  return out;
}

// -- registry deltas --------------------------------------------------------

double counter(const std::string& name) {
  return static_cast<double>(
      cirstag::obs::MetricsRegistry::global().counter_value(name));
}

double gauge(const std::string& name) {
  return cirstag::obs::MetricsRegistry::global().gauge_value(name);
}

CounterDelta::CounterDelta(std::vector<std::string> names)
    : names_(std::move(names)) {
  before_.reserve(names_.size());
  for (const auto& n : names_) before_.push_back(counter(n));
}

double CounterDelta::delta(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return counter(name) - before_[i];
  throw std::logic_error("CounterDelta: untracked counter " + name);
}

// -- shared helpers ----------------------------------------------------------

const cirstag::circuit::CellLibrary& cell_library() {
  static const cirstag::circuit::CellLibrary lib =
      cirstag::circuit::CellLibrary::standard();
  return lib;
}

cirstag::circuit::RandomCircuitSpec design_spec(const WorkloadConfig& cfg) {
  // The CLI's `generate` defaults for a given gate count.
  cirstag::circuit::RandomCircuitSpec spec;
  spec.name = cfg.name;
  spec.num_gates = cfg.gates;
  spec.num_inputs = std::max<std::size_t>(16, cfg.gates / 40);
  spec.num_outputs = std::max<std::size_t>(8, cfg.gates / 80);
  spec.num_levels = 12;
  spec.seed = cfg.design_seed;
  return spec;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

std::vector<std::uint32_t> ranking_of(const std::vector<double>& scores) {
  std::vector<std::uint32_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
  });
  return order;
}

RankAgreement compare_to_reference(const std::vector<double>& scores,
                                   const std::vector<std::uint32_t>& ranking) {
  const std::size_t n = scores.size();
  if (ranking.size() != n)
    throw std::runtime_error("reference ranking has " +
                             std::to_string(ranking.size()) + " nodes, scores " +
                             std::to_string(n));
  const std::vector<std::uint32_t> mine = ranking_of(scores);
  std::vector<double> ref_rank(n), my_rank(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (ranking[r] >= n) throw std::runtime_error("reference node id out of range");
    ref_rank[ranking[r]] = static_cast<double>(r);
    my_rank[mine[r]] = static_cast<double>(r);
  }
  RankAgreement out;
  const std::size_t k = std::max<std::size_t>(1, (n + 99) / 100);
  std::vector<char> in_ref_top(n, 0);
  for (std::size_t r = 0; r < k; ++r) in_ref_top[ranking[r]] = 1;
  std::size_t shared = 0;
  for (std::size_t r = 0; r < k; ++r) shared += in_ref_top[mine[r]];
  out.top1pct_overlap = static_cast<double>(shared) / static_cast<double>(k);
  // Ranks are a permutation (ties broken by id), so Spearman's closed form
  // is exact.
  double d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = ref_rank[i] - my_rank[i];
    d2 += d * d;
  }
  const double nn = static_cast<double>(n);
  out.spearman = n < 2 ? 1.0 : 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0));
  return out;
}

std::string reference_path(const RunOptions& opts, const WorkloadConfig& cfg) {
  return opts.refs_dir + "/" + cfg.name + ".seed" +
         std::to_string(cfg.design_seed) + ".txt";
}

std::vector<std::uint32_t> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::vector<std::uint32_t> ranking;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint32_t id = 0;
    while (fields >> id) ranking.push_back(id);
  }
  return ranking;
}

void write_reference(const std::string& path, const WorkloadConfig& cfg,
                     const std::vector<std::uint32_t>& ranking) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  out << "# CirSTAG node ranking, most unstable first (exact path, coarsening"
         " off)\n# workload=" << cfg.name << " gates=" << cfg.gates
      << " design_seed=" << cfg.design_seed << " epochs=" << cfg.epochs
      << " hidden=" << cfg.hidden << " pins=" << ranking.size() << "\n";
  for (std::size_t i = 0; i < ranking.size(); ++i)
    out << ranking[i] << ((i % 20 == 19 || i + 1 == ranking.size()) ? '\n' : ' ');
}

std::vector<double> exact_reference_scores(const WorkloadConfig& cfg) {
  using namespace cirstag;
  const circuit::Netlist nl =
      circuit::generate_random_logic(cell_library(), design_spec(cfg));
  gnn::TimingGnnOptions gopts;
  gopts.epochs = cfg.epochs;
  gopts.hidden_dim = cfg.hidden;
  gnn::TimingGnn model(nl, gopts);
  (void)model.train();
  core::CirStagConfig ccfg;
  ccfg.embedding.coarsen.mode = graphs::CoarsenMode::off;
  ccfg.stability.coarsen.mode = graphs::CoarsenMode::off;
  const core::CirStag analyzer(ccfg);
  return analyzer
      .analyze(circuit::pin_graph(nl), model.base_features(),
               model.embed(model.base_features()))
      .node_scores;
}

void score_quality(const std::vector<double>& scores,
                   const std::vector<std::uint32_t>& ranking,
                   const WorkloadConfig& cfg, RunResult& result) {
  for (const double s : scores)
    if (!std::isfinite(s)) {
      result.fail("non-finite node score");
      break;
    }
  const RankAgreement agree = compare_to_reference(scores, ranking);
  result.add(result.end_to_end, "top1pct_overlap", agree.top1pct_overlap,
             "fraction");
  result.add(result.end_to_end, "score_spearman", agree.spearman, "rho");
  if (agree.top1pct_overlap < cfg.min_top1pct_overlap)
    result.fail("top-1% overlap " + std::to_string(agree.top1pct_overlap) +
                " below the workload floor " +
                std::to_string(cfg.min_top1pct_overlap));
  if (agree.spearman < cfg.min_spearman)
    result.fail("Spearman " + std::to_string(agree.spearman) +
                " below the workload floor " + std::to_string(cfg.min_spearman));
}

}  // namespace perfbench
