// analyze_mid / analyze_large: one-shot cold analyses of a generated design.
//
// One operation is what `cirstag_cli analyze` times: pin_graph +
// base_features + TimingGnn::embed + CirStag::analyze, with the CLI's default
// CirStagConfig. Set-up (generate + GNN training) is repeated and reported on
// its own as setup_s.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>

#include "bench.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "gnn/timing_gnn.hpp"

namespace perfbench {

void run_analyze_workload(const RunOptions& opts, const WorkloadConfig& cfg,
                          const std::vector<std::uint32_t>& reference,
                          RunResult& result) {
  using namespace cirstag;
  gnn::TimingGnnOptions gopts;
  gopts.epochs = cfg.epochs;
  gopts.hidden_dim = cfg.hidden;

  // The model keeps a pointer to its netlist, so the first set-up's pair is
  // kept alive together for the measured operations; later set-ups are
  // timed and dropped.
  std::unique_ptr<gnn::TimingGnn> model;
  std::unique_ptr<circuit::Netlist> netlist;
  // Set-ups are timed in CPU seconds for the same reason as the analyses.
  std::vector<double> setup_seconds, setup_wall_seconds;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    auto nl = std::make_unique<circuit::Netlist>(
        circuit::generate_random_logic(cell_library(), design_spec(cfg)));
    auto m = std::make_unique<gnn::TimingGnn>(*nl, gopts);
    (void)m->train();
    setup_seconds.push_back(process_cpu_s() - cpu0);
    setup_wall_seconds.push_back(seconds_since(t0));
    if (!model) {
      netlist = std::move(nl);
      model = std::move(m);
    }
  };
  // Set-ups are spread over the run, after each analysis in proportion to
  // the window used so far: a single set-up's time moves by up to 40% as
  // other tenants come and go within seconds, so set-ups run back to back
  // would sample only the host's state at the start of the run.
  const auto set_up_until = [&](double window_used) {
    const auto target = 1 + static_cast<std::size_t>(
                                static_cast<double>(kSetupRepeats - 1) *
                                std::min(1.0, window_used / opts.seconds));
    while (setup_seconds.size() < target) set_up();
  };
  set_up();

  const core::CirStag analyzer{core::CirStagConfig{}};
  // Wall time paces the window; CPU time is what the run reports (see
  // analyze_cpu_s in README.md: host steal stretches the 4-lane analysis's
  // wall time by up to 2x for minutes at a time).
  std::vector<double> op_seconds, op_cpu_seconds;
  std::vector<double> scores;
  // Sampled after the first analysis: how many fit in the window varies
  // from run to run, and each repeat can raise the high-water mark a little.
  double rss_mb = 0.0;
  double window_used = 0.0;  // analyses only; set-ups are outside the window
  do {
    ++result.attempted;
    try {
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_s();
      const core::CirStagReport report =
          analyzer.analyze(circuit::pin_graph(*netlist), model->base_features(),
                           model->embed(model->base_features()));
      op_cpu_seconds.push_back(process_cpu_s() - cpu0);
      op_seconds.push_back(seconds_since(t0));
      window_used += op_seconds.back();
      if (scores.empty()) {
        scores = report.node_scores;
        rss_mb = peak_rss_mb();
      } else if (report.node_scores.size() != scores.size() ||
                 std::memcmp(report.node_scores.data(), scores.data(),
                             scores.size() * sizeof(double)) != 0) {
        ++result.failed;
        result.fail("repeated analyses of one design gave different scores");
      }
    } catch (const std::exception& e) {
      ++result.failed;
      result.fail(std::string("analyze threw: ") + e.what());
    }
    set_up_until(window_used);
    // Start another operation only if it should end inside the window.
  } while (!op_seconds.empty() &&
           window_used + op_seconds.back() <= opts.seconds);
  set_up_until(opts.seconds);

  result.add(result.end_to_end, "setup_s", median(setup_seconds), "s",
             setup_seconds.size());
  std::printf("set-ups: wall median %.3f s, CPU median %.3f s (n=%zu)\n",
              median(setup_wall_seconds), median(setup_seconds),
              setup_seconds.size());
  std::printf("analyses: wall median %.3f s, CPU median %.3f s (n=%zu)\n",
              median(op_seconds), median(op_cpu_seconds), op_seconds.size());
  result.add(result.end_to_end, "analyze_cpu_s", median(op_cpu_seconds), "s",
             op_cpu_seconds.size());
  if (scores.empty()) {
    result.fail("no analysis completed");
    result.add(result.end_to_end, "top1pct_overlap", 0.0, "fraction");
    result.add(result.end_to_end, "score_spearman", 0.0, "rho");
  } else {
    score_quality(scores, reference, cfg, result);
  }
  result.add(result.end_to_end, "peak_rss_mb", rss_mb, "MiB");
}

}  // namespace perfbench
