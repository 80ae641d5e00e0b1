#pragma once

#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/netlist.hpp"
#include "circuit/sta.hpp"
#include "core/cirstag.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"

/// Shared experiment protocol for the Table-I / Fig. 3-5 benches (Case A):
/// build a synthetic benchmark, train the timing GNN on golden STA, run
/// CirSTAG on (pin graph, GNN embedding), then measure the relative change
/// of GNN-predicted primary-output arrival times when the capacitances of a
/// score-selected pin cohort are scaled — exactly the paper's protocol.
namespace cirstag::bench {

/// Everything produced for one benchmark circuit.
struct CaseA {
  std::string name;
  circuit::Netlist netlist;
  std::unique_ptr<gnn::TimingGnn> model;
  /// Batched perturbation-sweep engine over the trained model: its captured
  /// baseline is `report` below (byte-identical to CirStag::analyze), and
  /// every per-variant perturbation in the benches goes through it — the
  /// GNN forward is incremental (changed-row re-propagation) instead of a
  /// full predict per cohort.
  std::unique_ptr<core::SweepEngine> engine;
  double r2 = 0.0;
  core::CirStagReport report;        ///< full pipeline (with dim reduction)
  std::vector<double> base_po_pred;  ///< unperturbed PO predictions
  std::vector<std::size_t> excluded; ///< PO pins (excluded from selection)
};

/// Default pipeline configuration used by all Case-A benches.
[[nodiscard]] core::CirStagConfig default_config();

/// Smaller GNN/pipeline settings so the full 9-circuit sweep stays fast.
struct CaseAOptions {
  std::size_t gnn_epochs = 250;
  std::size_t gnn_hidden = 24;
  core::CirStagConfig config = default_config();
};

/// Build + train + analyze one benchmark.
[[nodiscard]] CaseA prepare_case_a(const circuit::CellLibrary& lib,
                                   const circuit::RandomCircuitSpec& spec,
                                   const CaseAOptions& opts = {});

/// Mean/max relative change of predicted PO arrivals after scaling the
/// capacitance feature of `pins` by `factor`.
struct ChangeStats {
  double mean = 0.0;
  double max = 0.0;
};
[[nodiscard]] ChangeStats po_change(CaseA& c, const std::vector<std::size_t>& pins,
                                    double factor);

/// Per-PO relative changes (Fig. 3/4 distributions).
[[nodiscard]] std::vector<double> po_changes(CaseA& c,
                                             const std::vector<std::size_t>& pins,
                                             double factor);

/// Select the unstable (top) or stable (bottom) cohort by CirSTAG score,
/// excluding PO pins.
[[nodiscard]] std::vector<std::size_t> unstable_pins(const CaseA& c,
                                                     double fraction);
[[nodiscard]] std::vector<std::size_t> stable_pins(const CaseA& c,
                                                   double fraction);

/// "u.uuuu/s.ssss" cell formatting used by the Table-I reproduction.
[[nodiscard]] std::string cell(double unstable, double stable);

}  // namespace cirstag::bench
