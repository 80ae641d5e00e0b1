#include "common.hpp"

#include "circuit/perturb.hpp"
#include "circuit/views.hpp"
#include "util/ascii.hpp"
#include "util/stats.hpp"

namespace cirstag::bench {

core::CirStagConfig default_config() {
  core::CirStagConfig cfg;
  cfg.embedding.dimensions = 12;
  cfg.manifold.knn.k = 10;
  cfg.manifold.sparsify.offtree_keep_fraction = 0.25;
  cfg.manifold.sparsify.resistance.num_probes = 16;
  cfg.stability.eigensubspace_dim = 8;
  cfg.stability.subspace_iterations = 30;
  return cfg;
}

CaseA prepare_case_a(const circuit::CellLibrary& lib,
                     const circuit::RandomCircuitSpec& spec,
                     const CaseAOptions& opts) {
  CaseA c{spec.name, circuit::generate_random_logic(lib, spec),
          nullptr, nullptr, 0.0, {}, {}, {}};

  gnn::TimingGnnOptions gopts;
  gopts.epochs = opts.gnn_epochs;
  gopts.hidden_dim = opts.gnn_hidden;
  c.model = std::make_unique<gnn::TimingGnn>(c.netlist, gopts);
  c.r2 = c.model->train().r2;

  // The engine captures the baseline analysis once (byte-identical to
  // CirStag::analyze on the unperturbed circuit); every cohort perturbation
  // below rides its incremental GNN forward, which is exact in both sweep
  // modes, so the engine keeps the default mode.
  core::SweepOptions sopts;
  sopts.config = opts.config;
  c.engine = std::make_unique<core::SweepEngine>(c.netlist, *c.model, sopts);
  c.report = c.engine->baseline();

  const auto pred = c.model->predict(c.model->base_features());
  for (circuit::PinId po : c.netlist.primary_outputs()) {
    c.base_po_pred.push_back(pred[po]);
    c.excluded.push_back(po);
  }
  return c;
}

std::vector<double> po_changes(CaseA& c, const std::vector<std::size_t>& pins,
                               double factor) {
  const auto pred = c.engine->predict_case_a(pins, factor);
  std::vector<double> po;
  po.reserve(c.base_po_pred.size());
  for (circuit::PinId p : c.netlist.primary_outputs()) po.push_back(pred[p]);
  return circuit::relative_changes(c.base_po_pred, po);
}

ChangeStats po_change(CaseA& c, const std::vector<std::size_t>& pins,
                      double factor) {
  const auto rel = po_changes(c, pins, factor);
  return {util::mean(rel), util::max_value(rel)};
}

std::vector<std::size_t> unstable_pins(const CaseA& c, double fraction) {
  return circuit::select_top_fraction(c.report.node_scores, fraction,
                                      c.excluded);
}

std::vector<std::size_t> stable_pins(const CaseA& c, double fraction) {
  return circuit::select_bottom_fraction(c.report.node_scores, fraction,
                                         c.excluded);
}

std::string cell(double unstable, double stable) {
  return util::fmt(unstable, 4) + "/" + util::fmt(stable, 4);
}

}  // namespace cirstag::bench
