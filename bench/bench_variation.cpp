// Extension experiment: CirSTAG vs Monte-Carlo statistical STA.
//
// The paper's introduction motivates CirSTAG as a replacement for
// "numerous repeated circuit simulations after perturbing underlying
// parameters". Here we run that expensive baseline — a Monte-Carlo STA
// campaign under a D2D+WID process-variation model — and check how well a
// single CirSTAG pass predicts which pins' arrival times vary the most.
//
// Reported: Spearman/Kendall rank correlation and top-10% overlap between
// CirSTAG node scores and the per-pin Monte-Carlo arrival spread, against
// the usual baselines, plus the wall-clock of both approaches.

#include <cstdio>

#include "circuit/variation.hpp"
#include "circuit/views.hpp"
#include "common.hpp"
#include "core/baselines.hpp"
#include "util/ascii.hpp"
#include "util/stats.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace cirstag;
  using namespace cirstag::bench;

  const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  circuit::RandomCircuitSpec spec;
  spec.name = "mc_probe";
  spec.num_gates = 600;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.num_levels = 12;
  spec.seed = 31337;

  std::printf("=== Variation study: CirSTAG vs Monte-Carlo statistical STA "
              "===\n\n");

  CaseAOptions opts;
  double cirstag_seconds = 0.0;
  CaseA c = [&] {
    const obs::TraceSpan span("bench.case_a", "bench");
    CaseA prepared = prepare_case_a(lib, spec, opts);
    cirstag_seconds = span.seconds();
    return prepared;
  }();
  std::printf("[%s] pins=%zu R2=%.4f (GNN training + CirSTAG: %.1fs)\n",
              c.name.c_str(), c.netlist.num_pins(), c.r2, cirstag_seconds);

  circuit::VariationModel model;
  model.seed = 4242;
  const std::size_t samples = 300;
  double mc_seconds = 0.0;
  const circuit::MonteCarloResult mc = [&] {
    const obs::TraceSpan span("bench.monte_carlo", "bench");
    circuit::MonteCarloResult result =
        circuit::monte_carlo_sta(c.netlist, model, samples);
    mc_seconds = span.seconds();
    return result;
  }();
  std::printf("Monte-Carlo campaign: %zu samples in %.1fs "
              "(worst arrival mean %.3f, std %.3f, p95 %.3f)\n\n",
              samples, mc_seconds, mc.worst_mean, mc.worst_std, mc.worst_p95);

  // Rank-compare against the per-pin arrival spread.
  const auto graph = circuit::pin_graph(c.netlist);
  const auto features = circuit::pin_features(c.netlist);
  const auto embedding = c.model->embed(c.model->base_features());
  linalg::Rng rng(3);

  struct Row {
    const char* name;
    std::vector<double> scores;
  };
  std::vector<Row> rows;
  rows.push_back({"CirSTAG", c.report.node_scores});
  rows.push_back({"random", core::random_scores(c.netlist.num_pins(), rng)});
  rows.push_back({"degree", core::degree_scores(graph)});
  rows.push_back({"capacitance",
                  core::feature_magnitude_scores(features,
                                                 circuit::kPinCapFeature)});
  rows.push_back({"emb-roughness",
                  core::embedding_roughness_scores(graph, embedding)});

  util::AsciiTable table({"method", "spearman", "kendall", "top10% overlap"});
  const std::size_t k = c.netlist.num_pins() / 10;
  for (const auto& row : rows) {
    table.add_row({row.name,
                   util::fmt(util::spearman(row.scores, mc.arrival_std), 4),
                   util::fmt(util::kendall_tau(row.scores, mc.arrival_std), 4),
                   util::fmt(util::top_k_overlap(row.scores, mc.arrival_std, k),
                             4)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(target = per-pin arrival std over %zu MC samples; CirSTAG "
              "needs one pass, the campaign needs %zu full STA runs)\n",
              samples, samples);
  return 0;
}
