// Reproduces Fig. 5: CirSTAG runtime scalability across designs of growing
// complexity. The paper reports near-linear runtime in design size; we time
// the three pipeline phases on a geometric sweep of synthetic designs and
// report the per-node runtime, which should stay roughly flat.
//
// GNN *training* is excluded (as in the paper, the GNN is a pre-trained
// input); the GNN forward pass producing the output embedding is included
// in the reported total as "embed".

#include <cstdio>

#include "circuit/views.hpp"
#include "common.hpp"
#include "util/ascii.hpp"
#include "util/csv.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace cirstag;
  using namespace cirstag::bench;

  const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  const auto suite = circuit::scalability_suite(6, 1000, 2.0);  // 1k..32k gates

  util::CsvWriter csv({"design", "pins", "edges", "embed_s", "phase1_s",
                       "phase2_s", "phase3_s", "total_s", "us_per_pin"});

  std::printf("=== Fig. 5 reproduction: CirSTAG runtime vs design size ===\n\n");
  std::printf("%-14s %9s %9s %9s %9s %9s %9s %9s %11s\n", "design", "pins",
              "edges", "embed", "phase1", "phase2", "phase3", "total",
              "us/pin");

  double prev_total = 0.0;
  std::size_t prev_pins = 0;
  for (const auto& spec : suite) {
    const circuit::Netlist nl = circuit::generate_random_logic(lib, spec);
    // Untrained GNN: runtime is independent of the weights.
    gnn::TimingGnnOptions gopts;
    gopts.hidden_dim = 24;
    gnn::TimingGnn model(nl, gopts);

    double embed_s = 0.0;
    const linalg::Matrix embedding = [&] {
      const obs::TraceSpan span("bench.gnn_embed", "bench");
      linalg::Matrix e = model.embed(model.base_features());
      embed_s = span.seconds();
      return e;
    }();

    const core::CirStag analyzer(default_config());
    const auto graph = circuit::pin_graph(nl);
    const auto report = analyzer.analyze(graph, embedding);

    const double total = embed_s + report.timings.total();
    const double us_per_pin = 1e6 * total / double(nl.num_pins());
    std::printf("%-14s %9zu %9zu %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs %10.2f\n",
                spec.name.c_str(), nl.num_pins(), graph.num_edges(), embed_s,
                report.timings.embedding_seconds,
                report.timings.manifold_seconds,
                report.timings.stability_seconds, total, us_per_pin);
    csv.add_row({spec.name, util::fmt(double(nl.num_pins()), 0),
                 util::fmt(double(graph.num_edges()), 0),
                 util::fmt(embed_s, 4),
                 util::fmt(report.timings.embedding_seconds, 4),
                 util::fmt(report.timings.manifold_seconds, 4),
                 util::fmt(report.timings.stability_seconds, 4),
                 util::fmt(total, 4), util::fmt(us_per_pin, 2)});

    if (prev_pins != 0) {
      const double size_ratio = double(nl.num_pins()) / double(prev_pins);
      const double time_ratio = total / prev_total;
      std::printf("   scaling: size x%.2f -> time x%.2f (linear would be "
                  "x%.2f)\n", size_ratio, time_ratio, size_ratio);
    }
    prev_total = total;
    prev_pins = nl.num_pins();
  }

  csv.save("fig5.csv");
  std::printf("\nseries written to fig5.csv\n");
  return 0;
}
