// SweepEngine contract tests: exact mode is byte-identical to the naive
// per-variant CirStag::analyze loop (at any thread count), fast mode builds
// the same manifolds as exact mode, and fast mode's score drift stays
// within the documented kFastScoreDriftTolerance. Every sweep is Case A
// (capacitance): a topology study scores its unperturbed graph once with
// CirStag::analyze, whose bytes the baseline checks here pin.

#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/perturb.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "gnn/timing_gnn.hpp"
#include "obs/manifest.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cirstag;
using namespace cirstag::core;
using circuit::Netlist;
using circuit::PinId;
using gnn::TimingGnn;

CirStagConfig fast_config() {
  CirStagConfig cfg;
  cfg.embedding.dimensions = 8;
  cfg.manifold.knn.k = 8;
  cfg.manifold.sparsify.offtree_keep_fraction = 0.3;
  cfg.manifold.sparsify.resistance.num_probes = 12;
  cfg.stability.eigensubspace_dim = 6;
  cfg.stability.subspace_iterations = 25;
  return cfg;
}

Netlist small_circuit(std::uint64_t seed = 77) {
  // The netlist keeps a pointer to its cell library, so it must outlive it.
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  circuit::RandomCircuitSpec spec;
  spec.num_gates = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_levels = 7;
  spec.seed = seed;
  return circuit::generate_random_logic(lib, spec);
}

void expect_same_vector(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " diverges at " << i;
}

void expect_same_matrix(const linalg::Matrix& a, const linalg::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    for (std::size_t c = 0; c < ra.size(); ++c)
      ASSERT_EQ(ra[c], rb[c]) << what << " diverges at (" << r << "," << c
                              << ")";
  }
}

void expect_same_graph(const graphs::Graph& a, const graphs::Graph& b,
                       const char* what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edges()[e].u, b.edges()[e].u) << what << " edge " << e;
    ASSERT_EQ(a.edges()[e].v, b.edges()[e].v) << what << " edge " << e;
    ASSERT_EQ(a.edges()[e].weight, b.edges()[e].weight) << what << " edge "
                                                        << e;
  }
}

void expect_same_report(const CirStagReport& a, const CirStagReport& b,
                        const char* what) {
  expect_same_vector(a.node_scores, b.node_scores, what);
  expect_same_vector(a.edge_scores, b.edge_scores, what);
  expect_same_vector(a.eigenvalues, b.eigenvalues, what);
  expect_same_matrix(a.weighted_subspace, b.weighted_subspace, what);
  expect_same_matrix(a.input_embedding, b.input_embedding, what);
  expect_same_graph(a.manifold_x, b.manifold_x, what);
  expect_same_graph(a.manifold_y, b.manifold_y, what);
  EXPECT_EQ(a.checksums.input_graph, b.checksums.input_graph) << what;
  EXPECT_EQ(a.checksums.embedding, b.checksums.embedding) << what;
  EXPECT_EQ(a.checksums.manifold_x, b.checksums.manifold_x) << what;
  EXPECT_EQ(a.checksums.manifold_y, b.checksums.manifold_y) << what;
  EXPECT_EQ(a.checksums.eigenvalues, b.checksums.eigenvalues) << what;
  EXPECT_EQ(a.checksums.node_scores, b.checksums.node_scores) << what;
  EXPECT_EQ(a.checksums.edge_scores, b.checksums.edge_scores) << what;
}

/// Case-A variants: a few disjoint groups of cell-input pins, each scaled up.
std::vector<SweepVariant> case_a_variants(const Netlist& nl,
                                          std::size_t count) {
  std::vector<PinId> cell_inputs;
  for (PinId p = 0; p < nl.num_pins(); ++p)
    if (nl.pin(p).kind == circuit::PinKind::CellInput) cell_inputs.push_back(p);
  std::vector<SweepVariant> variants(count);
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t idx = (v * 4 + j) % cell_inputs.size();
      variants[v].cap_scalings.push_back({cell_inputs[idx], 1.5 + 0.1 * v});
    }
  }
  return variants;
}

/// Documented drift metric: relative L2 distance between score vectors.
double relative_l2(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return den == 0.0 ? 0.0 : std::sqrt(num / den);
}

/// The reference: one independent CirStag::analyze per perturbed netlist.
std::vector<CirStagReport> naive_case_a(const Netlist& nl, TimingGnn& model,
                                        const CirStagConfig& cfg,
                                        const std::vector<SweepVariant>& vs) {
  const CirStag analyzer(cfg);
  std::vector<CirStagReport> out;
  for (const SweepVariant& v : vs) {
    Netlist nlv = nl;
    for (const CapScaling& cs : v.cap_scalings)
      nlv.scale_pin_capacitance(cs.pin, cs.factor);
    const linalg::Matrix fv = circuit::pin_features(nlv);
    out.push_back(
        analyzer.analyze(circuit::pin_graph(nlv), fv, model.embed(fv)));
  }
  return out;
}

class SweepEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gnn::TimingGnnOptions gopts;
    gopts.epochs = 80;
    gopts.hidden_dim = 16;
    model_ = std::make_unique<TimingGnn>(nl_, gopts);
    model_->train();
  }

  Netlist nl_ = small_circuit();
  std::unique_ptr<TimingGnn> model_;
};

TEST_F(SweepEngineTest, ExactModeMatchesNaiveAnalyzeLoop) {
  const auto variants = case_a_variants(nl_, 4);
  const auto naive = naive_case_a(nl_, *model_, fast_config(), variants);

  SweepOptions opts;
  opts.config = fast_config();
  opts.exact = true;
  SweepEngine engine(nl_, *model_, opts);

  // The captured baseline equals analyze() on the unperturbed circuit.
  const linalg::Matrix f0 = circuit::pin_features(nl_);
  const CirStagReport base = CirStag(fast_config())
                                 .analyze(circuit::pin_graph(nl_), f0,
                                          model_->embed(f0));
  expect_same_report(engine.baseline(), base, "baseline");
  // The baseline's phase spans credit the pool work run under them.
  EXPECT_GT(engine.baseline().timings.total_busy(), 0.0);

  const auto results = engine.run(variants);
  ASSERT_EQ(results.size(), variants.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_same_report(results[i].report, naive[i], "exact variant");
    // Side products: incremental STA equals a full STA of the variant, the
    // incremental GNN prediction equals a full predict().
    Netlist nlv = nl_;
    for (const CapScaling& cs : variants[i].cap_scalings)
      nlv.scale_pin_capacitance(cs.pin, cs.factor);
    EXPECT_EQ(results[i].worst_arrival, circuit::run_sta(nlv).worst_arrival);
    expect_same_vector(results[i].prediction,
                       model_->predict(circuit::pin_features(nlv)),
                       "prediction");
    // Reuse actually happened even in exact mode.
    EXPECT_LT(results[i].stats.sta.cone_fraction(), 1.0);
    EXPECT_LT(results[i].stats.gnn.row_fraction(), 1.0);
    // Exact mode runs the full sweep budget — no adaptive early stop.
    EXPECT_EQ(results[i].stats.subspace_sweeps,
              fast_config().stability.subspace_iterations);
  }
}

TEST_F(SweepEngineTest, ExactModeIsThreadCountInvariant) {
  const auto variants = case_a_variants(nl_, 4);

  SweepOptions opts;
  opts.config = fast_config();
  opts.exact = true;
  runtime::set_global_threads(1);
  SweepEngine serial(nl_, *model_, opts);
  const auto a = serial.run(variants);

  runtime::set_global_threads(4);
  SweepEngine wide(nl_, *model_, opts);
  const auto b = wide.run(variants);
  runtime::set_global_threads(0);  // back to the environment default

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_report(a[i].report, b[i].report, "threaded variant");
    EXPECT_EQ(a[i].worst_arrival, b[i].worst_arrival);
    expect_same_vector(a[i].prediction, b[i].prediction, "prediction");
  }
}

TEST_F(SweepEngineTest, FastModeDriftWithinToleranceCaseA) {
  const auto variants = case_a_variants(nl_, 4);
  const auto naive = naive_case_a(nl_, *model_, fast_config(), variants);

  SweepOptions opts;
  opts.config = fast_config();
  opts.exact = false;
  SweepEngine engine(nl_, *model_, opts);
  const auto results = engine.run(variants);

  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_LE(relative_l2(results[i].report.node_scores,
                          naive[i].node_scores),
              kFastScoreDriftTolerance)
        << "variant " << i;
    // Fast-mode reuse engaged: the input embedding starts with the
    // baseline's U_M, and the adaptive Ritz stop kept the sweep count
    // inside the budget.
    const linalg::Matrix& u0 = engine.export_baseline_state().u0;
    const linalg::Matrix& emb = results[i].report.input_embedding;
    ASSERT_EQ(emb.rows(), u0.rows());
    for (std::size_t r = 0; r < u0.rows(); ++r)
      for (std::size_t c = 0; c < u0.cols(); ++c)
        ASSERT_EQ(emb(r, c), u0(r, c)) << "variant " << i;
    EXPECT_GE(results[i].stats.subspace_sweeps, 1u);
    EXPECT_LE(results[i].stats.subspace_sweeps,
              fast_config().stability.subspace_iterations);
  }
  const SweepStats& stats = engine.stats();
  EXPECT_EQ(stats.variants, variants.size());
  EXPECT_LT(stats.avg_sta_cone_fraction, 1.0);
  EXPECT_LT(stats.avg_gnn_row_fraction, 1.0);
  // The adaptive stop saved eigensolver work somewhere in the sweep.
  EXPECT_LT(stats.avg_subspace_sweep_fraction, 1.0);
}

TEST_F(SweepEngineTest, FastModeIsThreadCountInvariant) {
  const auto variants = case_a_variants(nl_, 4);

  SweepOptions opts;
  opts.config = fast_config();
  runtime::set_global_threads(1);
  SweepEngine serial(nl_, *model_, opts);
  const auto a = serial.run(variants);

  runtime::set_global_threads(4);
  SweepEngine wide(nl_, *model_, opts);
  const auto b = wide.run(variants);
  runtime::set_global_threads(0);  // back to the environment default

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_same_report(a[i].report, b[i].report, "fast threaded variant");
}

TEST_F(SweepEngineTest, PredictCaseAMatchesFullPredict) {
  SweepOptions opts;
  opts.config = fast_config();
  SweepEngine engine(nl_, *model_, opts);
  const std::vector<std::size_t> pins = {3, 17, 42};
  expect_same_vector(
      engine.predict_case_a(pins, 2.0),
      model_->predict(circuit::perturbed_pin_features(nl_, pins, 2.0)),
      "predict_case_a");
}

TEST_F(SweepEngineTest, FastModeScoresArePinned) {
  // Fast mode is checked against the naive loop only within the 0.08 drift
  // bound, so a refactor could move its bytes unnoticed. The constants are
  // FNV-1a checksums of each variant's node scores; re-record them only for
  // an intended numerical change. The last Case-A variant perturbs a single
  // last-level gate, whose GNN cone is a handful of pins.
  SweepOptions opts;
  opts.config = fast_config();

  auto variants_a = case_a_variants(nl_, 4);
  const circuit::GateId g = nl_.gates_at_level(nl_.num_gate_levels() - 1)[0];
  SweepVariant shallow;
  for (circuit::PinId p = 0; p < nl_.num_pins(); ++p)
    if (nl_.pin(p).kind == circuit::PinKind::CellInput &&
        nl_.pin(p).gate == g)
      shallow.cap_scalings.push_back({p, 1.5});
  variants_a.push_back(shallow);
  SweepEngine engine_a(nl_, *model_, opts);
  const auto a = engine_a.run(variants_a);

  const std::vector<std::uint64_t> pins_a = {
      0x7dd2d101eab075c0ULL, 0x03060a12645bd521ULL, 0x4175e8b384ab7475ULL,
      0x880458022c0d85d0ULL, 0xb04d806346922e99ULL};
  ASSERT_EQ(a.size(), pins_a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(obs::fnv1a_doubles(a[i].report.node_scores), pins_a[i])
        << "Case-A variant " << i;
}

TEST_F(SweepEngineTest, FastAndExactModesBuildIdenticalManifolds) {
  // Fast mode differs from exact mode only in its Phase-3 levers: both build
  // every manifold from its embedding, so whatever Phase 3 starts from is
  // the same bytes, also for a variant that moves only a last-level gate's
  // few GNN output rows. The variants are FastModeScoresArePinned's.
  auto variants_a = case_a_variants(nl_, 4);
  const circuit::GateId g = nl_.gates_at_level(nl_.num_gate_levels() - 1)[0];
  SweepVariant shallow;
  for (circuit::PinId p = 0; p < nl_.num_pins(); ++p)
    if (nl_.pin(p).kind == circuit::PinKind::CellInput &&
        nl_.pin(p).gate == g)
      shallow.cap_scalings.push_back({p, 1.5});
  variants_a.push_back(shallow);

  const auto expect_same_manifolds =
      [](const std::vector<SweepVariantResult>& fast,
         const std::vector<SweepVariantResult>& exact, const char* what) {
        ASSERT_EQ(fast.size(), exact.size()) << what;
        for (std::size_t i = 0; i < fast.size(); ++i) {
          SCOPED_TRACE(std::string(what) + " variant " + std::to_string(i));
          expect_same_graph(fast[i].report.manifold_x,
                            exact[i].report.manifold_x, "manifold_x");
          expect_same_graph(fast[i].report.manifold_y,
                            exact[i].report.manifold_y, "manifold_y");
          expect_same_matrix(fast[i].report.input_embedding,
                             exact[i].report.input_embedding,
                             "input_embedding");
        }
      };
  SweepOptions opts;
  opts.config = fast_config();
  opts.exact = false;
  SweepEngine fast_a(nl_, *model_, opts);
  opts.exact = true;
  SweepEngine exact_a(nl_, *model_, opts);
  expect_same_report(fast_a.baseline(), exact_a.baseline(), "Case-A baseline");
  expect_same_manifolds(fast_a.run(variants_a), exact_a.run(variants_a),
                        "Case-A");
}

TEST_F(SweepEngineTest, RejectsModelOfAnotherNetlist) {
  // A model's pin features and arc operators describe the netlist object it
  // was built on. Paired with an equal copy of that netlist, the engine
  // would hold one netlist and read another's model, so both constructors
  // refuse the pair; the restoring one before it reads the state.
  const Netlist copy = nl_;
  TimingGnn other(copy);
  SweepOptions opts;
  opts.config = fast_config();
  EXPECT_THROW((void)SweepEngine(nl_, other, opts), std::invalid_argument);
  const SweepEngine engine(nl_, *model_, opts);
  EXPECT_THROW(
      (void)SweepEngine(nl_, other, opts, engine.export_baseline_state()),
      std::invalid_argument);
}

}  // namespace
