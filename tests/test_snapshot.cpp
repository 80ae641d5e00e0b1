// Binary circuit-snapshot contracts (io/snapshot, DESIGN.md §13):
// write/read round-trip restores a warm engine whose baseline — the derived
// arrays included — and answers are bit-identical to the exporting one,
// with zero eigensolves and zero training epochs; the file depends only on
// the design and settings (engines built at 4 and at 1 pool lanes write the
// same bytes); and every corruption — truncation, flipped payload bits,
// wrong magic/version, a foreign endianness probe — fails cleanly with a
// SnapshotError, a snapshot.read_failures bump, and a "snapshot.corrupt"
// health event, never a crash or a half-restored circuit.
// Netlist::from_parts (the restore path's structural gate) is exercised
// directly against out-of-range cross-references, and the restoring engine
// against stored arrays that do not fit the netlist.

#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/netlist.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "obs/health.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace cirstag;
using circuit::CellLibrary;
using circuit::Netlist;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::standard();
  return l;
}

Netlist small_netlist(std::uint64_t seed = 7) {
  circuit::RandomCircuitSpec spec;
  spec.num_gates = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.seed = seed;
  return circuit::generate_random_logic(lib(), spec);
}

/// Trained model + warm engine over one shared netlist, plus the snapshot
/// metadata the serving layer would record.
struct WarmCircuit {
  explicit WarmCircuit(const Netlist& nl, bool exact) : model(nl, gopts()) {
    meta.train_r2 = model.train().r2;
    meta.exact = exact;
    core::SweepOptions sopts;
    sopts.exact = exact;
    engine = std::make_unique<core::SweepEngine>(nl, model, sopts);
  }
  static gnn::TimingGnnOptions gopts() {
    gnn::TimingGnnOptions g;
    g.epochs = 40;
    g.hidden_dim = 12;
    return g;
  }
  gnn::TimingGnn model;
  std::unique_ptr<core::SweepEngine> engine;
  io::SnapshotMeta meta;
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter_value(name);
}

/// Bitwise equality of two double arrays (== would equate 0.0 and -0.0).
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The restored baseline's derived arrays equal the exporter's bit for bit:
/// the Eq. 9 scores, the design mean, the input embedding and all seven
/// phase checksums.
void expect_same_derived_baseline(const core::CirStagReport& got,
                                  const core::CirStagReport& want) {
  EXPECT_TRUE(same_bits(got.node_scores, want.node_scores));
  EXPECT_TRUE(same_bits(got.edge_scores, want.edge_scores));
  EXPECT_TRUE(same_bits({&got.node_score_mean, 1}, {&want.node_score_mean, 1}))
      << got.node_score_mean << " vs " << want.node_score_mean;
  EXPECT_EQ(got.input_embedding.rows(), want.input_embedding.rows());
  EXPECT_EQ(got.input_embedding.cols(), want.input_embedding.cols());
  EXPECT_TRUE(same_bits(got.input_embedding.data(), want.input_embedding.data()));
  const auto got_sums = got.checksums.fields();
  const auto want_sums = want.checksums.fields();
  ASSERT_EQ(got_sums.size(), 7u);
  for (std::size_t i = 0; i < want_sums.size(); ++i)
    EXPECT_EQ(got_sums[i].second, want_sums[i].second) << want_sums[i].first;
}

core::SweepVariant test_variant(const Netlist& nl) {
  core::SweepVariant v;
  v.cap_scalings.push_back({static_cast<circuit::PinId>(nl.num_pins() / 2),
                            5.0});
  return v;
}

TEST(Snapshot, RoundTripRestoresByteIdenticalWarmEngine) {
  const Netlist nl = small_netlist();
  WarmCircuit original(nl, /*exact=*/true);
  const std::string path = testing::TempDir() + "cirstag_snapshot_rt.bin";
  io::write_snapshot(path, original.model, *original.engine, original.meta);

  const std::uint64_t eigen_before = counter("eigen.runs");
  const std::uint64_t train_before = counter("gnn.train_epochs");
  io::SnapshotData data = io::read_snapshot(path, lib());
  EXPECT_TRUE(data.meta.exact);
  EXPECT_DOUBLE_EQ(data.meta.train_r2, original.meta.train_r2);

  // Restore protocol: netlist to its final address first, then the model
  // against that address, then the engine adopting the warm state.
  const Netlist restored_nl = std::move(data.netlist);
  ASSERT_EQ(restored_nl.num_pins(), nl.num_pins());
  ASSERT_EQ(restored_nl.num_gates(), nl.num_gates());
  const std::unique_ptr<gnn::TimingGnn> model =
      io::restore_model(restored_nl, data);
  core::SweepOptions sopts;
  sopts.exact = data.meta.exact;
  core::SweepEngine restored(restored_nl, *model, sopts,
                             std::move(data.state));

  // The whole point: restoring ran no eigensolves and no training epochs.
  EXPECT_EQ(counter("eigen.runs"), eigen_before);
  EXPECT_EQ(counter("gnn.train_epochs"), train_before);

  // Adopted baseline is the exporter's, byte for byte: the stored arrays
  // and everything the restore derived from them.
  EXPECT_TRUE(same_bits(restored.baseline().eigenvalues,
                        original.engine->baseline().eigenvalues));
  expect_same_derived_baseline(restored.baseline(),
                               original.engine->baseline());
  EXPECT_EQ(restored.baseline().checksums.node_scores,
            obs::fnv1a_doubles(original.engine->baseline().node_scores));
  EXPECT_EQ(restored.baseline().timings.total(), 0.0);
  EXPECT_EQ(restored.baseline_timing().worst_arrival,
            original.engine->baseline_timing().worst_arrival);

  // The warm state answers variants exactly as the exporting engine does
  // (exact mode is byte-identical by contract).
  const std::vector<core::SweepVariant> variants{test_variant(nl)};
  const auto a = original.engine->run(variants);
  const auto b = restored.run(variants);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].report.node_scores, b[0].report.node_scores);
  EXPECT_EQ(a[0].worst_arrival, b[0].worst_arrival);
  std::remove(path.c_str());
}

TEST(Snapshot, FastModeRoundTripRestoresManifoldBaselines) {
  const Netlist nl = small_netlist(11);
  WarmCircuit original(nl, /*exact=*/false);
  const std::string path = testing::TempDir() + "cirstag_snapshot_fast.bin";
  io::write_snapshot(path, original.model, *original.engine, original.meta);

  io::SnapshotData data = io::read_snapshot(path, lib());
  EXPECT_FALSE(data.meta.exact);
  const Netlist restored_nl = std::move(data.netlist);
  const std::unique_ptr<gnn::TimingGnn> model =
      io::restore_model(restored_nl, data);
  core::SweepOptions sopts;
  sopts.exact = false;
  core::SweepEngine restored(restored_nl, *model, sopts,
                             std::move(data.state));

  // A fast-mode file has the exact-mode layout; the restore derives the
  // rest of the baseline, which must equal the exporter's.
  expect_same_derived_baseline(restored.baseline(),
                               original.engine->baseline());

  // The restored engine answers a variant as the exporter does, in every
  // phase checksum.
  const std::vector<core::SweepVariant> variants{test_variant(nl)};
  const auto a = original.engine->run(variants);
  const auto b = restored.run(variants);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  const auto want = a[0].report.checksums.fields();
  const auto got = b[0].report.checksums.fields();
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsArraysThatDoNotFitNetlist) {
  // The restore derives scores from the stored V_s and a variant indexes
  // U_M and both manifolds by pin, so stored arrays that do not fit the
  // netlist must fail up front (serve turns the throw into a failed /load),
  // never at the first variant.
  const Netlist nl = small_netlist(11);
  WarmCircuit warm(nl, /*exact=*/false);
  const core::SweepBaselineState& good = warm.engine->export_baseline_state();
  ASSERT_EQ(good.u0.rows(), nl.num_pins());
  core::SweepOptions sopts;
  sopts.exact = false;
  const auto restore = [&](core::SweepBaselineState state) {
    return core::SweepEngine(nl, warm.model, sopts, std::move(state));
  };
  EXPECT_NO_THROW((void)restore(good));

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    void (*mutate)(core::SweepBaselineState&, std::size_t pins);
  } corpus[] = {
      {"U_M with a row too few",
       [](core::SweepBaselineState& s, std::size_t pins) {
         s.u0 = linalg::Matrix(pins - 1, s.u0.cols());
       }},
      {"manifold_y over a node too few",
       [](core::SweepBaselineState& s, std::size_t pins) {
         s.baseline.manifold_y = graphs::Graph(pins - 1);
       }},
      {"V_s with a row too few",
       [](core::SweepBaselineState& s, std::size_t pins) {
         s.baseline.weighted_subspace = linalg::Matrix(
             pins - 1, s.baseline.weighted_subspace.cols());
       }},
      {"eigenvalue count other than V_s's columns",
       [](core::SweepBaselineState& s, std::size_t) {
         s.baseline.eigenvalues.pop_back();
       }},
      {"NaN in U_M",
       [](core::SweepBaselineState& s, std::size_t) { s.u0(7, 1) = kNaN; }},
      {"+Inf in U_M",
       [](core::SweepBaselineState& s, std::size_t) { s.u0(0, 0) = kInf; }},
      {"NaN in V_s",
       [](core::SweepBaselineState& s, std::size_t) {
         s.baseline.weighted_subspace(9, 0) = kNaN;
       }},
      {"-Inf in V_s",
       [](core::SweepBaselineState& s, std::size_t pins) {
         s.baseline.weighted_subspace(pins - 1, 2) = -kInf;
       }},
  };
  for (const auto& m : corpus) {
    core::SweepBaselineState bad = good;
    m.mutate(bad, nl.num_pins());
    EXPECT_THROW((void)restore(std::move(bad)), std::invalid_argument)
        << m.what;
  }
}

TEST(Snapshot, SerializationIsDeterministic) {
  // The file is a function of the design and settings alone: engines built
  // over one trained model at 4 pool lanes and at 1 write the same bytes,
  // in both modes.
  const Netlist nl = small_netlist();
  gnn::TimingGnn model(nl, WarmCircuit::gopts());
  io::SnapshotMeta meta;
  meta.train_r2 = model.train().r2;
  const std::string a = testing::TempDir() + "cirstag_snapshot_a.bin";
  const std::string b = testing::TempDir() + "cirstag_snapshot_b.bin";
  for (const bool exact : {true, false}) {
    meta.exact = exact;
    for (const auto& [threads, path] : {std::pair{4, a}, std::pair{1, b}}) {
      runtime::set_global_threads(threads);
      core::SweepOptions sopts;
      sopts.exact = exact;
      const core::SweepEngine engine(nl, model, sopts);
      io::write_snapshot(path, model, engine, meta);
    }
    EXPECT_EQ(read_file(a), read_file(b)) << (exact ? "exact" : "fast");
  }
  runtime::set_global_threads(0);  // back to the environment default
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Snapshot, CorruptCorpusFailsCleanlyWithHealthEvents) {
  const Netlist nl = small_netlist();
  WarmCircuit warm(nl, /*exact=*/true);
  const std::string path = testing::TempDir() + "cirstag_snapshot_good.bin";
  io::write_snapshot(path, warm.model, *warm.engine, warm.meta);
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 128u);

  struct Mutation {
    const char* what;
    std::vector<char> (*mutate)(std::vector<char>);
  };
  const Mutation corpus[] = {
      {"truncated header",
       [](std::vector<char> b) { b.resize(32); return b; }},
      {"truncated payload",
       [](std::vector<char> b) { b.resize(b.size() / 2); return b; }},
      {"flipped payload byte (checksum mismatch)",
       [](std::vector<char> b) { b[b.size() - 8] ^= 0x40; return b; }},
      {"wrong magic",
       [](std::vector<char> b) { b[0] ^= 0xFF; return b; }},
      {"foreign endianness probe",
       [](std::vector<char> b) { std::swap(b[8], b[11]); return b; }},
      {"unsupported format version",
       [](std::vector<char> b) { b[12] = 99; return b; }},
      {"format version 1",
       [](std::vector<char> b) { b[12] = 1; return b; }},
      {"format version 2",
       [](std::vector<char> b) { b[12] = 2; return b; }},
      {"format version 3",
       [](std::vector<char> b) { b[12] = 3; return b; }},
  };

  const std::string bad = testing::TempDir() + "cirstag_snapshot_bad.bin";
  for (const Mutation& m : corpus) {
    write_file(bad, m.mutate(good));
    const std::uint64_t failures_before = counter("snapshot.read_failures");
    const std::uint64_t health_begin =
        obs::HealthMonitor::global().next_index();
    EXPECT_THROW(io::read_snapshot(bad, lib()), io::SnapshotError) << m.what;
    EXPECT_EQ(counter("snapshot.read_failures"), failures_before + 1)
        << m.what;
    const obs::HealthReport report =
        obs::HealthMonitor::global().collect_since(health_begin);
    bool saw_corrupt = false;
    for (const auto& event : report.events)
      if (event.kind == "snapshot.corrupt") saw_corrupt = true;
    EXPECT_TRUE(saw_corrupt) << m.what;
  }
  std::remove(bad.c_str());

  // Missing file: same clean failure without a file to corrupt.
  EXPECT_THROW(io::read_snapshot("/nonexistent/missing.bin", lib()),
               io::SnapshotError);
  // The pristine bytes still read back fine after all that.
  EXPECT_NO_THROW((void)io::read_snapshot(path, lib()));
  std::remove(path.c_str());
}

TEST(Snapshot, NetlistFromPartsValidatesCrossReferences) {
  const Netlist nl = small_netlist();
  const auto parts_pins = std::vector<circuit::Pin>(nl.pins().begin(),
                                                    nl.pins().end());
  const auto parts_gates = std::vector<circuit::Gate>(nl.gates().begin(),
                                                      nl.gates().end());
  const auto parts_nets = std::vector<circuit::Net>(nl.nets().begin(),
                                                    nl.nets().end());
  const auto parts_pis = std::vector<circuit::PinId>(
      nl.primary_inputs().begin(), nl.primary_inputs().end());
  const auto parts_pos = std::vector<circuit::PinId>(
      nl.primary_outputs().begin(), nl.primary_outputs().end());

  // Faithful parts reassemble into an equivalent finalized netlist.
  const Netlist rebuilt = Netlist::from_parts(lib(), parts_pins, parts_gates,
                                              parts_nets, parts_pis,
                                              parts_pos);
  EXPECT_TRUE(rebuilt.finalized());
  EXPECT_EQ(rebuilt.num_pins(), nl.num_pins());
  EXPECT_EQ(rebuilt.num_gates(), nl.num_gates());
  EXPECT_EQ(rebuilt.num_nets(), nl.num_nets());

  // Each corrupted cross-reference is rejected up front.
  {
    auto pins = parts_pins;
    pins[0].net = static_cast<circuit::NetId>(parts_nets.size() + 5);
    EXPECT_THROW(Netlist::from_parts(lib(), pins, parts_gates, parts_nets,
                                     parts_pis, parts_pos),
                 std::exception);
  }
  {
    auto gates = parts_gates;
    gates[0].output = static_cast<circuit::PinId>(parts_pins.size());
    EXPECT_THROW(Netlist::from_parts(lib(), parts_pins, gates, parts_nets,
                                     parts_pis, parts_pos),
                 std::exception);
  }
  {
    auto nets = parts_nets;
    nets[0].wire_capacitance = -1.0;
    EXPECT_THROW(Netlist::from_parts(lib(), parts_pins, parts_gates, nets,
                                     parts_pis, parts_pos),
                 std::exception);
  }
  {
    auto pos = parts_pos;
    pos[0] = static_cast<circuit::PinId>(parts_pins.size() + 1);
    EXPECT_THROW(Netlist::from_parts(lib(), parts_pins, parts_gates,
                                     parts_nets, parts_pis, pos),
                 std::exception);
  }
}

}  // namespace
