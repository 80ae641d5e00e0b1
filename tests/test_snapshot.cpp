// Binary circuit-snapshot contracts (io/snapshot, DESIGN.md §13):
// write/read round-trip restores a warm engine whose answers are
// byte-identical to the exporting one with zero eigensolves and zero
// training epochs; serialization is deterministic (two writes of the same
// state are byte-identical); and every corruption — truncation, flipped
// payload bits, wrong magic/version, a foreign endianness probe — fails
// cleanly with a SnapshotError, a snapshot.read_failures bump, and a
// "snapshot.corrupt" health event, never a crash or a half-restored
// circuit. Netlist::from_parts (the restore path's structural gate) is
// exercised directly against out-of-range cross-references, and the
// restoring engine against kNN baselines that do not fit the netlist.

#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "circuit/generator.hpp"
#include "circuit/netlist.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "obs/health.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

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

core::SweepVariant test_variant(const Netlist& nl) {
  core::SweepVariant v;
  v.cap_scalings.push_back({static_cast<circuit::PinId>(nl.num_pins() / 2),
                            5.0});
  return v;
}

/// Scales every cell-input pin of the first last-level gate: only that
/// gate's GNN output rows move, so a fast variant delta-re-queries the
/// output-side kNN baseline instead of rebuilding it.
core::SweepVariant last_level_variant(const Netlist& nl) {
  const circuit::GateId g = nl.gates_at_level(nl.num_gate_levels() - 1)[0];
  core::SweepVariant v;
  for (circuit::PinId p = 0; p < nl.num_pins(); ++p)
    if (nl.pin(p).kind == circuit::PinKind::CellInput && nl.pin(p).gate == g)
      v.cap_scalings.push_back({p, 1.5});
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

  // Adopted baseline is the exporter's, byte for byte.
  EXPECT_EQ(restored.baseline().node_scores,
            original.engine->baseline().node_scores);
  EXPECT_EQ(restored.baseline().eigenvalues,
            original.engine->baseline().eigenvalues);
  EXPECT_EQ(restored.baseline().checksums.node_scores,
            obs::fnv1a_doubles(original.engine->baseline().node_scores));
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

  const std::vector<core::SweepVariant> variants{test_variant(nl)};
  const auto a = original.engine->run(variants);
  const auto b = restored.run(variants);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].report.node_scores, b[0].report.node_scores);

  // The file keeps no kNN points: the restore takes the input side's from
  // the report and the output side's from its own GNN forward. A variant
  // that engages the output-side delta re-queries around those points, so
  // any bit they lost would show in its re-queried set or its checksums.
  const std::vector<core::SweepVariant> shallow{last_level_variant(nl)};
  const auto c = original.engine->run(shallow);
  const auto d = restored.run(shallow);
  ASSERT_EQ(c.size(), 1u);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_GT(c[0].stats.knn_y.total_points, 0u) << "delta did not engage";
  EXPECT_EQ(d[0].stats.knn_y.total_points, c[0].stats.knn_y.total_points);
  EXPECT_EQ(d[0].stats.knn_y.requeried_points,
            c[0].stats.knn_y.requeried_points);
  const auto want = c[0].report.checksums.fields();
  const auto got = d[0].report.checksums.fields();
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i].second, want[i].second) << want[i].first;
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsKnnBaselineThatDoesNotFitNetlist) {
  // A fast-mode delta re-query indexes one kNN list per pin, so a restored
  // state whose lists do not fit the netlist must fail up front (serve turns
  // the throw into a failed /load), never at the first variant.
  const Netlist nl = small_netlist(11);
  WarmCircuit warm(nl, /*exact=*/false);
  const core::SweepBaselineState& good = warm.engine->export_baseline_state();
  ASSERT_EQ(good.mx.hits.size(), nl.num_pins());
  ASSERT_EQ(good.my.hits.size(), nl.num_pins());
  core::SweepOptions sopts;
  sopts.exact = false;
  const auto restore = [&](core::SweepBaselineState state) {
    return core::SweepEngine(nl, warm.model, sopts, std::move(state));
  };
  EXPECT_NO_THROW((void)restore(good));

  const struct {
    const char* what;
    void (*mutate)(core::SweepBaselineState&, std::size_t pins);
  } corpus[] = {
      {"output side missing its last list",
       [](core::SweepBaselineState& s, std::size_t) { s.my.hits.pop_back(); }},
      {"input side with one list too many",
       [](core::SweepBaselineState& s, std::size_t) {
         s.mx.hits.emplace_back();
       }},
      {"neighbor index equal to the pin count",
       [](core::SweepBaselineState& s, std::size_t pins) {
         s.my.hits[0][0].index = pins;
       }},
      {"k other than the config's",
       [](core::SweepBaselineState& s, std::size_t) { ++s.mx.k; }},
  };
  for (const auto& m : corpus) {
    core::SweepBaselineState bad = good;
    m.mutate(bad, nl.num_pins());
    EXPECT_THROW((void)restore(std::move(bad)), std::invalid_argument)
        << m.what;
  }
}

TEST(Snapshot, SerializationIsDeterministic) {
  const Netlist nl = small_netlist();
  WarmCircuit warm(nl, /*exact=*/true);
  const std::string a = testing::TempDir() + "cirstag_snapshot_a.bin";
  const std::string b = testing::TempDir() + "cirstag_snapshot_b.bin";
  io::write_snapshot(a, warm.model, *warm.engine, warm.meta);
  io::write_snapshot(b, warm.model, *warm.engine, warm.meta);
  EXPECT_EQ(read_file(a), read_file(b));
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
  };

  obs::HealthMonitor::global().set_enabled(true);
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
