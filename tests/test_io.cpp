#include "circuit/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/generator.hpp"
#include "circuit/modules.hpp"
#include "circuit/sta.hpp"

namespace {

using namespace cirstag::circuit;

class IoTest : public ::testing::Test {
 protected:
  CellLibrary lib = CellLibrary::standard();
};

void expect_netlists_equal(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.num_gates(), b.num_gates());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.primary_inputs().size(), b.primary_inputs().size());
  ASSERT_EQ(a.primary_outputs().size(), b.primary_outputs().size());
  for (GateId g = 0; g < a.num_gates(); ++g) {
    EXPECT_EQ(a.gate(g).type, b.gate(g).type);
    EXPECT_EQ(a.gate(g).module_label, b.gate(g).module_label);
    EXPECT_EQ(a.gate(g).inputs, b.gate(g).inputs);
    EXPECT_EQ(a.gate(g).output, b.gate(g).output);
  }
  for (PinId p = 0; p < a.num_pins(); ++p) {
    EXPECT_EQ(a.pin(p).kind, b.pin(p).kind);
    EXPECT_EQ(a.pin(p).net, b.pin(p).net);
    EXPECT_DOUBLE_EQ(a.pin(p).capacitance, b.pin(p).capacitance);
  }
  for (NetId n = 0; n < a.num_nets(); ++n) {
    EXPECT_EQ(a.net(n).driver, b.net(n).driver);
    EXPECT_EQ(a.net(n).sinks, b.net(n).sinks);
    EXPECT_DOUBLE_EQ(a.net(n).wire_resistance, b.net(n).wire_resistance);
    EXPECT_DOUBLE_EQ(a.net(n).wire_capacitance, b.net(n).wire_capacitance);
  }
}

TEST_F(IoTest, RoundTripsRandomCircuit) {
  RandomCircuitSpec spec;
  spec.num_gates = 120;
  spec.seed = 71;
  const Netlist original = generate_random_logic(lib, spec);

  std::stringstream buffer;
  write_netlist(buffer, original);
  const Netlist loaded = read_netlist(buffer, lib);
  expect_netlists_equal(original, loaded);

  // Timing of the round-tripped netlist is bit-identical.
  EXPECT_DOUBLE_EQ(run_sta(original).worst_arrival,
                   run_sta(loaded).worst_arrival);
}

TEST_F(IoTest, RoundTripsModuleLabels) {
  ReDesignSpec spec;
  spec.seed = 73;
  const Netlist original = make_re_netlist(lib, spec);
  std::stringstream buffer;
  write_netlist(buffer, original);
  const Netlist loaded = read_netlist(buffer, lib);
  expect_netlists_equal(original, loaded);
}

TEST_F(IoTest, FileRoundTrip) {
  RandomCircuitSpec spec;
  spec.num_gates = 40;
  spec.seed = 79;
  const Netlist original = generate_random_logic(lib, spec);
  const std::string path = testing::TempDir() + "cirstag_io_test.ckt";
  save_netlist(path, original);
  const Netlist loaded = load_netlist(path, lib);
  expect_netlists_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-netlist\n");
  EXPECT_THROW(read_netlist(buffer, lib), std::runtime_error);
}

TEST_F(IoTest, RejectsUnknownDirective) {
  std::stringstream buffer("cirstag-netlist 1\nbogus 1 2 3\n");
  EXPECT_THROW(read_netlist(buffer, lib), std::runtime_error);
}

TEST_F(IoTest, RejectsBadDriverRef) {
  std::stringstream buffer(
      "cirstag-netlist 1\ninputs 1\ngate INV_X1 -\nconn 0 0 x9\n");
  EXPECT_THROW(read_netlist(buffer, lib), std::runtime_error);
}

TEST_F(IoTest, RejectsOutOfRangeGateRef) {
  std::stringstream buffer(
      "cirstag-netlist 1\ninputs 1\ngate INV_X1 -\nconn 0 0 g5\n");
  EXPECT_THROW(read_netlist(buffer, lib), std::runtime_error);
}

TEST_F(IoTest, RejectsPinCountPastTheCap) {
  // Checked before any pin is added, so the line allocates nothing.
  std::stringstream buffer("cirstag-netlist 1\ninputs " +
                           std::to_string(kMaxNetlistPins + 1) + "\n");
  EXPECT_THROW(read_netlist(buffer, lib), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_netlist("/nonexistent/path.ckt", lib), std::runtime_error);
}

TEST_F(IoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer(
      "cirstag-netlist 1\n"
      "# a comment\n"
      "\n"
      "inputs 1\n"
      "gate INV_X1 3\n"
      "conn 0 0 i0\n"
      "po g0 2.5\n");
  const Netlist nl = read_netlist(buffer, lib);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.gate(0).module_label, 3u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.pin(nl.primary_outputs()[0]).capacitance, 2.5);
}

}  // namespace
