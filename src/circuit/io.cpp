#include "circuit/io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cirstag::circuit {

namespace {

/// Driver reference: primary input k -> "i<k>", gate k's output -> "g<k>".
std::string driver_ref(const Netlist& nl, PinId driver) {
  const Pin& pin = nl.pin(driver);
  if (pin.kind == PinKind::PrimaryInput) {
    for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i)
      if (nl.primary_inputs()[i] == driver) return "i" + std::to_string(i);
    throw std::logic_error("driver_ref: PI pin not in primary_inputs");
  }
  if (pin.kind == PinKind::CellOutput) return "g" + std::to_string(pin.gate);
  throw std::logic_error("driver_ref: pin cannot drive");
}

PinId resolve_ref(const Netlist& nl, const std::string& ref) {
  if (ref.size() < 2)
    throw std::runtime_error("netlist parse: bad driver ref '" + ref + "'");
  const auto idx = static_cast<std::size_t>(std::stoull(ref.substr(1)));
  if (ref[0] == 'i') {
    if (idx >= nl.primary_inputs().size())
      throw std::runtime_error("netlist parse: PI index out of range");
    return nl.primary_inputs()[idx];
  }
  if (ref[0] == 'g') {
    if (idx >= nl.num_gates())
      throw std::runtime_error("netlist parse: gate index out of range");
    return nl.gate(static_cast<GateId>(idx)).output;
  }
  throw std::runtime_error("netlist parse: bad driver ref '" + ref + "'");
}

}  // namespace

void write_netlist(std::ostream& out, const Netlist& nl) {
  // max_digits10 guarantees doubles survive the text round trip bit-exactly.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "cirstag-netlist 1\n";
  out << "# gates=" << nl.num_gates() << " pins=" << nl.num_pins()
      << " nets=" << nl.num_nets() << "\n";
  out << "inputs " << nl.primary_inputs().size() << "\n";

  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    out << "gate " << nl.library().cell(gate.type).name << " ";
    if (gate.module_label == kInvalidId) out << "-";
    else out << gate.module_label;
    out << "\n";
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    for (std::size_t slot = 0; slot < gate.inputs.size(); ++slot) {
      const PinId driver = nl.net(nl.pin(gate.inputs[slot]).net).driver;
      out << "conn " << g << " " << slot << " " << driver_ref(nl, driver)
          << "\n";
    }
  }
  for (PinId po : nl.primary_outputs()) {
    const PinId driver = nl.net(nl.pin(po).net).driver;
    out << "po " << driver_ref(nl, driver) << " " << nl.pin(po).capacitance
        << "\n";
  }
  for (PinId p = 0; p < nl.num_pins(); ++p)
    out << "pincap " << p << " " << nl.pin(p).capacitance << "\n";
  for (NetId n = 0; n < nl.num_nets(); ++n)
    out << "net " << n << " " << nl.net(n).wire_resistance << " "
        << nl.net(n).wire_capacitance << "\n";
}

Netlist read_netlist(std::istream& in, const CellLibrary& lib) {
  std::string header;
  std::getline(in, header);
  if (header.rfind("cirstag-netlist 1", 0) != 0)
    throw std::runtime_error("netlist parse: bad header '" + header + "'");

  Netlist nl(lib);
  const auto check_pin_budget = [&nl](std::size_t count) {
    if (count > kMaxNetlistPins - nl.num_pins())
      throw std::runtime_error("netlist parse: more than " +
                               std::to_string(kMaxNetlistPins) + " pins");
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string cmd;
    ls >> cmd;
    if (cmd == "inputs") {
      std::size_t count = 0;
      ls >> count;
      check_pin_budget(count);
      for (std::size_t i = 0; i < count; ++i) nl.add_primary_input();
    } else if (cmd == "gate") {
      std::string cell, label;
      ls >> cell >> label;
      const std::uint32_t mod =
          label == "-" ? kInvalidId
                       : static_cast<std::uint32_t>(std::stoul(label));
      const CellTypeId type = lib.id_of(cell);
      check_pin_budget(lib.cell(type).num_inputs + std::size_t{1});
      nl.add_gate(type, mod);
    } else if (cmd == "conn") {
      GateId g = 0;
      std::size_t slot = 0;
      std::string ref;
      ls >> g >> slot >> ref;
      nl.connect_input(g, slot, resolve_ref(nl, ref));
    } else if (cmd == "po") {
      std::string ref;
      double cap = 0.0;
      ls >> ref >> cap;
      nl.add_primary_output(resolve_ref(nl, ref), cap);
    } else if (cmd == "pincap") {
      PinId p = 0;
      double cap = 0.0;
      ls >> p >> cap;
      nl.set_pin_capacitance(p, cap);
    } else if (cmd == "net") {
      NetId n = 0;
      double r = 0.0, c = 0.0;
      ls >> n >> r >> c;
      nl.set_net_wire(n, r, c);
    } else {
      throw std::runtime_error("netlist parse: unknown directive '" + cmd +
                               "'");
    }
    if (!ls && !ls.eof())
      throw std::runtime_error("netlist parse: malformed line '" + line + "'");
  }
  nl.finalize();
  return nl;
}

void save_netlist(const std::string& path, const Netlist& nl) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_netlist: cannot open " + path);
  write_netlist(out, nl);
  if (!out) throw std::runtime_error("save_netlist: write failed " + path);
}

Netlist load_netlist(const std::string& path, const CellLibrary& lib) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_netlist: cannot open " + path);
  return read_netlist(in, lib);
}

}  // namespace cirstag::circuit
