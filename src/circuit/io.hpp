#pragma once

#include <iosfwd>
#include <string>

#include "circuit/netlist.hpp"

namespace cirstag::circuit {

/// Plain-text netlist serialization (format "cirstag-netlist 1").
///
/// The format replays the construction API, so pin/gate/net ids are stable
/// across a save/load round trip:
///
///   cirstag-netlist 1
///   inputs <N>
///   gate <cell-name> <module-label|->          # one per gate, in id order
///   conn <gate-id> <slot> i<pi-id>|g<gate-id>  # driver reference
///   po i<pi-id>|g<gate-id> <load-cap>
///   pincap <pin-id> <capacitance>              # preserves jittered caps
///   net <net-id> <wire-R> <wire-C>
///
/// Lines starting with '#' are comments.
void write_netlist(std::ostream& out, const Netlist& nl);
void save_netlist(const std::string& path, const Netlist& nl);

/// Largest pin count read_netlist accepts, far above the largest design the
/// repository runs (141,744 pins): a short text cannot ask for gigabytes of
/// pins or wrap a PinId.
inline constexpr std::size_t kMaxNetlistPins = std::size_t{1} << 24;

/// Parse a netlist written by write_netlist. The returned netlist is
/// finalized. Throws std::runtime_error on malformed input, and before
/// adding the pins of a line that would pass kMaxNetlistPins.
[[nodiscard]] Netlist read_netlist(std::istream& in, const CellLibrary& lib);
[[nodiscard]] Netlist load_netlist(const std::string& path,
                                   const CellLibrary& lib);

}  // namespace cirstag::circuit
