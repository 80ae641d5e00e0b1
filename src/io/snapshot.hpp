#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/cell_library.hpp"
#include "circuit/netlist.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::io {

/// Binary circuit-snapshot format (DESIGN.md §13): one versioned,
/// checksummed container holding only what training and the solves
/// produced for a resident circuit — the finalized netlist, the trained GNN
/// weights, U_M, the DMD eigenvalues and V_s, and both manifolds, in one
/// layout for both sweep modes. No timings or thread count: the bytes
/// depend on the design and settings alone. Restoring
/// re-trains and re-solves nothing (`eigen.runs` and `gnn.train_epochs`
/// stay 0); the restoring SweepEngine derives the rest through the fresh
/// pipeline's own calls.
///
/// On-disk layout: a 64-byte header (magic, native-endianness probe, format
/// version, FNV-1a payload checksum, file size, section count), then a
/// section table and 64-byte-aligned section payloads. Numeric arrays are
/// stored in host byte order for zero-transform bulk I/O; the endianness
/// probe rejects files written on a different-endianness host cleanly
/// instead of deserializing garbage. Every malformed input — truncation,
/// flipped bits, wrong magic/version/endianness, out-of-range
/// cross-references — throws SnapshotError after recording a
/// "snapshot.corrupt" health event; a corrupt file can never crash the
/// reader or produce a half-restored circuit. Stored arrays that do not fit
/// the netlist fail in the restoring SweepEngine (std::invalid_argument).

/// Files of any other version fail with SnapshotError: snapshots are
/// derived artifacts, regenerated from the netlist rather than migrated.
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/// Every snapshot failure mode (I/O, corruption, shape mismatch).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Snapshot-level metadata carried alongside the state sections.
struct SnapshotMeta {
  /// SweepOptions::exact of the exporting engine: the restore builds its
  /// engine in the same mode.
  bool exact = true;
  double train_r2 = 0.0;  ///< training diagnostic, surfaced by /health
};

/// Everything read back from a snapshot file, in address-stable-free form:
/// the caller first moves `netlist` to its final home, then builds the model
/// against that address with restore_model(), then hands `state` (the
/// stored arrays only) to SweepEngine's restoring constructor.
struct SnapshotData {
  circuit::Netlist netlist;  ///< finalized
  gnn::TimingGnnOptions gnn_options;
  std::vector<linalg::Matrix> gnn_params;
  std::vector<double> scaler_mean;
  std::vector<double> scaler_inv_std;
  double target_mean = 0.0;
  double target_scale = 1.0;
  core::SweepBaselineState state;
  SnapshotMeta meta;
};

/// Serialize a trained model + warm sweep engine to `path`. `model` and
/// `engine` must be built over the same netlist. Throws SnapshotError on
/// I/O failure.
void write_snapshot(const std::string& path, gnn::TimingGnn& model,
                    const core::SweepEngine& engine, const SnapshotMeta& meta);

/// Read and validate a snapshot. `lib` must outlive the returned netlist
/// (serve keeps a static standard library for exactly this reason).
/// Throws SnapshotError on any corruption or I/O failure.
[[nodiscard]] SnapshotData read_snapshot(const std::string& path,
                                         const circuit::CellLibrary& lib);

/// Construct a TimingGnn over `netlist` (which must be the restored
/// netlist, at its final address) and load the snapshot's trained state
/// into it — no training runs. Throws SnapshotError on shape mismatch.
[[nodiscard]] std::unique_ptr<gnn::TimingGnn> restore_model(
    const circuit::Netlist& netlist, const SnapshotData& data);

}  // namespace cirstag::io
