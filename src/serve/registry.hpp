#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/sweep.hpp"
#include "gnn/timing_gnn.hpp"

namespace cirstag::obs {
class Counter;
}

namespace cirstag::serve {

/// Options of one /load request.
struct LoadOptions {
  std::size_t gnn_epochs = 300;
  std::size_t gnn_hidden = 24;
  /// Engine mode for analyze/sweep requests on this circuit: exact keeps
  /// every served report byte-identical to CirStag::analyze on the same
  /// variant; fast trades kFastScoreDriftTolerance score drift for
  /// throughput (see core/sweep.hpp).
  bool exact = true;
};

/// One resident circuit: netlist + trained GNN surrogate + batched sweep
/// engine whose captured baseline holds the warm state every request wants —
/// baseline spectral embedding, baseline CirSTAG report, incremental-STA and
/// GNN snapshots, and the fingerprint-keyed LaplacianSolverCache.
///
/// Thread contract: after load() publishes a record, `netlist`, `options`,
/// scalar stats, and `engine->baseline()` are immutable — any number of
/// threads may read them without synchronization (the serving layer's
/// top-k / score-region paths do exactly that, via the const helpers in
/// core/query.hpp). `engine->run()` mutates engine-internal caches and must
/// be serialized per record: hold `run_mutex` around it.
struct CircuitRecord {
  /// Netlist has no default constructor (it must be born pointing at a cell
  /// library), so records are created from a fully parsed netlist.
  explicit CircuitRecord(circuit::Netlist parsed) : netlist(std::move(parsed)) {}

  std::string name;
  circuit::Netlist netlist;
  std::unique_ptr<gnn::TimingGnn> model;
  std::unique_ptr<core::SweepEngine> engine;
  LoadOptions options;
  double train_r2 = 0.0;
  double train_seconds = 0.0;
  double baseline_seconds = 0.0;
  std::mutex run_mutex;  ///< serializes engine->run() across requests
};

/// Name-keyed registry of resident circuits.
///
/// load() does the expensive build (netlist parse, GNN training, baseline
/// capture) outside the registry lock, so lookups and other loads proceed
/// while a circuit warms up; the name is reserved first so concurrent loads
/// of the same name fail fast with "already loaded". Records are handed out
/// as shared_ptr: an unload() only drops the registry's reference, requests
/// already holding the record finish safely against live state.
class CircuitRegistry {
 public:
  struct LoadResult {
    std::shared_ptr<CircuitRecord> record;  ///< null on failure
    std::string error;                      ///< reason when null
    bool name_conflict = false;             ///< 409 vs 422 discrimination
  };

  /// Load from a netlist file path ("cirstag-netlist 1" format).
  [[nodiscard]] LoadResult load_from_path(const std::string& name,
                                          const std::string& path,
                                          const LoadOptions& options);
  /// Load from inline netlist text (the /load {"netlist": "..."} form).
  [[nodiscard]] LoadResult load_from_text(const std::string& name,
                                          const std::string& netlist_text,
                                          const LoadOptions& options);

  /// Restore a resident circuit from a binary snapshot (io/snapshot, the
  /// /load {"snapshot": "..."} form). No GNN training and no eigensolves
  /// run — the trained weights and warm sweep baseline are adopted from the
  /// file; LoadOptions (mode, epochs, hidden) come from the snapshot too.
  [[nodiscard]] LoadResult load_from_snapshot(const std::string& name,
                                              const std::string& path);

  /// Resident record by name, or null. Counts serve.registry.hits/misses;
  /// circuits still warming up count as misses.
  [[nodiscard]] std::shared_ptr<CircuitRecord> lookup(
      const std::string& name) const;

  /// Drop the registry's reference; false when the name is not resident.
  bool unload(const std::string& name);

  /// Names of fully loaded circuits, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// Summary of every fully loaded circuit (the /health payload). Unlike
  /// lookup(), this never touches the hit/miss counters — health probes must
  /// not perturb the deterministic registry accounting the bench gate pins.
  struct CircuitInfo {
    std::string name;
    std::size_t pins = 0;
    std::size_t gates = 0;
    bool exact = true;
    double train_r2 = 0.0;
  };
  [[nodiscard]] std::vector<CircuitInfo> infos() const;

 private:
  LoadResult load_impl(const std::string& name,
                       const std::string& path_or_text, bool is_path,
                       const LoadOptions& options);
  /// The protocol every load runs: reject an empty name, reserve the name
  /// (a concurrent duplicate fails at once with name_conflict), run `build`
  /// outside the lock, then publish its record, count it on `loads` and set
  /// the serve.registry.circuits gauge. When `build` throws, the name is
  /// released and its message returned; every failure counts on
  /// serve.registry.load_failures.
  LoadResult load_with(
      const std::string& name, const obs::Counter& loads,
      const std::function<std::shared_ptr<CircuitRecord>()>& build);

  mutable std::mutex mutex_;
  /// nullptr value = name reserved by an in-flight load.
  std::map<std::string, std::shared_ptr<CircuitRecord>> circuits_;
};

}  // namespace cirstag::serve
