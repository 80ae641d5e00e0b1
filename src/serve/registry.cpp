#include "serve/registry.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "circuit/cell_library.hpp"
#include "circuit/io.hpp"
#include "io/snapshot.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace cirstag::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The netlist keeps a pointer to its cell library, and analyze/sweep
/// requests walk it long after a load returns — the library must have
/// static storage duration.
const circuit::CellLibrary& cell_library() {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  return lib;
}

}  // namespace

CircuitRegistry::LoadResult CircuitRegistry::load_from_path(
    const std::string& name, const std::string& path,
    const LoadOptions& options) {
  return load_impl(name, path, /*is_path=*/true, options);
}

CircuitRegistry::LoadResult CircuitRegistry::load_from_text(
    const std::string& name, const std::string& netlist_text,
    const LoadOptions& options) {
  return load_impl(name, netlist_text, /*is_path=*/false, options);
}

CircuitRegistry::LoadResult CircuitRegistry::load_from_snapshot(
    const std::string& name, const std::string& path) {
  static const obs::Counter loads("serve.registry.snapshot_loads");
  LoadResult result = load_with(name, loads, [&path] {
    const auto t0 = std::chrono::steady_clock::now();
    io::SnapshotData data = io::read_snapshot(path, cell_library());
    auto record = std::make_shared<CircuitRecord>(std::move(data.netlist));
    record->options.gnn_epochs = data.gnn_options.epochs;
    record->options.gnn_hidden = data.gnn_options.hidden_dim;
    record->options.exact = data.meta.exact;
    record->train_r2 = data.meta.train_r2;
    record->train_seconds = 0.0;  // nothing trained — that is the point
    // The model must be constructed against the netlist's FINAL address
    // (the record's member), never the temporary SnapshotData field.
    record->model = io::restore_model(record->netlist, data);
    core::SweepOptions sopts;
    sopts.exact = data.meta.exact;
    record->engine = std::make_unique<core::SweepEngine>(
        record->netlist, *record->model, sopts, std::move(data.state));
    record->baseline_seconds = seconds_since(t0);
    return record;
  });
  if (const CircuitRecord* record = result.record.get())
    obs::logf_info("serve",
                   "restored circuit '%s' from snapshot: %zu pins, %zu gates, "
                   "R2 %.4f (restore %.2fs, %s mode)",
                   name.c_str(), record->netlist.num_pins(),
                   record->netlist.num_gates(), record->train_r2,
                   record->baseline_seconds,
                   record->options.exact ? "exact" : "fast");
  return result;
}

CircuitRegistry::LoadResult CircuitRegistry::load_impl(
    const std::string& name, const std::string& path_or_text, bool is_path,
    const LoadOptions& options) {
  static const obs::Counter loads("serve.registry.loads");
  LoadResult result = load_with(name, loads, [&] {
    std::shared_ptr<CircuitRecord> record;
    if (is_path) {
      record = std::make_shared<CircuitRecord>(
          circuit::load_netlist(path_or_text, cell_library()));
    } else {
      std::istringstream in(path_or_text);
      record = std::make_shared<CircuitRecord>(
          circuit::read_netlist(in, cell_library()));
    }
    record->options = options;

    gnn::TimingGnnOptions gopts;
    gopts.epochs = options.gnn_epochs;
    gopts.hidden_dim = options.gnn_hidden;
    const auto t_train = std::chrono::steady_clock::now();
    record->model =
        std::make_unique<gnn::TimingGnn>(record->netlist, gopts);
    record->train_r2 = record->model->train().r2;
    record->train_seconds = seconds_since(t_train);

    core::SweepOptions sopts;
    sopts.exact = options.exact;
    const auto t_base = std::chrono::steady_clock::now();
    record->engine = std::make_unique<core::SweepEngine>(
        record->netlist, *record->model, sopts);
    record->baseline_seconds = seconds_since(t_base);
    return record;
  });
  if (const CircuitRecord* record = result.record.get())
    obs::logf_info("serve", "loaded circuit '%s': %zu pins, %zu gates, "
                   "R2 %.4f (train %.2fs, baseline %.2fs, %s mode)",
                   name.c_str(), record->netlist.num_pins(),
                   record->netlist.num_gates(), record->train_r2,
                   record->train_seconds, record->baseline_seconds,
                   options.exact ? "exact" : "fast");
  return result;
}

CircuitRegistry::LoadResult CircuitRegistry::load_with(
    const std::string& name, const obs::Counter& loads,
    const std::function<std::shared_ptr<CircuitRecord>()>& build) {
  static const obs::Counter load_failures("serve.registry.load_failures");
  static const obs::Gauge resident("serve.registry.circuits");

  LoadResult result;
  if (name.empty()) {
    result.error = "circuit name must be non-empty";
    load_failures.add();
    return result;
  }

  // Reserve the name so a concurrent duplicate load fails immediately
  // instead of building a second record it can never publish.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!circuits_.emplace(name, nullptr).second) {
      result.error = "circuit '" + name + "' is already loaded or loading";
      result.name_conflict = true;
      load_failures.add();
      return result;
    }
  }

  std::shared_ptr<CircuitRecord> record;
  try {
    record = build();
    record->name = name;
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    circuits_.erase(name);
    result.error = e.what();
    load_failures.add();
    return result;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    circuits_[name] = record;
    resident.set(static_cast<double>(circuits_.size()));
  }
  loads.add();
  result.record = std::move(record);
  return result;
}

std::shared_ptr<CircuitRecord> CircuitRegistry::lookup(
    const std::string& name) const {
  static obs::Counter hits("serve.registry.hits");
  static obs::Counter misses("serve.registry.misses");
  std::shared_ptr<CircuitRecord> record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = circuits_.find(name);
    if (it != circuits_.end()) record = it->second;
  }
  if (record == nullptr) {
    misses.add();
    return nullptr;
  }
  hits.add();
  return record;
}

bool CircuitRegistry::unload(const std::string& name) {
  static obs::Counter unloads("serve.registry.unloads");
  static obs::Gauge resident("serve.registry.circuits");
  std::shared_ptr<CircuitRecord> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = circuits_.find(name);
    if (it == circuits_.end() || it->second == nullptr) return false;
    dropped = std::move(it->second);
    circuits_.erase(it);
    resident.set(static_cast<double>(circuits_.size()));
  }
  unloads.add();
  obs::logf_info("serve", "unloaded circuit '%s'", name.c_str());
  // `dropped` may carry the last reference; the record (engine, model,
  // solver cache) is destroyed here, outside the registry lock.
  return true;
}

std::vector<std::string> CircuitRegistry::names() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(circuits_.size());
  for (const auto& [name, record] : circuits_)
    if (record != nullptr) out.push_back(name);
  return out;
}

std::vector<CircuitRegistry::CircuitInfo> CircuitRegistry::infos() const {
  std::vector<CircuitInfo> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(circuits_.size());
  for (const auto& [name, record] : circuits_) {
    if (record == nullptr) continue;
    out.push_back({name, record->netlist.num_pins(),
                   record->netlist.num_gates(), record->options.exact,
                   record->train_r2});
  }
  return out;
}

std::size_t CircuitRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, record] : circuits_)
    if (record != nullptr) ++n;
  return n;
}

}  // namespace cirstag::serve
