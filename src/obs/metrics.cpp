#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/json.hpp"

namespace cirstag::obs {

namespace {

/// Single-writer relaxed read-modify-write: each shard cell is written only
/// by its owning thread, so a plain load+store pair is race-free and cheaper
/// than a locked fetch_add; aggregating readers see a torn-free value.
inline void shard_add_u64(std::atomic<std::uint64_t>& cell,
                          std::uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

inline void shard_add_f64(std::atomic<double>& cell, double delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// alignas(64): each shard starts on its own cache line and (being a
// multiple of 64 bytes) never straddles into a neighbour, so one thread's
// relaxed counter stores can't false-share with another shard's hot lines.
struct alignas(64) MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms * kHistStride>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_count{};
  std::array<std::atomic<double>, kMaxHistograms> hist_sum{};
};

namespace {

/// Per-thread cache of (registry id -> shard). A few slots suffice: the
/// global registry plus at most a couple of test-local ones are live at a
/// time. Stale ids from destroyed registries simply never match again.
struct TlsEntry {
  std::uint64_t registry_id = 0;
  MetricsRegistry::Shard* shard = nullptr;
};
constexpr std::size_t kTlsSlots = 4;
thread_local std::array<TlsEntry, kTlsSlots> t_shard_cache{};
thread_local std::size_t t_shard_rr = 0;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : registry_id_(next_registry_id()),
      gauges_(new std::atomic<double>[kMaxGauges]) {
  for (std::size_t i = 0; i < kMaxGauges; ++i)
    gauges_[i].store(0.0, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // intentionally leaked
  return *reg;
}

MetricsRegistry::Shard& MetricsRegistry::shard() {
  for (const TlsEntry& e : t_shard_cache)
    if (e.registry_id == registry_id_) return *e.shard;
  return acquire_shard();
}

MetricsRegistry::Shard& MetricsRegistry::acquire_shard() {
  std::lock_guard lock(mutex_);
  Shard*& slot = shard_by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    shards_.push_back(std::make_unique<Shard>());
    slot = shards_.back().get();
  }
  t_shard_cache[t_shard_rr] = {registry_id_, slot};
  t_shard_rr = (t_shard_rr + 1) % kTlsSlots;
  return *slot;
}

std::size_t MetricsRegistry::counter_id(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it =
      std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it != counter_names_.end())
    return static_cast<std::size_t>(it - counter_names_.begin());
  if (counter_names_.size() >= kMaxCounters)
    throw std::length_error("MetricsRegistry: counter capacity exceeded");
  counter_names_.push_back(name);
  return counter_names_.size() - 1;
}

std::size_t MetricsRegistry::gauge_id(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = std::find(gauge_names_.begin(), gauge_names_.end(), name);
  if (it != gauge_names_.end())
    return static_cast<std::size_t>(it - gauge_names_.begin());
  if (gauge_names_.size() >= kMaxGauges)
    throw std::length_error("MetricsRegistry: gauge capacity exceeded");
  gauge_names_.push_back(name);
  return gauge_names_.size() - 1;
}

std::size_t MetricsRegistry::histogram_id(const std::string& name,
                                          std::vector<double> bounds) {
  if (bounds.empty() || bounds.size() >= kHistStride)
    throw std::invalid_argument("MetricsRegistry: bad histogram bound count");
  for (std::size_t i = 1; i < bounds.size(); ++i)
    if (!(bounds[i - 1] < bounds[i]))
      throw std::invalid_argument(
          "MetricsRegistry: histogram bounds must be strictly increasing");
  std::lock_guard lock(mutex_);
  const auto it =
      std::find(histogram_names_.begin(), histogram_names_.end(), name);
  if (it != histogram_names_.end())
    return static_cast<std::size_t>(it - histogram_names_.begin());
  if (histogram_names_.size() >= kMaxHistograms)
    throw std::length_error("MetricsRegistry: histogram capacity exceeded");
  histogram_names_.push_back(name);
  histogram_bounds_.push_back(std::move(bounds));
  return histogram_names_.size() - 1;
}

void MetricsRegistry::counter_add(std::size_t id, std::uint64_t delta) {
  shard_add_u64(shard().counters[id], delta);
}

void MetricsRegistry::gauge_set(std::size_t id, double value) {
  gauges_[id].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::histogram_observe(std::size_t id, double value) {
  // Bucket index is registry state, but bounds are immutable once
  // registered, so reading them without the mutex is safe.
  const std::vector<double>& bounds = histogram_bounds_[id];
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  Shard& s = shard();
  shard_add_u64(s.hist_buckets[id * kHistStride + bucket], 1);
  shard_add_u64(s.hist_count[id], 1);
  shard_add_f64(s.hist_sum[id], value);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& s : shards_)
      total += s->counters[i].load(std::memory_order_relaxed);
    snap.counters.emplace_back(counter_names_[i], total);
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i)
    snap.gauges.emplace_back(gauge_names_[i],
                             gauges_[i].load(std::memory_order_relaxed));
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSnapshot h;
    h.bounds = histogram_bounds_[i];
    h.buckets.assign(h.bounds.size() + 1, 0);
    for (const auto& s : shards_) {
      for (std::size_t b = 0; b < h.buckets.size(); ++b)
        h.buckets[b] += s->hist_buckets[i * kHistStride + b].load(
            std::memory_order_relaxed);
      h.count += s->hist_count[i].load(std::memory_order_relaxed);
      h.sum += s->hist_sum[i].load(std::memory_order_relaxed);
    }
    snap.histograms.emplace_back(histogram_names_[i], std::move(h));
  }
  return snap;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it =
      std::find(counter_names_.begin(), counter_names_.end(), name);
  if (it == counter_names_.end()) return 0;
  const auto id = static_cast<std::size_t>(it - counter_names_.begin());
  std::uint64_t total = 0;
  for (const auto& s : shards_)
    total += s->counters[id].load(std::memory_order_relaxed);
  return total;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = std::find(gauge_names_.begin(), gauge_names_.end(), name);
  if (it == gauge_names_.end()) return 0.0;
  return gauges_[static_cast<std::size_t>(it - gauge_names_.begin())].load(
      std::memory_order_relaxed);
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::histogram_value(
    const std::string& name) const {
  HistogramSnapshot snap;
  std::lock_guard lock(mutex_);
  const auto it =
      std::find(histogram_names_.begin(), histogram_names_.end(), name);
  if (it == histogram_names_.end()) return snap;
  const auto id = static_cast<std::size_t>(it - histogram_names_.begin());
  snap.bounds = histogram_bounds_[id];
  snap.buckets.assign(snap.bounds.size() + 1, 0);
  for (const auto& s : shards_) {
    for (std::size_t b = 0; b < snap.buckets.size(); ++b)
      snap.buckets[b] +=
          s->hist_buckets[id * kHistStride + b].load(std::memory_order_relaxed);
    snap.count += s->hist_count[id].load(std::memory_order_relaxed);
    snap.sum += s->hist_sum[id].load(std::memory_order_relaxed);
  }
  return snap;
}

double MetricsRegistry::HistogramSnapshot::quantile(double q) const {
  if (count == 0 || buckets.empty() || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil) among `count` sorted
  // observations, then walk the cumulative bucket counts to find its bucket.
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (b == bounds.size()) return bounds.back();  // overflow: clamp
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double hi = bounds[b];
    const double into =
        (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * into;
  }
  return bounds.back();
}

std::string MetricsRegistry::to_json(
    std::span<const std::pair<std::string, std::string>> extra) const {
  // Render from the consistent snapshot — the exit-time dump and the live
  // /metrics scrape share one aggregation path by construction.
  const Snapshot full = snapshot();
  JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, value] : full.counters) w.field(name, value);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : full.gauges) w.field(name, value);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, snap] : full.histograms) {
    w.key(name).begin_object().field("bounds", snap.bounds);
    w.key("buckets").begin_array();
    for (const std::uint64_t n : snap.buckets) w.value(n);
    w.end_array()
        .field("count", snap.count)
        .field("sum", snap.sum)
        .field("p50", snap.quantile(0.50))
        .field("p95", snap.quantile(0.95))
        .field("p99", snap.quantile(0.99))
        .end_object();
  }
  w.end_object();
  for (const auto& [name, json] : extra) w.key(name).raw(json);
  return w.end_object().take();
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& s : shards_) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->hist_buckets) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->hist_count) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->hist_sum) c.store(0.0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxGauges; ++i)
    gauges_[i].store(0.0, std::memory_order_relaxed);
}

}  // namespace cirstag::obs
