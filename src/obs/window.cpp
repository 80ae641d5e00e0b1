#include "obs/window.hpp"

#include <algorithm>
#include <cmath>

#include "obs/clock.hpp"

namespace cirstag::obs {

namespace {

std::int64_t slot_for(double now_us, double slot_us) {
  return static_cast<std::int64_t>(std::floor(now_us / slot_us));
}

}  // namespace

// ---------------------------------------------------------------------------
// WindowedHistogram

WindowedHistogram::WindowedHistogram(std::vector<double> bounds, Config config)
    : bounds_(std::move(bounds)),
      slot_us_(config.slot_seconds * 1e6),
      num_slots_(config.num_slots == 0 ? 1 : config.num_slots),
      slots_(num_slots_) {
  for (auto& slot : slots_) {
    slot.buckets.assign(bounds_.size() + 1, 0);  // +1 overflow bucket
  }
}

double WindowedHistogram::window_seconds() const {
  return static_cast<double>(num_slots_) * slot_us_ / 1e6;
}

std::int64_t WindowedHistogram::slot_index(double now_us) const {
  return slot_for(now_us, slot_us_);
}

void WindowedHistogram::observe(double value) {
  observe_at(value, process_now_us());
}

void WindowedHistogram::observe_at(double value, double now_us) {
  const std::int64_t idx = slot_index(now_us);
  std::size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) {
    ++bucket;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<std::size_t>(
      ((idx % static_cast<std::int64_t>(num_slots_)) +
       static_cast<std::int64_t>(num_slots_)) %
      static_cast<std::int64_t>(num_slots_))];
  if (slot.index != idx) {
    // The ring wrapped past this slot since it was last written: it holds
    // data older than the window. Recycle it for the current slot.
    slot.index = idx;
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
    slot.count = 0;
    slot.sum = 0.0;
  }
  slot.buckets[bucket] += 1;
  slot.count += 1;
  slot.sum += value;
}

MetricsRegistry::HistogramSnapshot WindowedHistogram::snapshot() const {
  return snapshot_at(process_now_us());
}

MetricsRegistry::HistogramSnapshot WindowedHistogram::snapshot_at(
    double now_us) const {
  MetricsRegistry::HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.assign(bounds_.size() + 1, 0);
  const std::int64_t newest = slot_index(now_us);
  const std::int64_t oldest = newest - static_cast<std::int64_t>(num_slots_) + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& slot : slots_) {
    if (slot.index < oldest || slot.index > newest) {
      continue;  // never used, or aged out of the window
    }
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      snap.buckets[b] += slot.buckets[b];
    }
    snap.count += slot.count;
    snap.sum += slot.sum;
  }
  return snap;
}

// ---------------------------------------------------------------------------
// WindowedRegistry

WindowedRegistry& WindowedRegistry::global() {
  static WindowedRegistry* instance = new WindowedRegistry();  // leaked
  return *instance;
}

WindowedHistogram& WindowedRegistry::histogram(
    const std::string& name, std::vector<double> bounds,
    WindowedHistogram::Config config) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<WindowedHistogram>(
                                std::move(bounds), config))
             .first;
  }
  return *it->second;
}

std::vector<WindowedRegistry::HistogramEntry>
WindowedRegistry::histogram_snapshots() const {
  const double now_us = process_now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramEntry> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    out.push_back({name, hist->snapshot_at(now_us), hist->window_seconds()});
  }
  return out;
}

void WindowedRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_.clear();
}

}  // namespace cirstag::obs
