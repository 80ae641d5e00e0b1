#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/request.hpp"

namespace cirstag::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct TlsEntry {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
constexpr std::size_t kTlsSlots = 4;
thread_local std::array<TlsEntry, kTlsSlots> t_buffer_cache{};
thread_local std::size_t t_buffer_rr = 0;

thread_local TraceSpan* t_current_span = nullptr;

std::uint64_t to_ns(double us) {
  return us > 0.0 ? static_cast<std::uint64_t>(std::llround(us * 1e3)) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceSpan

TraceSpan::TraceSpan(Tracer& tracer, const char* name, const char* category)
    : tracer_(&tracer),
      name_(name),
      category_(category),
      parent_(t_current_span),
      start_us_(process_now_us()) {
  t_current_span = this;
  if (parent_ == nullptr || parent_->request_ == nullptr) return;
  request_ = parent_->request_;
  request_node_ = parent_->request_node_;
  // A full tree drops the node; children then attach to this span's parent.
  const std::uint32_t node =
      request_->open_span(name, start_us_, request_node_);
  if (node != RequestContext::kNoParent) {
    request_node_ = node;
    owns_request_node_ = true;
  }
}

TraceSpan::TraceSpan(RequestContext* request, std::uint32_t node)
    : tracer_(&Tracer::global()),
      name_(nullptr),
      category_(nullptr),
      parent_(t_current_span),
      start_us_(process_now_us()) {
  t_current_span = this;
  if (request != nullptr) {
    request_ = request;
    request_node_ = node;
  } else if (parent_ != nullptr) {
    request_ = parent_->request_;
    request_node_ = parent_->request_node_;
  }
}

TraceSpan::~TraceSpan() {
  t_current_span = parent_;
  const double end_us = process_now_us();
  const double dur_us = end_us - start_us_;
  if (owns_request_node_) request_->close_span(request_node_, end_us);
  if (parent_ != nullptr) {
    const std::uint64_t busy_ns = busy_ns_.load(std::memory_order_relaxed);
    if (busy_ns != 0)
      parent_->busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
    parent_->child_ns_.fetch_add(to_ns(dur_us), std::memory_order_relaxed);
  }
  if (name_ == nullptr) return;
  if (tracer_->profiling()) {
    // Self thread-time: this span's own wall time plus its jobs' task time
    // on worker lanes, minus what its children (on any lane) covered.
    const auto other_ns = other_lane_ns_.load(std::memory_order_relaxed);
    const auto child_ns = child_ns_.load(std::memory_order_relaxed);
    const double self_us =
        dur_us + (static_cast<double>(other_ns) -
                  static_cast<double>(child_ns)) * 1e-3;
    tracer_->fold(path(), std::max(self_us, 0.0));
  }
  if (tracer_->enabled())
    tracer_->record({name_, category_, start_us_, dur_us,
                     Tracer::current_tid()});
}

double TraceSpan::seconds() const {
  return (process_now_us() - start_us_) * 1e-6;
}

double TraceSpan::busy_seconds() const {
  return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double TraceSpan::child_seconds() const {
  return static_cast<double>(child_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

void TraceSpan::credit(std::uint64_t ns, bool other_lane) {
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (other_lane) other_lane_ns_.fetch_add(ns, std::memory_order_relaxed);
}

TraceSpan* TraceSpan::current() { return t_current_span; }

TraceSpan* TraceSpan::adopt(TraceSpan* span) {
  TraceSpan* const previous = t_current_span;
  t_current_span = span;
  return previous;
}

std::string TraceSpan::path() const {
  std::vector<const char*> names;
  for (const TraceSpan* s = this; s != nullptr; s = s->parent_)
    if (s->name_ != nullptr) names.push_back(s->name_);
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out += ';';
    out += *it;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() : tracer_id_(next_tracer_id()) {
  // Pin the shared epoch no later than the first tracer, so early spans
  // never see a negative timestamp.
  static_cast<void>(process_epoch());
}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

double Tracer::now_us() const { return process_now_us(); }

std::uint32_t Tracer::current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

Tracer::Buffer& Tracer::buffer() {
  for (const TlsEntry& e : t_buffer_cache)
    if (e.tracer_id == tracer_id_) return *static_cast<Buffer*>(e.buffer);
  return acquire_buffer();
}

Tracer::Buffer& Tracer::acquire_buffer() {
  std::lock_guard lock(mutex_);
  Buffer*& slot = buffer_by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    buffers_.push_back(std::make_unique<Buffer>());
    slot = buffers_.back().get();
  }
  t_buffer_cache[t_buffer_rr] = {tracer_id_, slot};
  t_buffer_rr = (t_buffer_rr + 1) % kTlsSlots;
  return *slot;
}

void Tracer::record(Event event) {
  Buffer& buf = buffer();
  std::lock_guard lock(buf.mutex);
  buf.events.push_back(std::move(event));
}

void Tracer::fold(const std::string& path, double self_us) {
  Buffer& buf = buffer();
  std::lock_guard lock(buf.mutex);
  buf.folded[path] += self_us;
}

std::vector<Tracer::Event> Tracer::events() const {
  std::vector<Event> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& buf : buffers_) {
      std::lock_guard buf_lock(buf->mutex);
      all.insert(all.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.ts_us < b.ts_us;
  });
  return all;
}

std::map<std::string, double> Tracer::folded() const {
  std::map<std::string, double> all;
  std::lock_guard lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    for (const auto& [path, us] : buf->folded) all[path] += us;
  }
  return all;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    buf->events.clear();
    buf->folded.clear();
  }
}

std::string Tracer::to_chrome_json() const {
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const Event& e : events())
    w.begin_object()
        .field("name", e.name)
        .field("cat", e.category)
        .field("ph", "X")
        .field("ts", e.ts_us)
        .field("dur", e.dur_us)
        .field("pid", 1)
        .field("tid", e.tid)
        .end_object();
  return w.end_array().field("displayTimeUnit", "ms").end_object().take();
}

std::string Tracer::to_folded() const {
  std::string out;
  for (const auto& [path, us] : folded()) {
    out += path;
    out += ' ';
    out += std::to_string(std::llround(us));
    out += '\n';
  }
  return out;
}

}  // namespace cirstag::obs
