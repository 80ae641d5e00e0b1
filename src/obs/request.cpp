#include "obs/request.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace cirstag::obs {

namespace {

std::uint64_t next_trace_id() {
  // Process-unique, monotone, never zero. Uniqueness per process is all the
  // access log needs; the 16-hex-digit rendering leaves room for a future
  // node prefix without changing the wire format.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestContext

RequestContext::RequestContext(std::string endpoint)
    : id_(next_trace_id()),
      endpoint_(std::move(endpoint)),
      start_us_(process_now_us()) {
  spans_.reserve(16);
}

std::string RequestContext::id_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, id_);
  return buf;
}

void RequestContext::set_circuit(std::string circuit) {
  std::lock_guard<std::mutex> lock(mutex_);
  circuit_ = std::move(circuit);
}

void RequestContext::add_render_us(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  render_us_ += v;
}

std::uint32_t RequestContext::open_span(const char* name, double start_us,
                                        std::uint32_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return kNoParent;
  }
  spans_.push_back({name, parent, start_us, 0.0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void RequestContext::close_span(std::uint32_t index, double end_us) {
  if (index == kNoParent) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (index < spans_.size()) {
    spans_[index].end_us = end_us;
  }
}

std::uint32_t RequestContext::span_parent(std::uint32_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index < spans_.size() ? spans_[index].parent : kNoParent;
}

std::vector<RequestContext::SpanNode> RequestContext::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t RequestContext::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_dropped_;
}

void RequestContext::finish(int status) {
  status_ = status;
  if (end_us_ == 0.0) {
    end_us_ = process_now_us();
  }
}

double RequestContext::total_us() const {
  const double end = end_us_ != 0.0 ? end_us_ : process_now_us();
  return end - start_us_;
}

std::string RequestContext::span_tree_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_array();
  for (const SpanNode& n : spans_)
    w.begin_object()
        .field("name", n.name != nullptr ? n.name : "")
        .field("parent", n.parent == kNoParent ? std::int64_t{-1}
                                               : std::int64_t{n.parent})
        .field("start_us", n.start_us - start_us_)
        .field("dur_us", n.end_us != 0.0 ? n.end_us - n.start_us : 0.0)
        .end_object();
  return w.end_array().take();
}

std::string RequestContext::folded() const {
  std::vector<SpanNode> nodes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    nodes = spans_;
  }
  // Self time per node: duration minus the summed durations of direct
  // children. Open spans (end_us == 0) contribute zero duration.
  std::vector<double> self_us(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const SpanNode& n = nodes[i];
    self_us[i] += n.end_us != 0.0 ? n.end_us - n.start_us : 0.0;
    if (n.parent != kNoParent && n.parent < nodes.size()) {
      self_us[n.parent] -= n.end_us != 0.0 ? n.end_us - n.start_us : 0.0;
    }
  }
  std::string out;
  std::vector<const char*> path;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    path.clear();
    // Walk to the root; the tree is append-ordered so parents precede
    // children and the walk terminates.
    for (std::uint32_t j = static_cast<std::uint32_t>(i); j != kNoParent;
         j = nodes[j].parent) {
      path.push_back(nodes[j].name != nullptr ? nodes[j].name : "?");
      if (nodes[j].parent != kNoParent && nodes[j].parent >= j) break;
    }
    for (std::size_t p = path.size(); p-- > 0;) {
      out += path[p];
      if (p != 0) out += ';';
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.0f\n",
                  self_us[i] > 0.0 ? self_us[i] : 0.0);
    out += buf;
  }
  return out;
}

std::string RequestContext::access_log_line() const {
  JsonWriter w;
  w.begin_object()
      .field("trace_id", id_hex())
      .field("ts_us", start_us_)
      .field("endpoint", endpoint_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.field("circuit", circuit_);
  }
  return w.field("status", status_)
      .field("queue_us", queue_us_)
      .field("compute_us", compute_us_)
      .field("render_us", render_us_)
      .field("total_us", total_us())
      .field("deadline_slack_us", deadline_slack_us_)
      .field("spans", spans().size())
      .end_object()
      .take();
}

// ---------------------------------------------------------------------------
// RenderScope

RenderScope::RenderScope(RequestContext* ctx) : ctx_(ctx) {
  if (ctx_ == nullptr) return;
  start_us_ = process_now_us();
  span_ = ctx_->open_span("render", start_us_, RequestContext::kNoParent);
}

RenderScope::~RenderScope() {
  if (ctx_ == nullptr) return;
  const double end_us = process_now_us();
  ctx_->close_span(span_, end_us);
  ctx_->add_render_us(end_us - start_us_);
}

// ---------------------------------------------------------------------------
// RequestLog

namespace {

bool reopen(std::FILE*& file, const std::string& path) {
  if (file != nullptr) {
    std::fclose(file);
    file = nullptr;
  }
  if (path.empty()) return true;
  file = std::fopen(path.c_str(), "w");
  return file != nullptr;
}

}  // namespace

RequestLog::~RequestLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (access_file_ != nullptr) std::fclose(access_file_);
  if (exemplar_file_ != nullptr) std::fclose(exemplar_file_);
}

RequestLog& RequestLog::global() {
  static RequestLog* instance = new RequestLog();  // leaked, like Logger
  return *instance;
}

bool RequestLog::set_access_log_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return reopen(access_file_, path);
}

bool RequestLog::set_exemplar_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return reopen(exemplar_file_, path);
}

void RequestLog::set_slow_threshold_us(double threshold_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  slow_threshold_us_ = threshold_us;
}

void RequestLog::record(const RequestContext& ctx) {
  static Counter access_lines_counter("obs.access_log.lines");
  static Counter exemplar_captured_counter("serve.slow_exemplars.captured");
  static Counter exemplar_dropped_counter("serve.slow_exemplars.dropped");

  const double total_us = ctx.total_us();
  std::lock_guard<std::mutex> lock(mutex_);
  if (access_file_ != nullptr) {
    const std::string line = ctx.access_log_line();
    std::fwrite(line.data(), 1, line.size(), access_file_);
    std::fputc('\n', access_file_);
    std::fflush(access_file_);
    ++access_lines_;
    access_lines_counter.add(1);
  }
  if (exemplar_file_ == nullptr || slow_threshold_us_ < 0.0 ||
      total_us < slow_threshold_us_) {
    return;
  }
  // Token bucket: refill by elapsed time, spend one per exemplar.
  const double now_us = process_now_us();
  if (bucket_last_refill_us_ > 0.0) {
    bucket_tokens_ += (now_us - bucket_last_refill_us_) / 1e6 *
                      kExemplarRefillPerSecond;
    if (bucket_tokens_ > kExemplarBurst) bucket_tokens_ = kExemplarBurst;
  }
  bucket_last_refill_us_ = now_us;
  if (bucket_tokens_ < 1.0) {
    ++exemplars_dropped_;
    exemplar_dropped_counter.add(1);
    return;
  }
  bucket_tokens_ -= 1.0;
  const std::string doc = JsonWriter()
                              .begin_object()
                              .field("trace_id", ctx.id_hex())
                              .field("endpoint", ctx.endpoint())
                              .field("circuit", ctx.circuit())
                              .field("status", ctx.status())
                              .field("total_us", total_us)
                              .field("threshold_us", slow_threshold_us_)
                              .key("spans")
                              .raw(ctx.span_tree_json())
                              .field("folded", ctx.folded())
                              .end_object()
                              .take();
  std::fwrite(doc.data(), 1, doc.size(), exemplar_file_);
  std::fputc('\n', exemplar_file_);
  std::fflush(exemplar_file_);
  ++exemplars_captured_;
  exemplar_captured_counter.add(1);
}

std::uint64_t RequestLog::access_lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return access_lines_;
}

std::uint64_t RequestLog::exemplars_captured() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exemplars_captured_;
}

std::uint64_t RequestLog::exemplars_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exemplars_dropped_;
}

void RequestLog::reset_for_tests() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (access_file_ != nullptr) {
    std::fclose(access_file_);
    access_file_ = nullptr;
  }
  if (exemplar_file_ != nullptr) {
    std::fclose(exemplar_file_);
    exemplar_file_ = nullptr;
  }
  slow_threshold_us_ = -1.0;
  bucket_tokens_ = kExemplarBurst;
  bucket_last_refill_us_ = 0.0;
  access_lines_ = 0;
  exemplars_captured_ = 0;
  exemplars_dropped_ = 0;
}

}  // namespace cirstag::obs
