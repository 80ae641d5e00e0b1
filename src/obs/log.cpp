#include "obs/log.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/clock.hpp"
#include "obs/json.hpp"

namespace cirstag::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double epoch_steady_seconds() {
  // The shared process epoch (obs/clock.hpp), expressed on the same raw
  // steady-clock scale steady_seconds() uses. Using it — instead of the
  // Logger's own construction instant — puts log "ts" on exactly the time
  // base as trace spans and access-log lines: ts == process_now_us() / 1e6.
  return std::chrono::duration<double>(process_epoch().time_since_epoch())
      .count();
}

std::string vformat(const char* fmt, std::va_list args) {
  std::va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed <= 0) return {};
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

}  // namespace

LogLevel parse_log_level(const char* text, LogLevel fallback) {
  if (text == nullptr) return fallback;
  if (std::strcmp(text, "debug") == 0) return LogLevel::debug;
  if (std::strcmp(text, "info") == 0) return LogLevel::info;
  if (std::strcmp(text, "warn") == 0) return LogLevel::warn;
  if (std::strcmp(text, "error") == 0) return LogLevel::error;
  if (std::strcmp(text, "off") == 0) return LogLevel::off;
  return fallback;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "debug";
    case LogLevel::info: return "info";
    case LogLevel::warn: return "warn";
    case LogLevel::error: return "error";
    case LogLevel::off: return "off";
  }
  return "unknown";
}

Logger::Logger()
    : level_(static_cast<int>(
          parse_log_level(std::getenv("CIRSTAG_LOG_LEVEL"), LogLevel::info))),
      epoch_seconds_(epoch_steady_seconds()) {}

Logger::~Logger() {
  std::lock_guard lock(mutex_);
  if (json_file_ != nullptr) std::fclose(json_file_);
}

Logger& Logger::global() {
  static Logger* logger = new Logger();  // intentionally leaked
  return *logger;
}

bool Logger::set_json_path(const std::string& path) {
  std::lock_guard lock(mutex_);
  if (json_file_ != nullptr) {
    std::fclose(json_file_);
    json_file_ = nullptr;
  }
  if (path.empty()) return true;
  json_file_ = std::fopen(path.c_str(), "w");
  return json_file_ != nullptr;
}

void Logger::log(LogLevel level, const char* subsystem,
                 const std::string& message) {
  if (level == LogLevel::off || !enabled(level)) return;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (stderr_enabled_.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "[%s] %s: %s\n", log_level_name(level), subsystem,
                 message.c_str());
  }
  std::lock_guard lock(mutex_);
  if (json_file_ != nullptr) {
    std::string line = JsonWriter()
                           .begin_object()
                           .field("ts", steady_seconds() - epoch_seconds_)
                           .field("level", log_level_name(level))
                           .field("subsystem", subsystem)
                           .field("message", message)
                           .end_object()
                           .take();
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), json_file_);
    std::fflush(json_file_);
  }
}

void Logger::logf(LogLevel level, const char* subsystem, const char* fmt,
                  ...) {
  if (level == LogLevel::off || !enabled(level)) return;
  std::va_list args;
  va_start(args, fmt);
  const std::string msg = vformat(fmt, args);
  va_end(args);
  log(level, subsystem, msg);
}

void log_debug(const char* subsystem, const std::string& message) {
  Logger::global().log(LogLevel::debug, subsystem, message);
}
void log_info(const char* subsystem, const std::string& message) {
  Logger::global().log(LogLevel::info, subsystem, message);
}
void log_warn(const char* subsystem, const std::string& message) {
  Logger::global().log(LogLevel::warn, subsystem, message);
}
void log_error(const char* subsystem, const std::string& message) {
  Logger::global().log(LogLevel::error, subsystem, message);
}
void logf_info(const char* subsystem, const char* fmt, ...) {
  Logger& logger = Logger::global();
  if (!logger.enabled(LogLevel::info)) return;
  std::va_list args;
  va_start(args, fmt);
  const std::string msg = vformat(fmt, args);
  va_end(args);
  logger.log(LogLevel::info, subsystem, msg);
}
void logf_error(const char* subsystem, const char* fmt, ...) {
  Logger& logger = Logger::global();
  if (!logger.enabled(LogLevel::error)) return;
  std::va_list args;
  va_start(args, fmt);
  const std::string msg = vformat(fmt, args);
  va_end(args);
  logger.log(LogLevel::error, subsystem, msg);
}

}  // namespace cirstag::obs
