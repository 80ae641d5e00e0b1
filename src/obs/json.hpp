#pragma once

#include <cmath>
#include <concepts>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace cirstag::obs {

/// Append `s` to `out` with JSON string escaping (quotes not included).
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

[[nodiscard]] inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

/// Append a double as a JSON number (non-finite values become 0, which JSON
/// cannot represent otherwise).
inline void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// The one JSON writer: every document the repo emits (HTTP bodies, report
/// files, log and access-log lines) streams through it into one string.
/// It places its own commas, and the style is fixed: `", "` between
/// members, `": "` after a key, no newline or indentation anywhere, so a
/// document is one line. Strings escape through append_json_escaped; doubles
/// render through append_json_number (%.17g round-trips exactly; non-finite
/// values become 0). The caller balances begin_*/end_*.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// An object member's key; the next value is its value.
  JsonWriter& key(std::string_view k) {
    value(k);
    out_ += ": ";
    first_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    separate();
    out_ += '"';
    append_json_escaped(out_, s);
    out_ += '"';
    return *this;
  }
  /// Without this overload a string literal would convert to bool.
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& value(T v) {
    return raw(std::to_string(v));
  }
  JsonWriter& value(double v) {
    separate();
    append_json_number(out_, v);
    return *this;
  }
  JsonWriter& value(std::span<const double> values) {
    begin_array();
    for (const double v : values) value(v);
    return end_array();
  }

  /// key(k) followed by value(v).
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Embed `json`, which must be one complete JSON value, as the next value.
  JsonWriter& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  /// The document written so far; the writer starts over empty.
  [[nodiscard]] std::string take() {
    first_ = true;
    return std::exchange(out_, {});
  }

 private:
  void separate() {
    if (!first_) out_ += ", ";
    first_ = false;
  }
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }

  std::string out_;
  bool first_ = true;  ///< no value yet in the innermost container
};

/// The one checked file writer: replace `path` with `text`. Returns false
/// when the file cannot be opened, written or closed, so a full disk or a
/// bad path is never reported as success. Document files end in one '\n'
/// that the caller appends.
[[nodiscard]] inline bool write_text(const std::string& path,
                                     std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cirstag::obs
