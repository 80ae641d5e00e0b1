#pragma once

#include <cstddef>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cirstag::serve {

/// Minimal immutable JSON document tree for request bodies.
///
/// obs::JsonWriter writes every document; the serving protocol is the first
/// consumer, so this is deliberately the smallest correct reader: objects,
/// arrays, strings (with \uXXXX escapes decoded to UTF-8), doubles, bools,
/// null. Parsing is recursive descent with an explicit depth limit so a
/// malicious body ("[[[[[…") cannot blow the stack. Numbers are held as
/// doubles — every quantity in the protocol (pin ids, factors, counts) fits
/// exactly in a double's 53-bit mantissa.
class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::boolean; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }

  /// Typed accessors; throw JsonError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object member by key, or nullptr when absent (throws on non-objects).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  // -- convenience lookups with fallbacks (object kind only) ---------------
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

  /// Member keys in document order (objects keep insertion order so error
  /// messages and tests are stable).
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;

 private:
  friend class Parser;
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Thrown on malformed documents and kind mismatches; `what()` carries the
/// byte offset of the problem so protocol errors are debuggable from logs.
class JsonError : public std::exception {
 public:
  explicit JsonError(std::string message) : message_(std::move(message)) {}
  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }

 private:
  std::string message_;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws JsonError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   std::size_t max_depth = 64);

/// The body of every error response, from the router, the HTTP reader and
/// the scheduler alike: {"error": message}, plus "detail" when `detail` is
/// non-null (the text of an exception a handler threw).
[[nodiscard]] std::string error_body(std::string_view message,
                                     const char* detail = nullptr);

}  // namespace cirstag::serve
