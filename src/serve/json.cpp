#include "serve/json.hpp"

#include <cmath>
#include <cstdlib>
#include <string_view>

#include "obs/json.hpp"

namespace cirstag::serve {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw JsonError("json: " + what + " at offset " + std::to_string(offset));
}

}  // namespace

/// Recursive-descent parser over a string_view with an explicit cursor.
/// Lives in the enclosing namespace (not the anonymous one) so the header's
/// friend declaration can name it.
class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(pos_, std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > max_depth_) fail(pos_, "nesting deeper than the depth limit");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return make_string(parse_string());
      case 't':
        if (consume_literal("true")) return make_bool(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return make_bool(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail(pos_, "invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(pos_, std::string("unexpected character '") + c + "'");
    }
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail(pos_, "object key must be a string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']' in array");
    }
  }

  /// Parse a quoted string with escape handling; cursor on the open quote.
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail(pos_, "unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume backslash
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail(pos_ - 1, "invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "invalid \\u escape digit");
    }
    return value;
  }

  /// \uXXXX (cursor past the 'u'), including surrogate pairs, to UTF-8.
  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!consume_literal("\\u")) fail(pos_, "lone high surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail(pos_, "invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail(pos_, "lone low surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      fail(pos_, "invalid number");
    // JSON forbids leading zeros ("01"); strtod would accept them.
    if (peek() == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      fail(pos_, "leading zero in number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail(pos_, "digit required after decimal point");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail(pos_, "digit required in exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail(start, "invalid number");
    if (!std::isfinite(value)) fail(start, "number out of double range");
    JsonValue v;
    v.kind_ = JsonValue::Kind::number;
    v.number_ = value;
    return v;
  }

  static JsonValue make_string(std::string s) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::string;
    v.string_ = std::move(s);
    return v;
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::boolean;
    v.bool_ = b;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
};

namespace {

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw JsonError(std::string("json: value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::boolean) kind_mismatch("a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::number) kind_mismatch("a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::string) kind_mismatch("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::array) kind_mismatch("an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::object) kind_mismatch("an object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::object) kind_mismatch("an object");
  return object_;
}

JsonValue parse_json(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth).parse_document();
}

std::string error_body(std::string_view message, const char* detail) {
  obs::JsonWriter w;
  w.begin_object().field("error", message);
  if (detail != nullptr) w.field("detail", detail);
  return w.end_object().take();
}

}  // namespace cirstag::serve
