#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>

namespace dmsim::serve {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ServeError("json: " + message + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("bad literal (expected '" + std::string(lit) + "')");
    }
    pos_ += lit.size();
  }

  [[nodiscard]] JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::Boolean;
        v.boolean = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::Boolean;
        v.boolean = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  [[nodiscard]] JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return v;
      expect(',');
    }
  }

  [[nodiscard]] JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (consume(']')) return v;
      expect(',');
    }
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          // Queries are job ids and policy names — plain ASCII. Decode the
          // BMP escape to a single byte when it fits, refuse otherwise
          // rather than emit mangled UTF-8.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  [[nodiscard]] JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     v.number);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void wrong_type(std::string_view key) {
  throw ServeError("json: field '" + std::string(key) +
                   "' has the wrong type");
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::Number) wrong_type(key);
  return v->number;
}

std::int64_t JsonValue::int_or(std::string_view key,
                               std::int64_t fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::Number) wrong_type(key);
  return static_cast<std::int64_t>(v->number);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::Boolean) wrong_type(key);
  return v->boolean;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Kind::String) wrong_type(key);
  return v->string;
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace dmsim::serve
