// Minimal JSON value parser for the what-if serve protocol.
//
// Queries arrive as newline-delimited JSON objects; this parser covers the
// full value grammar (objects, arrays, strings with the common escapes,
// numbers, booleans, null) with object keys kept in insertion order, so a
// parsed query can be re-serialized or diffed deterministically. It is a
// deliberately small recursive-descent parser — the serve protocol's
// payloads are one line each, never documents — and throws ServeError with
// a byte offset on malformed input.
//
// Reply *writing* goes through metrics::JsonWriter; this header is the read
// side only.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dmsim::serve {

/// Thrown on malformed queries and serve-protocol violations.
class ServeError : public Error {
 public:
  using Error::Error;
};

struct JsonValue {
  enum class Kind { Null, Boolean, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::Object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::Array; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Typed member accessors. The *_or forms default when the key is absent;
  /// all of them throw ServeError when the key holds the wrong type.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   std::string fallback) const;
};

/// Parse one complete JSON value; trailing non-whitespace is an error.
/// Throws ServeError with the byte offset of the first problem.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace dmsim::serve
