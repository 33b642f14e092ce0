// mixq/serve/json.hpp
//
// Minimal JSON support for the serving protocol (newline-delimited JSON
// over stdio or a local socket). Two halves:
//
//   * a recursive-descent parser producing a JsonValue tree, hardened for
//     untrusted daemon input: depth-limited, bounds-checked, and throwing
//     std::runtime_error with a position on the first malformed byte. Its
//     grammar is JsonLexer's (json_lexer.hpp), which the request decoder
//     in protocol.cpp drives directly, without a tree;
//   * append-style writers whose float formatting is the shortest
//     round-trip decimal (std::to_chars). Every mixq component that prints
//     a logit goes through append_json_float, which is what makes
//     `mixq run --ndjson` and `mixq serve` byte-identical on the same
//     inputs (and makes float -> text -> float lossless for clients that
//     echo inputs back).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mixq::serve {

/// Parse-tree node. Numbers are kept as double (plus the exact source text
/// check for integer ids happens at use sites via is_integer()).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// True for a number that is an exact integer representable in int64.
  [[nodiscard]] bool is_integer() const;
  [[nodiscard]] std::int64_t as_integer() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Maximum array/object nesting the parser accepts. Deeper input is a
/// protocol error, not a stack overflow.
inline constexpr int kJsonMaxDepth = 64;

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error("json: ... at byte N") on malformed input.
JsonValue parse_json(std::string_view text);

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

/// Append `s` JSON-escaped, with surrounding quotes.
void append_json_string(std::string& out, std::string_view s);

/// Append a float as its shortest decimal that round-trips to the same
/// value (std::to_chars). NaN/Inf are not valid JSON; they are emitted as
/// null.
void append_json_float(std::string& out, float v);
void append_json_double(std::string& out, double v);

}  // namespace mixq::serve
