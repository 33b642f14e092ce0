// mixq/serve/json_lexer.hpp
//
// The strict-JSON lexer shared by parse_json (which builds a JsonValue
// tree) and parse_protocol_line (which decodes a request line in one pass
// without building one). Both must accept and reject exactly the same
// bytes, with the same "json: WHY at byte N" message, so the grammar lives
// here once: whitespace, literals, string unescaping (incl. \u), the
// number grammar, container walking and a depth-limited validating skip.
//
// Containers are walked with callbacks instead of being materialised:
// object() hands each member to `on_member` with the cursor on the value
// (and the decoded key in `*key`), array() hands each element to
// `on_element`. A callback must consume exactly one value. Errors throw
// std::runtime_error positioned at the first byte the grammar refuses.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "serve/json.hpp"

namespace mixq::serve {

/// True for a finite, integral double inside int64's range [-2^63, 2^63).
/// 2^63 is exactly representable as a double, so the upper comparison
/// must be >= -- accepting 2^63 itself would make the int64 cast UB.
[[nodiscard]] inline bool json_number_is_int64(double x) {
  constexpr double kInt64Edge = 9223372036854775808.0;  // 2^63
  if (!std::isfinite(x)) return false;
  if (x < -kInt64Edge || x >= kInt64Edge) return false;
  return x == std::floor(x);
}

class JsonLexer {
 public:
  explicit JsonLexer(std::string_view text) : text_(text) {}

  /// Throws std::runtime_error("json: WHY at byte <cursor>").
  [[noreturn]] void fail(const char* why) const;

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char want) {
    if (eof() || peek() != want) fail("unexpected character");
    ++pos_;
  }

  /// Entry check of every value: the nesting bound, then non-empty input.
  void begin_value(int depth) {
    if (depth > kJsonMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
  }

  /// Everything begin_value() admits that is not a container, string or
  /// literal is lexed as a number.
  [[nodiscard]] bool at_number() const {
    switch (peek()) {
      case '{': case '[': case '"': case 't': case 'f': case 'n': return false;
      default: return true;
    }
  }

  /// Rejects the trailing bytes after a complete document.
  void end_document() {
    skip_ws();
    if (!eof()) fail("trailing characters after document");
  }

  template <typename OnMember>
  void object(std::string* key, OnMember&& on_member) {
    expect('{');
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      string(key);
      skip_ws();
      expect(':');
      skip_ws();
      on_member();
      skip_ws();
      const char c = take();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  template <typename OnElement>
  void array(OnElement&& on_element) {
    expect('[');
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      on_element();
      skip_ws();
      const char c = take();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// Validate and discard one value of any kind at nesting `depth`.
  void skip_value(int depth) {
    begin_value(depth);
    switch (peek()) {
      case '{': object(nullptr, [&] { skip_value(depth + 1); }); return;
      case '[': array([&] { skip_value(depth + 1); }); return;
      default: (void)scalar(nullptr, nullptr, nullptr);
    }
  }

  /// Lex the string, literal or number at the cursor (begin_value() has
  /// run, and the cursor is not on a container). Its payload goes to
  /// whichever out-pointer matches the returned kind, when non-null.
  JsonValue::Kind scalar(std::string* str, double* num, bool* boolean) {
    switch (peek()) {
      case '"':
        string(str);
        return JsonValue::Kind::kString;
      case 't':
        literal("true");
        if (boolean != nullptr) *boolean = true;
        return JsonValue::Kind::kBool;
      case 'f':
        literal("false");
        if (boolean != nullptr) *boolean = false;
        return JsonValue::Kind::kBool;
      case 'n':
        literal("null");
        return JsonValue::Kind::kNull;
      default: {
        const double x = number();
        if (num != nullptr) *num = x;
        return JsonValue::Kind::kNumber;
      }
    }
  }

  /// Decode the string at the cursor into `*out` (cleared first), or only
  /// validate it when `out` is null.
  void string(std::string* out) {
    expect('"');
    if (out != nullptr) out->clear();
    while (true) {
      const std::size_t run = pos_;
      while (!eof()) {
        const unsigned char c = static_cast<unsigned char>(peek());
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      if (out != nullptr) out->append(text_.data() + run, pos_ - run);
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return;
      if (c < 0x20) fail("raw control character in string");
      escape(out);
    }
  }

  /// The number at the cursor: -?digits(.digits)?([eE][+-]?digits)?, read
  /// as the nearest double. A decimal of at most 19 digits whose mantissa
  /// is an exact double (<= 2^53) and whose power of ten is one too
  /// (|p| <= 22) takes Clinger's fast path: one IEEE multiply or divide of
  /// two exact operands rounds correctly, so it yields the very double
  /// std::from_chars does. Every other spelling goes through from_chars.
  double number() {
    const char* const base = text_.data();
    const char* const end = base + text_.size();
    const char* const start = base + pos_;
    const char* p = start;
    std::uint64_t mantissa = 0;
    int mantissa_digits = 0;
    int pow10 = 0;
    const auto digits = [&](bool fraction) {
      const char* const from = p;
      for (; p != end && *p >= '0' && *p <= '9'; ++p) {
        if (mantissa_digits == 19) {
          mantissa_digits = 20;  // too long for the fast path
        } else if (mantissa_digits < 19) {
          mantissa = mantissa * 10 + static_cast<unsigned>(*p - '0');
          pow10 -= fraction ? 1 : 0;
          ++mantissa_digits;
        }
      }
      return p != from;
    };
    const auto fail_at = [&](const char* why) {
      pos_ = static_cast<std::size_t>(p - base);
      fail(why);
    };
    const bool negative = p != end && *p == '-';
    if (negative) ++p;
    if (!digits(false)) fail_at("invalid number");
    if (p != end && *p == '.') {
      ++p;
      if (!digits(true)) fail_at("invalid number fraction");
    }
    if (p != end && (*p == 'e' || *p == 'E')) {
      ++p;
      const bool neg_exp = p != end && *p == '-';
      if (p != end && (*p == '+' || *p == '-')) ++p;
      const char* const from = p;
      int exp = 0;
      for (; p != end && *p >= '0' && *p <= '9'; ++p) {
        if (exp < 100000) exp = exp * 10 + (*p - '0');
      }
      if (p == from) fail_at("invalid number exponent");
      pow10 += neg_exp ? -exp : exp;
    }
    pos_ = static_cast<std::size_t>(p - base);
    static constexpr double kExactPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
        1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    if (mantissa_digits <= 19 && mantissa <= (std::uint64_t{1} << 53) &&
        pow10 >= -22 && pow10 <= 22) {
      const auto m = static_cast<double>(mantissa);
      const double v = pow10 < 0 ? m / kExactPow10[-pow10]
                                 : m * kExactPow10[pow10];
      return negative ? -v : v;
    }
    double value = 0.0;
    const auto res = std::from_chars(start, p, value);
    if (res.ec != std::errc{} || res.ptr != p) fail("number out of range");
    return value;
  }

 private:
  void literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
    pos_ += lit.size();
  }

  /// The escape after a consumed backslash.
  void escape(std::string* out) {
    const char esc = take();
    char plain = 0;
    switch (esc) {
      case '"': plain = '"'; break;
      case '\\': plain = '\\'; break;
      case '/': plain = '/'; break;
      case 'b': plain = '\b'; break;
      case 'f': plain = '\f'; break;
      case 'n': plain = '\n'; break;
      case 'r': plain = '\r'; break;
      case 't': plain = '\t'; break;
      case 'u': {
        std::uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = take();
          cp <<= 4;
          if (h >= '0' && h <= '9') cp |= static_cast<std::uint32_t>(h - '0');
          else if (h >= 'a' && h <= 'f') cp |= static_cast<std::uint32_t>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') cp |= static_cast<std::uint32_t>(h - 'A' + 10);
          else fail("bad \\u escape");
        }
        if (out != nullptr) append_utf8(*out, cp);
        return;
      }
      default: fail("invalid escape");
    }
    if (out != nullptr) out->push_back(plain);
  }

  /// Encode a BMP code point as UTF-8 (surrogate pairs are not needed by
  /// the protocol; lone surrogates pass through as-is).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace mixq::serve
