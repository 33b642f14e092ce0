#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "serve/json_lexer.hpp"

namespace mixq::serve {

namespace {

/// Builds the JsonValue tree; all lexing is JsonLexer's.
class Parser {
 public:
  explicit Parser(std::string_view text) : lx_(text) {}

  JsonValue parse_document() {
    lx_.skip_ws();
    JsonValue v = parse_value(0);
    lx_.end_document();
    return v;
  }

 private:
  JsonValue parse_value(int depth) {
    lx_.begin_value(depth);
    JsonValue v;
    switch (lx_.peek()) {
      case '{': {
        v.kind = JsonValue::Kind::kObject;
        std::string key;
        lx_.object(&key, [&] {
          v.object.emplace_back(std::move(key), parse_value(depth + 1));
        });
        break;
      }
      case '[':
        v.kind = JsonValue::Kind::kArray;
        lx_.array([&] { v.array.push_back(parse_value(depth + 1)); });
        break;
      default:
        v.kind = lx_.scalar(&v.string, &v.number, &v.boolean);
    }
    return v;
  }

  JsonLexer lx_;
};

}  // namespace

void JsonLexer::fail(const char* why) const {
  throw std::runtime_error("json: " + std::string(why) + " at byte " +
                           std::to_string(pos_));
}

bool JsonValue::is_integer() const {
  return kind == Kind::kNumber && json_number_is_int64(number);
}

std::int64_t JsonValue::as_integer() const {
  if (!is_integer()) throw std::runtime_error("json: not an integer");
  return static_cast<std::int64_t>(number);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

namespace {

template <typename T>
void append_number(std::string& out, T v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void append_json_float(std::string& out, float v) { append_number(out, v); }
void append_json_double(std::string& out, double v) { append_number(out, v); }

}  // namespace mixq::serve
