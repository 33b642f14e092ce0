#include "serve/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "serve/json.hpp"
#include "serve/json_lexer.hpp"

namespace mixq::serve {

const char* err_code_slug(ErrCode code) {
  switch (code) {
    case ErrCode::kMalformed: return "malformed";
    case ErrCode::kTimeout: return "timeout";
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kInternal: return "internal";
    case ErrCode::kNotFound: return "not_found";
    case ErrCode::kReloadFailed: return "reload_failed";
  }
  return "internal";
}

bool err_code_retryable(ErrCode code) {
  // A timed-out request was never executed, so resubmitting it is safe;
  // malformed bytes can never succeed on retry, and neither can a request
  // naming a model the registry does not hold (the model SET is fixed at
  // startup -- only a model's content is swappable). A failed reload IS
  // retryable: the same command succeeds once the image at that path is
  // replaced with a valid one.
  return code != ErrCode::kMalformed && code != ErrCode::kNotFound;
}

std::string format_error_line(ErrCode code, std::string_view message,
                              const std::int64_t* id,
                              std::int64_t retry_after_ms) {
  std::string line = "{\"error\":";
  append_json_string(line, message);
  line += ",\"code\":\"";
  line += err_code_slug(code);
  line += "\",\"retryable\":";
  line += err_code_retryable(code) ? "true" : "false";
  if (id != nullptr) {
    line += ",\"id\":" + std::to_string(*id);
  }
  if (retry_after_ms >= 0) {
    line += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  line += "}";
  return line;
}

std::string ParsedLine::error_line() const {
  return format_error_line(code, error, has_id ? &id : nullptr);
}

namespace {

/// The first occurrence of one of the request's scalar keys, decoded in
/// place. A container value only records its kind: every use of these
/// keys refuses one.
struct Field {
  bool present{false};
  JsonValue::Kind kind{JsonValue::Kind::kNull};
  double number{0.0};
  std::string string;

  [[nodiscard]] bool is_string() const {
    return kind == JsonValue::Kind::kString;
  }
  [[nodiscard]] bool is_integer() const {
    return kind == JsonValue::Kind::kNumber && json_number_is_int64(number);
  }
  [[nodiscard]] std::int64_t as_integer() const {
    return static_cast<std::int64_t>(number);
  }

  /// Lex the member value at the cursor (nesting `depth`) into this
  /// field; a duplicate key is validated and skipped.
  void capture(JsonLexer& lx, int depth) {
    if (present) {
      lx.skip_value(depth);
      return;
    }
    present = true;
    lx.begin_value(depth);
    switch (lx.peek()) {
      case '{':
        kind = JsonValue::Kind::kObject;
        lx.skip_value(depth);
        break;
      case '[':
        kind = JsonValue::Kind::kArray;
        lx.skip_value(depth);
        break;
      default:
        kind = lx.scalar(&string, &number, nullptr);
    }
  }
};

/// What the one pass learned about the first "input" member. Its numbers
/// went straight into the request's float buffer.
struct InputScan {
  bool present{false};
  bool is_array{false};
  bool all_numbers{true};
  std::int64_t count{0};  ///< elements of any kind
};

ParsedLine make_error(std::string message, const Field* id,
                      ErrCode code = ErrCode::kMalformed) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.code = code;
  p.error = std::move(message);
  if (id != nullptr && id->is_integer()) {
    p.has_id = true;
    p.id = id->as_integer();
  }
  return p;
}

}  // namespace

ParsedLine parse_protocol_line(std::string_view line, std::int64_t input_numel,
                               std::size_t max_line_bytes,
                               std::int64_t default_deadline_ms,
                               const ModelDirectory* models) {
  ParsedLine p;
  if (line.empty() || line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return make_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }

  // One pass over the line. Syntax is checked to the last byte before any
  // semantic verdict, so a syntax error anywhere is `malformed` without an
  // id echo, exactly as if the whole document had been parsed first.
  Field id;
  Field cmd;
  Field model;
  Field path;
  Field deadline;
  InputScan input;
  std::vector<float>& values = p.request.input;
  try {
    JsonLexer lx(line);
    lx.skip_ws();
    lx.begin_value(0);
    if (lx.peek() != '{') {
      lx.skip_value(0);
      lx.end_document();
      return make_error("request must be a JSON object", nullptr);
    }
    std::string key;
    lx.object(&key, [&] {
      if (key == "input" && !input.present) {
        input.present = true;
        lx.begin_value(1);
        if (lx.peek() != '[') {
          lx.skip_value(1);
          return;
        }
        input.is_array = true;
        // Sized for the model named so far (a later "model" key or a
        // wrong-length array grows it geometrically). The line cap bounds
        // the element count below max_line_bytes / 2.
        std::int64_t expect = input_numel;
        if (model.is_string() && !model.string.empty() && models != nullptr) {
          const std::int64_t n = models->numel_of(model.string);
          if (n >= 0) expect = n;
        }
        values.reserve(std::min(
            static_cast<std::size_t>(std::max<std::int64_t>(expect, 0)),
            max_line_bytes / 2));
        lx.array([&] {
          lx.begin_value(2);
          if (lx.at_number()) {
            // Double first, then narrow: the same rounding as the
            // JsonValue tree's number, bit for bit.
            values.push_back(static_cast<float>(lx.number()));
          } else {
            input.all_numbers = false;
            lx.skip_value(2);
          }
          ++input.count;
        });
      } else if (key == "id") {
        id.capture(lx, 1);
      } else if (key == "cmd") {
        cmd.capture(lx, 1);
      } else if (key == "model") {
        model.capture(lx, 1);
      } else if (key == "path") {
        path.capture(lx, 1);
      } else if (key == "deadline_ms") {
        deadline.capture(lx, 1);
      } else {
        lx.skip_value(1);
      }
    });
    lx.end_document();
  } catch (const std::runtime_error& e) {
    return make_error(e.what(), nullptr);
  }

  if (cmd.present) {
    if (!cmd.is_string()) {
      return make_error("\"cmd\" must be a string", &id);
    }
    // A control line carries no request: whatever "input" held is dropped.
    ParsedLine ctl;
    if (cmd.string == "shutdown") {
      ctl.kind = ParsedLine::Kind::kShutdown;
    } else if (cmd.string == "stats") {
      ctl.kind = ParsedLine::Kind::kStats;
    } else if (cmd.string == "info") {
      ctl.kind = ParsedLine::Kind::kInfo;
    } else if (cmd.string == "health") {
      ctl.kind = ParsedLine::Kind::kHealth;
    } else if (cmd.string == "reload") {
      if (model.present && !model.is_string()) {
        return make_error("\"model\" must be a string", &id);
      }
      if (path.present && !path.is_string()) {
        return make_error("\"path\" must be a string", &id);
      }
      ctl.kind = ParsedLine::Kind::kReload;
      ctl.reload_model = std::move(model.string);
      ctl.reload_path = std::move(path.string);
    } else {
      return make_error("unknown cmd \"" + cmd.string + "\"", &id);
    }
    return ctl;
  }

  if (!id.present || !id.is_integer()) {
    return make_error("missing or non-integer \"id\"", nullptr);
  }
  if (!input.present || !input.is_array) {
    return make_error("missing \"input\" array", &id);
  }
  // The model name routes the request AND selects the input length the
  // array is validated against -- resolution must precede the numel check.
  if (model.present && !model.is_string()) {
    return make_error("\"model\" must be a string", &id);
  }
  std::int64_t want_numel = input_numel;
  if (!model.string.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(model.string) : -1;
    if (n < 0) {
      return make_error("unknown model \"" + model.string + "\"", &id,
                        ErrCode::kNotFound);
    }
    want_numel = n;
  }
  if (input.count != want_numel) {
    return make_error("\"input\" must have " + std::to_string(want_numel) +
                          " elements, got " + std::to_string(input.count),
                      &id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (deadline.present) {
    if (!deadline.is_integer() || deadline.as_integer() < 1 ||
        deadline.as_integer() > kMaxDeadlineMs) {
      return make_error("\"deadline_ms\" must be an integer in [1, " +
                            std::to_string(kMaxDeadlineMs) + "]",
                        &id);
    }
    deadline_ms = deadline.as_integer();
  }
  if (!input.all_numbers) {
    return make_error("\"input\" elements must be numbers", &id);
  }

  p.kind = ParsedLine::Kind::kRequest;
  p.request.id = id.as_integer();
  p.request.model = std::move(model.string);
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

}  // namespace mixq::serve
