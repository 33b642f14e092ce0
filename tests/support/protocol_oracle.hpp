// tests/support/protocol_oracle.hpp
//
// Test-only reference decoder for the serving protocol: the tree-based
// parse_protocol_line the one-pass scanner replaced. It parses the whole
// line into a JsonValue tree with parse_json, then looks the request keys
// up -- slow and allocation-heavy, but obviously right, which is what a
// differential oracle needs. protocol_test and the protocol_fuzz target
// assert that serve::parse_protocol_line agrees with it on every line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace mixq::serve::test_support {

namespace oracle_detail {

inline ParsedLine make_error(std::string message, const JsonValue* id,
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

}  // namespace oracle_detail

/// Same contract as parse_protocol_line.
inline ParsedLine oracle_parse_protocol_line(
    std::string_view line, std::int64_t input_numel,
    std::size_t max_line_bytes, std::int64_t default_deadline_ms,
    const ModelDirectory* models = nullptr) {
  using oracle_detail::make_error;
  ParsedLine p;
  if (line.empty() ||
      line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return p;  // kBlank
  }
  if (line.size() > max_line_bytes) {
    return make_error(
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes",
        nullptr);
  }
  JsonValue v;
  try {
    v = parse_json(line);
  } catch (const std::runtime_error& e) {
    return make_error(e.what(), nullptr);
  }
  if (!v.is_object()) {
    return make_error("request must be a JSON object", nullptr);
  }
  if (const JsonValue* cmd = v.find("cmd")) {
    if (!cmd->is_string()) {
      return make_error("\"cmd\" must be a string", v.find("id"));
    }
    if (cmd->string == "shutdown") {
      p.kind = ParsedLine::Kind::kShutdown;
      return p;
    }
    if (cmd->string == "stats") {
      p.kind = ParsedLine::Kind::kStats;
      return p;
    }
    if (cmd->string == "info") {
      p.kind = ParsedLine::Kind::kInfo;
      return p;
    }
    if (cmd->string == "health") {
      p.kind = ParsedLine::Kind::kHealth;
      return p;
    }
    if (cmd->string == "reload") {
      const JsonValue* m = v.find("model");
      const JsonValue* path = v.find("path");
      if (m != nullptr && !m->is_string()) {
        return make_error("\"model\" must be a string", v.find("id"));
      }
      if (path != nullptr && !path->is_string()) {
        return make_error("\"path\" must be a string", v.find("id"));
      }
      p.kind = ParsedLine::Kind::kReload;
      if (m != nullptr) p.reload_model = m->string;
      if (path != nullptr) p.reload_path = path->string;
      return p;
    }
    return make_error("unknown cmd \"" + cmd->string + "\"", v.find("id"));
  }

  const JsonValue* id = v.find("id");
  const JsonValue* input = v.find("input");
  if (id == nullptr || !id->is_integer()) {
    return make_error("missing or non-integer \"id\"", nullptr);
  }
  if (input == nullptr || !input->is_array()) {
    return make_error("missing \"input\" array", id);
  }
  std::string model_name;
  if (const JsonValue* m = v.find("model")) {
    if (!m->is_string()) {
      return make_error("\"model\" must be a string", id);
    }
    model_name = m->string;
  }
  std::int64_t want_numel = input_numel;
  if (!model_name.empty()) {
    const std::int64_t n =
        models != nullptr ? models->numel_of(model_name) : -1;
    if (n < 0) {
      return make_error("unknown model \"" + model_name + "\"", id,
                        ErrCode::kNotFound);
    }
    want_numel = n;
  }
  if (static_cast<std::int64_t>(input->array.size()) != want_numel) {
    return make_error("\"input\" must have " + std::to_string(want_numel) +
                          " elements, got " +
                          std::to_string(input->array.size()),
                      id);
  }
  std::int64_t deadline_ms = default_deadline_ms;
  if (const JsonValue* dl = v.find("deadline_ms")) {
    if (!dl->is_integer() || dl->as_integer() < 1 ||
        dl->as_integer() > kMaxDeadlineMs) {
      return make_error("\"deadline_ms\" must be an integer in [1, " +
                            std::to_string(kMaxDeadlineMs) + "]",
                        id);
    }
    deadline_ms = dl->as_integer();
  }

  p.kind = ParsedLine::Kind::kRequest;
  p.request.id = id->as_integer();
  p.request.model = std::move(model_name);
  p.request.input.reserve(input->array.size());
  for (const JsonValue& x : input->array) {
    if (!x.is_number()) {
      return make_error("\"input\" elements must be numbers", id);
    }
    p.request.input.push_back(static_cast<float>(x.number));
  }
  if (deadline_ms > 0) {
    p.request.deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  return p;
}

/// "" when two parses agree on everything a front-end reads -- kind, error
/// code and message, echoed id, request id/model/deadline presence, reload
/// target, and the input floats bit for bit -- else what differs first.
inline std::string protocol_mismatch(const ParsedLine& got,
                                     const ParsedLine& want) {
  const auto has_deadline = [](const ParsedLine& p) {
    return p.request.deadline != Clock::time_point::max();
  };
  if (got.kind != want.kind) return "kind";
  if (got.code != want.code) return "code";
  if (got.error != want.error) {
    return "error: got \"" + got.error + "\", want \"" + want.error + "\"";
  }
  if (got.has_id != want.has_id || got.id != want.id) return "echoed id";
  if (got.request.id != want.request.id) return "request.id";
  if (got.request.model != want.request.model) return "request.model";
  if (has_deadline(got) != has_deadline(want)) return "deadline presence";
  if (got.reload_model != want.reload_model) return "reload_model";
  if (got.reload_path != want.reload_path) return "reload_path";
  if (got.request.input.size() != want.request.input.size()) {
    return "input size: got " + std::to_string(got.request.input.size()) +
           ", want " + std::to_string(want.request.input.size());
  }
  if (!got.request.input.empty() &&
      std::memcmp(got.request.input.data(), want.request.input.data(),
                  got.request.input.size() * sizeof(float)) != 0) {
    return "input bits";
  }
  return "";
}

}  // namespace mixq::serve::test_support
