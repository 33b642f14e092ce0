// Differential tests of the one-pass request scanner (parse_protocol_line)
// against the tree-based oracle it replaced (support/protocol_oracle.hpp):
// every line must decode to the same verdict, error message, echoed id,
// request fields and -- bit for bit -- input floats. Also bounds what a
// parse may allocate, through a counting global operator new; that
// replacement is why this suite must stay its own executable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/protocol_oracle.hpp"
#include "tensor/rng.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_alloc_bytes = 0;
thread_local std::size_t t_alloc_calls = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) {
    t_alloc_bytes += n;
    ++t_alloc_calls;
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mixq::serve {
namespace {

using test_support::oracle_parse_protocol_line;
using test_support::protocol_mismatch;

// The default model takes 3 floats; the directory adds two named models
// ("ma" is reachable through an escaped name).
constexpr std::int64_t kNumel = 3;

const ModelDirectory& directory() {
  static const ModelDirectory dir{{{"small", 2}, {"big", 5}, {"ma", 4}}};
  return dir;
}

/// Scanner and oracle agree on `line`; returns "" or the first difference.
std::string differ(const std::string& line, std::int64_t numel = kNumel,
                   std::int64_t default_deadline_ms = 0) {
  const std::size_t cap = max_request_line_bytes(numel);
  const ParsedLine got = parse_protocol_line(line, numel, cap,
                                             default_deadline_ms, &directory());
  const ParsedLine want = oracle_parse_protocol_line(
      line, numel, cap, default_deadline_ms, &directory());
  return protocol_mismatch(got, want);
}

void expect_agree(const std::vector<std::string>& lines,
                  std::int64_t numel = kNumel) {
  for (const std::string& line : lines) {
    EXPECT_EQ(differ(line, numel), "") << "line: " << line;
  }
}

ParsedLine scan(const std::string& line) {
  return parse_protocol_line(line, kNumel, max_request_line_bytes(kNumel), 0,
                             &directory());
}

TEST(Protocol, LineCapKeepsItsValue) {
  EXPECT_EQ(max_request_line_bytes(192), 256u + 32u * 192u);
  EXPECT_EQ(max_request_line_bytes(6912), 256u + 32u * 6912u);
}

TEST(Protocol, AgreesOnTheMalformedServerSuite) {
  // The lines of StreamServer.MalformedRequestFuzzNeverKillsTheDaemon, at
  // its 8x8x3 input.
  constexpr std::int64_t numel = 192;
  std::vector<std::string> lines = {
      "this is not json",
      "{",
      "[1,2,3]",
      "42",
      "\"str\"",
      "{\"id\":1}",
      "{\"input\":[1]}",
      "{\"id\":\"x\",\"input\":[1]}",
      "{\"id\":1.5,\"input\":[1]}",
      "{\"id\":2,\"input\":\"nope\"}",
      "{\"id\":3,\"input\":[1,2]}",
      "{\"id\":4,\"input\":[true]}",
      "{\"cmd\":\"bogus\"}",
      "{\"cmd\":5}",
      "{\"id\":5,\"input\":[1e999]}",
      "{\"id\":9223372036854775808,\"input\":[1]}",
      std::string(100, '['),
      "{\"id\":6,\"input\":[" + std::string(300 * 192, '1') + "]}",
  };
  Rng rng(123);
  for (int i = 0; i < 64; ++i) {
    std::string line = "@";
    const int len = 1 + static_cast<int>(rng.uniform_int(80));
    for (int k = 0; k < len; ++k) {
      line.push_back(static_cast<char>(32 + rng.uniform_int(95)));
    }
    lines.push_back(line);
  }
  for (const std::string& line : lines) {
    EXPECT_EQ(scan(line).kind, ParsedLine::Kind::kError) << line;
  }
  std::vector<float> sample(static_cast<std::size_t>(numel));
  Rng(9).fill_uniform(sample, 0.0, 1.0);
  lines.push_back(format_request_line(7, sample.data(), numel));
  expect_agree(lines, numel);
}

TEST(Protocol, AgreesOnControlLines) {
  expect_agree({
      "",
      "   \t\r",
      "{\"cmd\":\"info\"}",
      "{\"cmd\":\"stats\"}",
      "{\"cmd\":\"health\"}",
      "{\"cmd\":\"shutdown\"}",
      "{\"cmd\":\"reload\"}",
      "{\"cmd\":\"reload\",\"model\":\"big\",\"path\":\"/tmp/m.img\"}",
      "{\"path\":\"a\\/b\",\"cmd\":\"reload\",\"model\":\"sm\\u0061ll\"}",
      "{\"cmd\":\"reload\",\"model\":7}",
      "{\"cmd\":\"reload\",\"path\":null,\"id\":4}",
      "{\"cmd\":\"stats\",\"input\":[1,2,3],\"id\":1}",
      "{\"cmd\":\"nope\",\"id\":9}",
      "{\"cmd\":[\"info\"],\"id\":2}",
      "{\"id\":1,\"cmd\":\"info\",\"input\":[1,2,3]}",
      "{\"cmd\":\"info\"}x",
      "{\"cmd\":\"info\",}",
      "{}",
  });
}

TEST(Protocol, DuplicateKeysFirstOneWins) {
  expect_agree({
      "{\"id\":1,\"id\":2,\"input\":[1,2,3]}",
      "{\"id\":\"x\",\"id\":1,\"input\":[1,2,3]}",
      "{\"id\":1,\"input\":[1,2,3],\"input\":[1]}",
      "{\"id\":1,\"input\":[1],\"input\":[1,2,3]}",
      "{\"id\":1,\"input\":\"x\",\"input\":[1,2,3]}",
      "{\"id\":1,\"input\":[1,2,3],\"input\":[1,}",
      "{\"cmd\":\"info\",\"cmd\":\"bogus\"}",
      "{\"cmd\":\"bogus\",\"cmd\":\"info\"}",
      "{\"id\":1,\"model\":\"small\",\"model\":\"big\",\"input\":[1,2]}",
      "{\"id\":1,\"deadline_ms\":5,\"deadline_ms\":0,\"input\":[1,2,3]}",
      "{\"cmd\":\"reload\",\"path\":\"a\",\"path\":5}",
  });
  const ParsedLine p = scan("{\"id\":1,\"id\":2,\"input\":[1,2,3]}");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(p.request.id, 1);
}

TEST(Protocol, UnknownKeysAreValidatedAndSkipped) {
  // Depth 0 is the request object and its members sit at depth 1, so the
  // innermost of k nested arrays in a member sits at depth k and a leaf
  // inside it at depth k + 1.
  const auto nested = [](int arrays, const std::string& leaf) {
    return std::string(static_cast<std::size_t>(arrays), '[') + leaf +
           std::string(static_cast<std::size_t>(arrays), ']');
  };
  const std::string ok_deep = nested(64, "");  // deepest value: 64
  const std::string bomb = nested(64, "1");     // leaf at depth 65
  expect_agree({
      "{\"meta\":{\"a\":[1,{\"b\":null}],\"c\":\"s\\n\"},\"id\":1,"
      "\"input\":[1,2,3]}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":[true,false,null,[],{}]}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":" + ok_deep + "}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":" + bomb + "}",
      "{\"x\":" + bomb + ",\"id\":1,\"input\":[1,2,3]}",
      "{\"x\":" + std::string(200, '[') + "}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":{\"k\":[1,2,}}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":\"\\q\"}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":\"\\u12g4\"}",
      "{\"id\":1,\"input\":[1,2,3],\"x\":tru}",
      "{\"id\":1,\"input\":[1,2,3],\"\\u0078\":01}",
  });
  EXPECT_EQ(scan("{\"id\":1,\"input\":[1,2,3],\"x\":" + ok_deep + "}").kind,
            ParsedLine::Kind::kRequest);
  const ParsedLine p =
      scan("{\"id\":1,\"input\":[1,2,3],\"x\":" + bomb + "}");
  EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
  EXPECT_FALSE(p.has_id);
}

TEST(Protocol, WhitespaceBetweenEveryToken) {
  const std::string ws = " \t\r\n ";
  const std::vector<std::string> tokens = {
      "{", "\"id\"", ":", "5", ",", "\"input\"", ":", "[", "1.5", ",", "-2",
      ",", "25e-2", "]", ",", "\"deadline_ms\"", ":", "10", ",", "\"x\"",
      ":", "[", "{", "}", ",", "null", "]", "}"};
  std::string line = ws;
  for (const std::string& t : tokens) line += t + ws;
  expect_agree({line});
  const ParsedLine p = scan(line);
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(p.request.id, 5);
  EXPECT_EQ(p.request.input, (std::vector<float>{1.5f, -2.0f, 0.25f}));
}

TEST(Protocol, IntegerIdEdges) {
  const std::vector<std::string> ids = {
      "1.0", "1e2", "-0", "9223372036854775808", "-9223372036854775808",
      "9223372036854775807", "1.5", "\"1\"", "null", "[1]", "1E+2", "01"};
  std::vector<std::string> lines;
  for (const std::string& id : ids) {
    lines.push_back("{\"id\":" + id + ",\"input\":[1,2,3]}");
    lines.push_back("{\"id\":" + id + ",\"input\":[1,2]}");
    lines.push_back("{\"cmd\":\"nope\",\"id\":" + id + "}");
  }
  expect_agree(lines);
  EXPECT_EQ(scan("{\"id\":1e2,\"input\":[1,2,3]}").request.id, 100);
  EXPECT_EQ(scan("{\"id\":-0,\"input\":[1,2,3]}").request.id, 0);
}

TEST(Protocol, DeadlineBounds) {
  std::vector<std::string> lines;
  for (const char* dl : {"0", "1", "3600000", "3600001", "1.5", "-1", "1e3",
                         "\"5\"", "null"}) {
    lines.push_back("{\"id\":8,\"input\":[1,2,3],\"deadline_ms\":" +
                    std::string(dl) + "}");
    // Deadline precedes the element-type check; a wrong count precedes it.
    lines.push_back("{\"id\":8,\"input\":[1,true,3],\"deadline_ms\":" +
                    std::string(dl) + "}");
    lines.push_back("{\"deadline_ms\":" + std::string(dl) +
                    ",\"id\":8,\"input\":[1,2]}");
  }
  expect_agree(lines);
  for (const std::string& line : lines) {
    EXPECT_EQ(differ(line, kNumel, /*default_deadline_ms=*/250), "") << line;
  }
  EXPECT_EQ(scan(lines[0]).code, ErrCode::kMalformed);
  EXPECT_EQ(scan(lines[6]).kind, ParsedLine::Kind::kRequest);
}

TEST(Protocol, ModelRouting) {
  expect_agree({
      "{\"id\":1,\"input\":[1,2],\"model\":\"small\"}",
      "{\"id\":1,\"model\":\"small\",\"input\":[1,2]}",
      "{\"id\":1,\"input\":[1,2,3,4,5],\"model\":\"big\"}",
      "{\"id\":1,\"input\":[1,2,3],\"model\":\"big\"}",
      "{\"id\":1,\"input\":[1,2,3],\"model\":\"nope\"}",
      "{\"id\":1,\"model\":\"nope\",\"input\":[1,\"x\"]}",
      "{\"id\":1,\"input\":[1,2,3,4],\"model\":\"\\u006da\"}",
      "{\"id\":1,\"input\":[1,2,3,4],\"model\":\"m\\u0061\"}",
      "{\"id\":1,\"input\":[1,2,3],\"model\":\"\"}",
      "{\"id\":1,\"input\":[1,2,3],\"model\":5}",
      "{\"id\":1,\"input\":[1,2,3],\"model\":{\"n\":\"big\"}}",
      "{\"id\":1,\"model\":\"big\",\"input\":\"x\"}",
  });
  const ParsedLine nf = scan("{\"id\":1,\"input\":[1,2,3],\"model\":\"nope\"}");
  EXPECT_EQ(nf.code, ErrCode::kNotFound);
  EXPECT_TRUE(nf.has_id);
  const ParsedLine esc =
      scan("{\"id\":1,\"input\":[1,2,3,4],\"model\":\"m\\u0061\"}");
  ASSERT_EQ(esc.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(esc.request.model, "ma");
  // Without a directory every named model is unknown.
  const std::string named = "{\"id\":1,\"input\":[1,2],\"model\":\"small\"}";
  EXPECT_EQ(protocol_mismatch(
                parse_protocol_line(named, kNumel, 1024, 0, nullptr),
                oracle_parse_protocol_line(named, kNumel, 1024, 0, nullptr)),
            "");
}

TEST(Protocol, SyntaxErrorBeatsEverySemanticError) {
  const std::vector<std::string> lines = {
      "{\"id\":1,\"input\":[true,1,2] x}",
      "{\"id\":1,\"input\":[\"a\",1,2],\"z\":}",
      "{\"id\":1,\"input\":[1,2],\"model\":\"nope\",",
      "{\"cmd\":5,\"id\":3,]",
      "{\"id\":\"x\",\"input\":[1,2,3]",
      "{\"id\":2,\"input\":[1,2,3],\"deadline_ms\":0}}",
      "{\"id\":2,\"input\":[1,2,1e999]}",
      "{\"id\":2,\"input\":[1,2,.5]}",
      "{\"id\":2,\"input\":[1,2,+1]}",
      "{\"id\":2,\"input\":[1,2,inf]}",
      "{\"id\":2,\"input\":[1,2,nan]}",
      "{\"id\":2,\"input\":[1,2,1.]}",
      "{\"id\":2,\"input\":[1,2,-]}",
      "{\"id\":2,\"input\":[1,2,1e]}",
      "{\"id\":2,\"input\":[1,2,3,]}",
      "{\"id\":2,\"input\":[1 2 3]}",
      "{\"id\":2,\"input\":[1,2,3]",
      "{\"id\":2,\"input\":[1,2,3",
      "{\"id\":2,\"input\":[1,2,3\"\"]}",
      "{\"id\":2,\"in\x01put\":[1,2,3]}",
      "{id:2}",
      "\n",
  };
  expect_agree(lines);
  for (const std::string& line : lines) {
    const ParsedLine p = scan(line);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError) << line;
    EXPECT_FALSE(p.has_id) << line;
  }
}

/// Decimal spellings of the exact midpoint between `f` and the next float
/// up, and of values just above and below it. A double holds the midpoint
/// exactly, so "parse as double, then narrow" rounds these differently
/// from a direct decimal-to-float conversion.
std::vector<std::string> midpoint_spellings(float f) {
  const float g = std::nextafter(f, 2.0f * f + 1.0f);
  const double mid = (static_cast<double>(f) + static_cast<double>(g)) / 2.0;
  // 140 significant digits spell any float midpoint exactly (the
  // smallest normal's needs ~112).
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.140e", mid);
  std::string s(buf);
  const std::size_t e = s.find('e');
  std::string mant = s.substr(0, e);
  const std::string exp = s.substr(e);
  while (mant.back() == '0') mant.pop_back();
  std::string below = mant;
  below.back() = static_cast<char>(below.back() - 1);
  return {mant + exp, mant + "0000000001" + exp, below + "9999999999" + exp};
}

TEST(Protocol, HalfwayDecimalsNarrowBitIdentically) {
  std::vector<std::string> elems;
  for (const float f : {1.0f, 0.1f, 3.3f, 1e-3f, 123.456f, 7.0e-20f,
                        6.5e30f, 1.17549435e-38f, 0.75f, 16777216.0f}) {
    for (const std::string& s : midpoint_spellings(f)) {
      elems.push_back(s);
      elems.push_back("-" + s);
    }
  }
  std::string line = "{\"id\":3,\"input\":[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i > 0) line += ",";
    line += elems[i];
  }
  line += "]}";
  // Exact spellings run to ~150 bytes a float: lift the line cap.
  const auto numel = static_cast<std::int64_t>(elems.size());
  const ParsedLine p =
      parse_protocol_line(line, numel, line.size(), 0, nullptr);
  const ParsedLine want =
      oracle_parse_protocol_line(line, numel, line.size(), 0, nullptr);
  EXPECT_EQ(protocol_mismatch(p, want), "");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    const auto want =
        static_cast<float>(std::strtod(elems[i].c_str(), nullptr));
    EXPECT_EQ(std::memcmp(&p.request.input[i], &want, sizeof(float)), 0)
        << elems[i];
  }
}

TEST(Protocol, RandomRequestsAndMutationsAgree) {
  Rng rng(77);
  constexpr std::int64_t numel = 16;
  std::vector<float> sample(static_cast<std::size_t>(numel));
  for (int i = 0; i < 400; ++i) {
    rng.fill_uniform(sample, -1e3, 1e3);
    std::string line = format_request_line(i, sample.data(), numel);
    const ParsedLine p = parse_protocol_line(
        line, numel, max_request_line_bytes(numel), 0, &directory());
    ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
    EXPECT_EQ(p.request.input, sample);
    // Flip, insert or delete a few bytes; whatever the verdict, the two
    // decoders must reach the same one.
    const int edits = 1 + static_cast<int>(rng.uniform_int(3));
    for (int k = 0; k < edits && !line.empty(); ++k) {
      const std::size_t at = rng.uniform_int(line.size());
      const char alphabet[] = "{}[]\":,.-+eE0123456789 tfnu\\x";
      const char c = alphabet[rng.uniform_int(sizeof(alphabet) - 1)];
      switch (rng.uniform_int(3)) {
        case 0: line[at] = c; break;
        case 1: line.insert(at, 1, c); break;
        default: line.erase(at, 1);
      }
    }
    EXPECT_EQ(differ(line, numel), "") << "line: " << line;
  }
}

struct AllocStats {
  std::size_t bytes;
  std::size_t calls;
};

template <typename Fn>
AllocStats count_allocs(Fn&& fn) {
  t_alloc_bytes = 0;
  t_alloc_calls = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return {t_alloc_bytes, t_alloc_calls};
}

TEST(Protocol, RequestMemoryIsTheFloatBufferOnly) {
  // The mnet48 request: 48x48x3 floats, ~73 KB on the wire.
  constexpr std::int64_t numel = 48 * 48 * 3;
  std::vector<float> sample(static_cast<std::size_t>(numel));
  Rng(5).fill_uniform(sample, 0.0, 1.0);
  const std::string line = format_request_line(1, sample.data(), numel);
  const std::size_t cap = max_request_line_bytes(numel);
  ParsedLine p;
  const AllocStats a = count_allocs(
      [&] { p = parse_protocol_line(line, numel, cap, 0, nullptr); });
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRequest);
  EXPECT_EQ(p.request.input, sample);
  EXPECT_LE(a.bytes, 2 * static_cast<std::size_t>(numel) * sizeof(float) + 1024)
      << a.calls << " allocations";
}

TEST(Protocol, OverCapLineAllocatesOnlyItsRefusal) {
  constexpr std::int64_t numel = 192;
  const std::size_t cap = max_request_line_bytes(numel);
  const std::string line =
      "{\"id\":6,\"input\":[" + std::string(cap, '1') + "]}";
  ParsedLine p;
  const AllocStats a = count_allocs(
      [&] { p = parse_protocol_line(line, numel, cap, 0, nullptr); });
  ASSERT_EQ(p.kind, ParsedLine::Kind::kError);
  // Only the refusal message ("request line exceeds N bytes", built in
  // two string appends) is allocated: nothing scales with the line.
  EXPECT_LE(a.bytes, 128u);
  EXPECT_LE(a.calls, 2u);
}

}  // namespace
}  // namespace mixq::serve
