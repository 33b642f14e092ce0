#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "tensor/rng.hpp"

namespace mixq::serve {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("42").number, 42.0);
  EXPECT_EQ(parse_json("-7.5e2").number, -750.0);
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
  EXPECT_EQ(parse_json("  1  ").number, 1.0);
}

TEST(Json, ParsesContainers) {
  const JsonValue v = parse_json(
      "{\"id\": 3, \"input\": [1, 2.5, -3], \"nested\": {\"a\": []}}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* id = v.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->is_integer());
  EXPECT_EQ(id->as_integer(), 3);
  const JsonValue* input = v.find("input");
  ASSERT_NE(input, nullptr);
  ASSERT_EQ(input->array.size(), 3u);
  EXPECT_EQ(input->array[1].number, 2.5);
  const JsonValue* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->find("a"), nullptr);
  EXPECT_TRUE(nested->find("a")->is_array());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"b\\\\\"").string, "a\n\t\"b\\");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").string, "A\xC3\xA9");
}

TEST(Json, RejectsMalformed) {
  const char* bad[] = {
      "",          "{",           "}",          "[1,",       "[1 2]",
      "{\"a\"}",   "{\"a\":}",    "{a:1}",      "tru",       "nul",
      "01x",       "1.",          "1e",         "+1",        "\"unterminated",
      "\"bad\\q\"", "[1]extra",   "{\"a\":1,}", "\"\\u12g4\"",
      "1e999",     "--5",
  };
  for (const char* s : bad) {
    EXPECT_THROW(parse_json(s), std::runtime_error);
  }
}

TEST(Json, RejectsLeadingZerosPerRfc8259) {
  for (const char* s : {"01", "-01", "00", "-00", "00.5", "007e1", "[1,02]",
                        "{\"a\":0123}"}) {
    EXPECT_THROW(parse_json(s), std::runtime_error);
  }
  try {
    parse_json("-01");
    ADD_FAILURE() << "-01 parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: leading zero in number at byte 2");
  }
  for (const char* s : {"0", "-0", "0.5", "-0.05", "0e5", "0E-1", "10",
                        "100.001", "[0,10]"}) {
    EXPECT_NO_THROW(parse_json(s));
  }
}

TEST(Json, DepthLimitHolds) {
  std::string deep;
  for (int i = 0; i < kJsonMaxDepth + 8; ++i) deep += "[";
  EXPECT_THROW(parse_json(deep), std::runtime_error);
  std::string ok;
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) ok += "[";
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) ok += "]";
  EXPECT_NO_THROW(parse_json(ok));
}

TEST(Json, IsIntegerEdgeCases) {
  EXPECT_TRUE(parse_json("0").is_integer());
  EXPECT_TRUE(parse_json("-9007199254740992").is_integer());
  EXPECT_FALSE(parse_json("1.5").is_integer());
  EXPECT_FALSE(parse_json("1e300").is_integer() &&
               parse_json("1e300").as_integer() > 0);  // out of int64 range
  EXPECT_FALSE(parse_json("true").is_integer());
}

TEST(Json, FloatFormatRoundTripsBitExactly) {
  // The serving protocol's core float invariant: shortest round-trip
  // formatting parses back to the identical value, for every float the
  // pipeline can produce.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    float v;
    if (i % 4 == 0) {
      v = static_cast<float>(rng.uniform(-1e6, 1e6));
    } else if (i % 4 == 1) {
      v = static_cast<float>(rng.normal(0.0, 1e-4));
    } else if (i % 4 == 2) {
      v = std::ldexp(static_cast<float>(rng.uniform(1.0, 2.0)),
                     static_cast<int>(rng.uniform_int(250)) - 125);
    } else {
      v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    std::string s;
    append_json_float(s, v);
    const JsonValue back = parse_json(s);
    ASSERT_TRUE(back.is_number());
    ASSERT_EQ(static_cast<float>(back.number), v);
  }
  // Denormals and exact zero too.
  for (const float v : {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::max()}) {
    std::string s;
    append_json_float(s, v);
    ASSERT_EQ(static_cast<float>(parse_json(s).number), v);
  }
}

TEST(Json, NumbersAreTheCorrectlyRoundedDouble) {
  // Short decimals take an exact fast path, long ones std::from_chars;
  // both must give the double glibc's correctly rounded strtod gives,
  // including at the fast path's edges (19 digits, 2^53, 10^+-22).
  std::vector<std::string> spellings = {
      "0", "-0", "0.0", "-0e5", "1", "0.1", "9007199254740992",
      "9007199254740993", "18014398509481985", "1e22", "1e23", "-1e-22",
      "1e-23", "9999999999999999999", "10000000000000000000",
      "1234567890123456789e-22", "1234567890123456789e-23",
      "0.00000000000000000001", "3.4028235677973366e38",
      "1.1754943508222875e-38", "4.9406564584124654e-324", "1e308",
      "2.2250738585072011e-308", "0.30000000000000004", "7e22", "7e-22"};
  Rng rng(314);
  for (int i = 0; i < 20000; ++i) {
    std::string s = rng.uniform_int(2) == 0 ? "" : "-";
    const int int_digits = 1 + static_cast<int>(rng.uniform_int(12));
    for (int k = 0; k < int_digits; ++k) {
      s.push_back(static_cast<char>(
          '0' + (k == 0 && int_digits > 1 ? 1 + rng.uniform_int(9)
                                          : rng.uniform_int(10))));
    }
    if (rng.uniform_int(4) != 0) {
      s.push_back('.');
      const int frac_digits = 1 + static_cast<int>(rng.uniform_int(12));
      for (int k = 0; k < frac_digits; ++k) {
        s.push_back(static_cast<char>('0' + rng.uniform_int(10)));
      }
    }
    if (rng.uniform_int(2) == 0) {
      s += "e" + std::to_string(static_cast<int>(rng.uniform_int(61)) - 30);
    }
    spellings.push_back(s);
  }
  for (const std::string& s : spellings) {
    const double got = parse_json(s).number;
    const double want = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << s;
  }
}

TEST(Json, NonFiniteEmitsNull) {
  std::string s;
  append_json_float(s, std::numeric_limits<float>::infinity());
  EXPECT_EQ(s, "null");
  s.clear();
  append_json_double(s, std::nan(""));
  EXPECT_EQ(s, "null");
}

TEST(Json, EscapedStringsRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  std::string s;
  append_json_string(s, nasty);
  EXPECT_EQ(parse_json(s).string, nasty);
}

}  // namespace
}  // namespace mixq::serve
