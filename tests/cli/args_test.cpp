#include <gtest/gtest.h>

#include "cli/args.hpp"
#include "cli/cli.hpp"

namespace mixq::cli {
namespace {

Args make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"mixq"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(Args, FlagsAndOptions) {
  Args a = make({"--json", "--out", "x.img", "--seed=42", "model.img"});
  EXPECT_TRUE(a.flag("--json"));
  EXPECT_FALSE(a.flag("--json"));  // consumed
  EXPECT_FALSE(a.flag("--quiet"));
  EXPECT_EQ(a.opt("--out").value(), "x.img");
  EXPECT_EQ(a.int_opt_or("--seed", 0), 42);
  EXPECT_EQ(a.int_opt_or("--threads", 3), 3);
  a.done();
  const auto pos = a.positionals();
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "model.img");
}

TEST(Args, Errors) {
  Args missing = make({"--out"});
  EXPECT_THROW(missing.opt("--out"), UsageError);

  Args notint = make({"--seed", "abc"});
  EXPECT_THROW(notint.int_opt_or("--seed", 0), UsageError);

  Args unknown = make({"--bogus"});
  EXPECT_THROW(unknown.done(), UsageError);

  Args ok = make({"--known", "1"});
  EXPECT_EQ(ok.int_opt_or("--known", 0), 1);
  EXPECT_NO_THROW(ok.done());
}

TEST(ParseHelpers, SchemesBitsDevices) {
  EXPECT_EQ(parse_scheme("pc-icn"), core::Scheme::kPCICN);
  EXPECT_EQ(parse_scheme("pl-icn"), core::Scheme::kPLICN);
  EXPECT_EQ(parse_scheme("pl-fb"), core::Scheme::kPLFoldBN);
  EXPECT_EQ(parse_scheme("pc-thr"), core::Scheme::kPCThresholds);
  EXPECT_THROW(parse_scheme("int8"), UsageError);

  EXPECT_EQ(parse_bits(2), core::BitWidth::kQ2);
  EXPECT_EQ(parse_bits(8), core::BitWidth::kQ8);
  EXPECT_THROW(parse_bits(3), UsageError);

  EXPECT_EQ(parse_device("stm32h7").flash_bytes, 2 * 1024 * 1024);
  EXPECT_THROW(parse_device("esp32"), UsageError);

  // The slug table is the exact inverse of the parse table: every scheme
  // round-trips, so `mixq inspect` output is always `--scheme`-valid.
  for (const auto s :
       {core::Scheme::kPLFoldBN, core::Scheme::kPLICN, core::Scheme::kPCICN,
        core::Scheme::kPCThresholds}) {
    EXPECT_EQ(parse_scheme(scheme_slug(s)), s);
  }
}

TEST(LoadInputs, SyntheticDeterministicInSeed) {
  const Shape in(1, 4, 4, 3);
  const auto a = load_inputs("synthetic:3", in, 7);
  const auto b = load_inputs("synthetic:3", in, 7);
  const auto c = load_inputs("synthetic:3", in, 8);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(a[0].size(), static_cast<std::size_t>(in.numel()));
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[2], b[2]);
  EXPECT_NE(a[0], c[0]);
  EXPECT_THROW(load_inputs("synthetic:0", in, 1), UsageError);
  EXPECT_THROW(load_inputs("synthetic:x", in, 1), UsageError);
}

TEST(ServeCommand, StdioRefusesEventLoopOptions) {
  // Refused before any image is loaded, so the path need not exist.
  for (const char* flag :
       {"--queue-depth", "--idle-timeout-ms", "--drain-timeout-ms",
        "--fault-spec", "--max-conns", "--tcp-bind"}) {
    Args a = make({"missing.img", flag, "4"});
    EXPECT_THROW(cmd_serve(a), UsageError);
  }
}

}  // namespace
}  // namespace mixq::cli
