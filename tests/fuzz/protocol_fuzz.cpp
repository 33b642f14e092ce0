// libFuzzer target for the serving protocol decoder: any byte string in,
// and parse_protocol_line (the one-pass scanner) must reach exactly the
// verdict of the tree-based oracle in tests/support/protocol_oracle.hpp --
// same kind, error code and message, echoed id, request fields and input
// floats bit for bit. A disagreement aborts with both readings. Seed with
// the committed corpus:
//
//   protocol_fuzz tests/corpus/protocol -max_total_time=60
//
// Gated like flash_image_fuzz: built only when MIXQ_BUILD_FUZZERS=ON and
// the compiler is Clang. A small default input (3 floats) and a two-model
// directory keep valid requests within the fuzzer's reach.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"
#include "support/protocol_oracle.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace mixq::serve;
  static const ModelDirectory models{{{"a", 2}, {"b", 4}}};
  constexpr std::int64_t kNumel = 3;
  const std::size_t cap = max_request_line_bytes(4);
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  const ParsedLine got = parse_protocol_line(line, kNumel, cap, 0, &models);
  const ParsedLine want =
      test_support::oracle_parse_protocol_line(line, kNumel, cap, 0, &models);
  const std::string diff = test_support::protocol_mismatch(got, want);
  if (!diff.empty()) {
    std::fprintf(stderr, "scanner and oracle disagree on %s\n", diff.c_str());
    std::abort();
  }
  return 0;
}
