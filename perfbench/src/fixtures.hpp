// perfbench/src/fixtures.hpp
//
// The models and inputs the workloads run on, and the serial reference
// every served response is byte-compared against.
//
//   mnet48 -- bench_runtime's MobileNet-class 48x48x3 net: u8s16-tier 3x3
//             stem, five depthwise-separable blocks at mixed 2/4/8-bit
//             precision (PC+ICN), global pool and linear head. Built from
//             a pinned seed and written as a v1 flash image.
//   cnn16  -- made by the repository's own pipeline (`mixq quantize
//             --compress ...`, pinned seed), a v2 image with Huffman-coded
//             weight banks, for the traced run's in-process probes. run.py
//             makes it once per build directory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/plan.hpp"
#include "runtime/qgraph.hpp"

namespace perfbench {

/// The mnet48 net (deterministic; no seed argument on purpose -- the
/// workload seed varies the inputs, never the model).
mixq::runtime::QuantizedNet make_mnet48();

/// `count` inputs of `numel` floats, uniform in [0, 1), from `seed`.
std::vector<std::vector<float>> make_input_pool(std::uint64_t seed,
                                                std::int64_t numel, int count);

/// A served model as the benchmark knows it: its wire name, its image on
/// disk, its input pool and the serial-reference result of every input.
struct Fixture {
  std::string name;
  std::string path;
  mixq::runtime::QuantizedNet net;
  std::vector<std::vector<float>> inputs;
  std::vector<mixq::runtime::QInferenceResult> reference;

  [[nodiscard]] std::int64_t numel() const {
    return net.layers.front().in_shape.numel();
  }
  /// The exact response line the daemon must send for request `id` of
  /// sample `sample` (no trailing newline).
  [[nodiscard]] std::string expected_line(std::int64_t id, int sample) const;
  /// A request line for `sample` (newline-terminated); needs the fixture
  /// to be loaded with request lines.
  [[nodiscard]] std::string request_line(std::int64_t id, int sample) const;

  /// Precomputed `,"input":[...]}` tail of each sample's request line.
  std::vector<std::string> request_tails;
};

/// Load `path` with the streaming loader, make `pool` inputs from `seed`,
/// and compute the serial ExecutionPlan reference of each. The request
/// line tails are made only `with_requests` (the in-process engine sends
/// none).
Fixture load_fixture(const std::string& name, const std::string& path,
                     std::uint64_t seed, int pool, bool with_requests);

/// Resident set of this process now, in MiB.
double rss_mb();

/// Reset this process's resident-set high-water mark to its current
/// resident set (/proc/self/clear_refs); throws where that is refused.
void reset_peak_rss();

/// Resident-set high-water mark of process `pid` (0 = self), in MiB.
double peak_rss_mb(int pid = 0);

}  // namespace perfbench
