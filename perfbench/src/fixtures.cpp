#include "fixtures.hpp"

#include <unistd.h>

#include <fstream>
#include <random>
#include <stdexcept>

#include "runtime/flash_image.hpp"
#include "serve/server.hpp"
#include "support/random_qlayer.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace mixq;
using namespace mixq::runtime;

namespace {

QLayer make_layer(QLayerKind kind, Shape in_shape, std::int64_t co,
                  std::int64_t k, std::int64_t stride, std::int64_t pad,
                  BitWidth qx, BitWidth qw, BitWidth qy, Rng& rng) {
  return test_support::make_conv_family_layer(
      kind, in_shape, co, k, stride, pad, qx, qw, qy, core::Scheme::kPCICN,
      rng, 1e-4, 0.02);
}

}  // namespace

// Same construction and seed as bench_runtime's workload, so per-layer
// figures line up with that bench's profile.
QuantizedNet make_mnet48() {
  Rng rng(0xBEEF);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, BitWidth::kQ8);

  using BW = BitWidth;
  Shape s(1, 48, 48, 3);
  BW qx = BW::kQ8;
  struct Pw {
    std::int64_t co;
    std::int64_t stride;
    BW qw, qy;
  };
  net.layers.push_back(make_layer(QLayerKind::kConv, s, 16, 3, 2, 1, qx,
                                  BW::kQ8, BW::kQ4, rng));
  s = net.layers.back().out_shape;
  qx = net.layers.back().qy;
  const Pw blocks[] = {
      {32, 1, BW::kQ4, BW::kQ4},  {64, 2, BW::kQ4, BW::kQ4},
      {64, 1, BW::kQ4, BW::kQ8},  {128, 2, BW::kQ4, BW::kQ4},
      {128, 1, BW::kQ2, BW::kQ4},
  };
  for (const Pw& b : blocks) {
    net.layers.push_back(make_layer(QLayerKind::kDepthwise, s, s.c, 3,
                                    b.stride, 1, qx, BW::kQ8, qx, rng));
    s = net.layers.back().out_shape;
    net.layers.push_back(make_layer(QLayerKind::kConv, s, b.co, 1, 1, 0, qx,
                                    b.qw, b.qy, rng));
    s = net.layers.back().out_shape;
    qx = b.qy;
  }
  net.layers.push_back(
      make_layer(QLayerKind::kGlobalAvgPool, s, 0, 1, 1, 0, qx, qx, qx, rng));
  s = net.layers.back().out_shape;
  QLayer head = make_layer(QLayerKind::kLinear, s, 10, 1, 1, 0, qx, BW::kQ8,
                           BW::kQ8, rng);
  head.raw_logits = true;
  for (int c = 0; c < 10; ++c) head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  net.layers.push_back(head);
  net.validate();
  return net;
}

std::vector<std::vector<float>> make_input_pool(std::uint64_t seed,
                                                std::int64_t numel, int count) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<float>> pool(static_cast<std::size_t>(count));
  for (auto& x : pool) {
    x.resize(static_cast<std::size_t>(numel));
    // 24 random bits -> exactly representable floats in [0, 1).
    for (float& v : x) v = static_cast<float>(rng() >> 40) * 0x1.0p-24f;
  }
  return pool;
}

std::string Fixture::expected_line(std::int64_t id, int sample) const {
  return serve::format_result_line(id,
                                   reference[static_cast<std::size_t>(sample)]);
}

std::string Fixture::request_line(std::int64_t id, int sample) const {
  const std::string& tail = request_tails.at(static_cast<std::size_t>(sample));
  std::string line;
  line.reserve(tail.size() + 32);
  line += "{\"id\":";
  line += std::to_string(id);
  line += tail;
  line += '\n';
  return line;
}

Fixture load_fixture(const std::string& name, const std::string& path,
                     std::uint64_t seed, int pool, bool with_requests) {
  Fixture f;
  f.name = name;
  f.path = path;
  f.net = read_flash_image_file(path);
  f.inputs = make_input_pool(seed, f.numel(), pool);
  const ExecutionPlan plan(f.net);
  f.reference.reserve(f.inputs.size());
  for (const auto& x : f.inputs) f.reference.push_back(plan.run_sample(x.data()));
  if (!with_requests) return f;
  const std::string prefix = "{\"id\":0";
  for (const auto& x : f.inputs) {
    std::string line = serve::format_request_line(0, x.data(), f.numel());
    if (line.compare(0, prefix.size(), prefix) != 0) {
      throw std::logic_error("unexpected request line framing");
    }
    f.request_tails.push_back(line.substr(prefix.size()));
  }
  return f;
}

namespace {

/// A "Vm...:" field of /proc/<pid>/status, in MiB.
double status_mb(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string key;
  while (f >> key) {
    if (key == field) {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(int pid) { return status_mb(pid, "VmHWM:"); }

double rss_mb() { return status_mb(0, "VmRSS:"); }

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

}  // namespace perfbench
