// Shared check for the depthwise row kernels (simd.hpp's dw_row_u8s16 and
// the VNNI tier's vnni_dw_row_u8s16): packs random or extreme offset
// weights into the row-kernel bank, lays out kh separate input rows with
// junk slack after each, runs one output row of npix pixels, and compares
// every real channel with a plain scalar sum over the unpacked weights.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/simd.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime::test {

/// Kernel under test, as one call over an output row.
using DwRowKernel = void (*)(const std::uint8_t* const* tap,
                             std::int64_t taps, std::int64_t step,
                             std::int64_t C, const std::int16_t* bank,
                             std::int64_t npix, std::int32_t* acc);

/// Runs the C-channel kh x kw case; `extreme` puts every weight at +-255
/// (the offset range of 8-bit weights) and every activation at 255.
inline void check_dw_row(DwRowKernel kernel, std::int64_t C, std::int64_t k,
                         std::int64_t stride, std::int64_t npix,
                         bool extreme, Rng& rng) {
  const std::int64_t taps = k * k;
  std::vector<std::int32_t> w(static_cast<std::size_t>(C * taps));
  for (auto& v : w) {
    v = extreme ? (rng.uniform_int(2) != 0u ? 255 : -255)
                : static_cast<std::int32_t>(rng.uniform_int(511)) - 255;
  }
  std::vector<std::int16_t> bank(
      static_cast<std::size_t>(simd::dw_bank_elems(taps, C)), 77);
  simd::dw_pack_u8s16(w.data(), taps, C, bank.data());

  // One buffer per kernel row; the 32 junk bytes after each mirror the
  // slack the plan's rows carry for the 16-byte channel-block loads.
  const std::int64_t width = ((npix - 1) * stride + k) * C;
  std::vector<std::vector<std::uint8_t>> rows(static_cast<std::size_t>(k));
  for (auto& r : rows) {
    r.assign(static_cast<std::size_t>(width + 32), 0xCD);
    for (std::int64_t i = 0; i < width; ++i) {
      r[static_cast<std::size_t>(i)] =
          extreme ? 255 : static_cast<std::uint8_t>(rng.uniform_int(256));
    }
  }
  std::vector<const std::uint8_t*> tap(static_cast<std::size_t>(taps));
  for (std::int64_t t = 0; t < taps; ++t) {
    tap[static_cast<std::size_t>(t)] =
        rows[static_cast<std::size_t>(t / k)].data() + (t % k) * C;
  }
  const std::int64_t cp = simd::round_up(C, 16);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(npix * cp), -1);
  kernel(tap.data(), taps, stride * C, C, bank.data(), npix, acc.data());
  for (std::int64_t j = 0; j < npix; ++j) {
    for (std::int64_t c = 0; c < C; ++c) {
      std::int32_t sum = 0;
      for (std::int64_t t = 0; t < taps; ++t) {
        sum += static_cast<std::int32_t>(
                   tap[static_cast<std::size_t>(t)][j * stride * C + c]) *
               w[static_cast<std::size_t>(c * taps + t)];
      }
      EXPECT_EQ(acc[static_cast<std::size_t>(j * cp + c)], sum)
          << "C=" << C << " k=" << k << " s=" << stride
          << " npix=" << npix << " j=" << j << " c=" << c
          << (extreme ? " extreme" : "");
    }
  }
}

/// The shapes every kernel body is held to: channel counts below, at and
/// across the 16-channel block, 3x3 and 5x5 (odd tap counts), stride 1
/// and 2, and rows with fewer, as many and more pixels than a body keeps
/// in flight.
inline void check_dw_row_shapes(DwRowKernel kernel) {
  Rng rng(25);
  for (const std::int64_t C : {1, 15, 16, 17, 32, 40, 64, 130}) {
    for (const std::int64_t k : {3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t npix : {1, 2, 5, 8}) {
          for (const bool extreme : {false, true}) {
            check_dw_row(kernel, C, k, stride, npix, extreme, rng);
          }
        }
      }
    }
  }
}

}  // namespace mixq::runtime::test
