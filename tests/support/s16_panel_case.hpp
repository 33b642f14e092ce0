// Shared check for the u8 x s16 pair-panel GEMM kernels (simd.hpp's
// gemm_s16 and the VNNI tier's vnni_gemm_s16; one row, or two when a1 is
// non-null): packs random or extreme offset weights, lays two activation
// rows out as kernel-row segments (one packed at segp, one "in place" with
// a wider stride and junk in every pad byte), runs the kernel over every
// channel block in K-blocks of several sizes, and compares each lane with
// a plain scalar dot over the unpacked weights.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/simd.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime::test {

/// Kernel under test, as one call over rows a0 (and a1 when non-null).
using S16Kernel = void (*)(const std::uint8_t* a0, std::int64_t stride0,
                           const std::uint8_t* a1, std::int64_t stride1,
                           std::int64_t segp, const std::int16_t* block,
                           std::int64_t k0, std::int64_t k1,
                           std::int32_t* acc0, std::int32_t* acc1,
                           bool accumulate);

/// Runs the nseg x seg, co-channel case; `extreme` puts every weight at
/// +-255 (the offset range of 8-bit weights) and every activation at 255.
inline void check_s16_panel(S16Kernel kernel, std::int64_t nseg,
                            std::int64_t seg, std::int64_t co, bool extreme,
                            Rng& rng) {
  const std::int64_t segp = simd::round_up(seg, 2);
  const std::int64_t kp = nseg * segp;
  const std::int64_t K = nseg * seg;
  std::vector<std::int32_t> w(static_cast<std::size_t>(co * K));
  for (auto& v : w) {
    v = extreme ? (rng.uniform_int(2) != 0u ? 255 : -255)
                : static_cast<std::int32_t>(rng.uniform_int(511)) - 255;
  }
  std::vector<std::int16_t> panel(
      static_cast<std::size_t>(simd::gemm_s16_panel_elems(co, kp)), 77);
  simd::gemm_s16_pack(w.data(), co, nseg, seg, panel.data());

  // Row 0 packed (stride segp), row 1 in place (stride segp + 5). Pad and
  // gap bytes hold junk: they meet zero weights or are never read. The
  // trailing 32 bytes mirror the plan's kArenaU8Slack.
  const std::int64_t stride[2] = {segp, segp + 5};
  std::vector<std::uint8_t> a[2];
  for (int r = 0; r < 2; ++r) {
    a[r].assign(static_cast<std::size_t>(nseg * stride[r] + 32), 0xCD);
    for (std::int64_t s = 0; s < nseg; ++s) {
      for (std::int64_t i = 0; i < seg; ++i) {
        a[r][static_cast<std::size_t>(s * stride[r] + i)] =
            extreme ? 255 : static_cast<std::uint8_t>(rng.uniform_int(256));
      }
    }
  }
  const auto expect = [&](int r, std::int64_t oc) {
    std::int32_t sum = 0;
    for (std::int64_t s = 0; s < nseg; ++s) {
      for (std::int64_t i = 0; i < seg; ++i) {
        sum += static_cast<std::int32_t>(
                   a[r][static_cast<std::size_t>(s * stride[r] + i)]) *
               w[static_cast<std::size_t>(oc * K + s * seg + i)];
      }
    }
    return sum;
  };

  const std::int64_t ocb = simd::gemm_s16_ocb();
  for (const std::int64_t kb : {std::int64_t{2}, std::int64_t{6}, kp}) {
    for (const bool two : {false, true}) {
      for (std::int64_t cb = 0; cb < co; cb += ocb) {
        std::vector<std::int32_t> acc0(16, -1), acc1(16, -1);
        for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
          kernel(a[0].data(), stride[0], two ? a[1].data() : nullptr,
                 stride[1], segp, panel.data() + cb * kp, k0,
                 std::min(kp, k0 + kb), acc0.data(), acc1.data(), k0 > 0);
        }
        for (std::int64_t j = 0; j < ocb; ++j) {
          const std::int64_t oc = cb + j;
          const std::string where =
              "nseg=" + std::to_string(nseg) + " seg=" + std::to_string(seg) +
              " kb=" + std::to_string(kb) + " oc=" + std::to_string(oc) +
              (extreme ? " extreme" : "");
          EXPECT_EQ(acc0[static_cast<std::size_t>(j)],
                    oc < co ? expect(0, oc) : 0)
              << where;
          if (two) {
            EXPECT_EQ(acc1[static_cast<std::size_t>(j)],
                      oc < co ? expect(1, oc) : 0)
                << where << " row 1";
          } else {
            EXPECT_EQ(acc1[static_cast<std::size_t>(j)], -1) << where;
          }
        }
      }
    }
  }
}

/// The shapes every kernel body is held to: one segment (GEMM/linear rows)
/// and three (3xK convs), odd and even segment lengths across the 16- and
/// 32-byte widening steps, co not a multiple of 16.
inline void check_s16_panel_shapes(S16Kernel kernel) {
  Rng rng(22);
  for (const std::int64_t nseg : {std::int64_t{1}, std::int64_t{3}}) {
    for (const std::int64_t seg : {1, 2, 3, 9, 16, 17, 33, 40}) {
      for (const bool extreme : {false, true}) {
        check_s16_panel(kernel, nseg, seg, 21, extreme, rng);
      }
    }
  }
}

}  // namespace mixq::runtime::test
