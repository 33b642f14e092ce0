// AVX-512 VNNI kernel bodies -- the ONE translation unit compiled with
// -mavx512{f,bw,vl,vnni} (appended per-source in src/runtime/CMakeLists.txt
// when the MIXQ_HAS_AVX512VNNI compile check passes, which also defines
// MIXQ_VNNI_NATIVE for this file). The native bodies never include
// simd.hpp: its inline kernels must not be compiled under AVX-512 flags
// (ODR across TUs), and no struct is ever passed or copied (the GCC 12.2
// AVX-512 miscompile the build works around was a struct copy).
//
// Without MIXQ_VNNI_NATIVE the same functions build as portable bodies
// with bit-identical arithmetic (scalar, or simd.hpp's kernels where the
// layouts agree -- the TU then has the baseline flags), so forced-tier
// plans and the exactness tests run on every toolchain.
//
// When MIXQ_VNNI_NATIVE is set these bodies (including their scalar tail
// loops, which the compiler may autovectorize to AVX-512) execute AVX-512
// instructions unconditionally: callers must gate on vnni_enabled().

#include "runtime/simd_vnni.hpp"

#include <cstring>

#if defined(MIXQ_VNNI_NATIVE)
#include <immintrin.h>
#else
#include "runtime/simd.hpp"
#endif

namespace mixq::runtime::simd {

bool vnni_compiled() {
#if defined(MIXQ_VNNI_NATIVE)
  return true;
#else
  return false;
#endif
}

namespace {

/// Panel block byte index of weight lane j at depth k (ocb = 16): K groups
/// of 4 bytes, each channel's 4 bytes contiguous within the group. Local
/// replica of the layout contract published by vnni_index (simd.cpp); the
/// pack/kernel round-trip tests pin the two together.
[[maybe_unused]] inline std::int64_t blk_idx(std::int64_t k, std::int64_t j) {
  return (k / 4) * 64 + j * 4 + k % 4;
}

}  // namespace

#if defined(MIXQ_VNNI_NATIVE)

void vnni_gemm_x1(const std::uint8_t* a, const std::int8_t* block,
                  std::int64_t klen, std::int32_t* acc, int accumulate) {
  // Two dependency chains to cover vpdpbusd latency; k*16 == (k/4)*ocb*4.
  __m512i v0 = _mm512_setzero_si512();
  __m512i v1 = _mm512_setzero_si512();
  std::int64_t k = 0;
  for (; k + 8 <= klen; k += 8) {
    const __m512i w0 = _mm512_loadu_si512(block + k * 16);
    const __m512i w1 = _mm512_loadu_si512(block + k * 16 + 64);
    std::uint32_t u0, u1;
    std::memcpy(&u0, a + k, 4);
    std::memcpy(&u1, a + k + 4, 4);
    v0 = _mm512_dpbusd_epi32(v0, _mm512_set1_epi32(static_cast<int>(u0)), w0);
    v1 = _mm512_dpbusd_epi32(v1, _mm512_set1_epi32(static_cast<int>(u1)), w1);
  }
  for (; k < klen; k += 4) {
    const __m512i wv = _mm512_loadu_si512(block + k * 16);
    std::uint32_t u;
    std::memcpy(&u, a + k, 4);
    v0 = _mm512_dpbusd_epi32(v0, _mm512_set1_epi32(static_cast<int>(u)), wv);
  }
  __m512i v = _mm512_add_epi32(v0, v1);
  if (accumulate) v = _mm512_add_epi32(v, _mm512_loadu_si512(acc));
  _mm512_storeu_si512(acc, v);
}

void vnni_gemm_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int8_t* block, std::int64_t klen,
                  std::int32_t* acc0, std::int32_t* acc1, int accumulate) {
  __m512i p0 = _mm512_setzero_si512(), p1 = _mm512_setzero_si512();
  __m512i q0 = _mm512_setzero_si512(), q1 = _mm512_setzero_si512();
  std::int64_t k = 0;
  for (; k + 8 <= klen; k += 8) {
    const __m512i w0 = _mm512_loadu_si512(block + k * 16);
    const __m512i w1 = _mm512_loadu_si512(block + k * 16 + 64);
    std::uint32_t r0a, r0b, r1a, r1b;
    std::memcpy(&r0a, a0 + k, 4);
    std::memcpy(&r0b, a0 + k + 4, 4);
    std::memcpy(&r1a, a1 + k, 4);
    std::memcpy(&r1b, a1 + k + 4, 4);
    p0 = _mm512_dpbusd_epi32(p0, _mm512_set1_epi32(static_cast<int>(r0a)), w0);
    p1 = _mm512_dpbusd_epi32(p1, _mm512_set1_epi32(static_cast<int>(r0b)), w1);
    q0 = _mm512_dpbusd_epi32(q0, _mm512_set1_epi32(static_cast<int>(r1a)), w0);
    q1 = _mm512_dpbusd_epi32(q1, _mm512_set1_epi32(static_cast<int>(r1b)), w1);
  }
  for (; k < klen; k += 4) {
    const __m512i wv = _mm512_loadu_si512(block + k * 16);
    std::uint32_t u0, u1;
    std::memcpy(&u0, a0 + k, 4);
    std::memcpy(&u1, a1 + k, 4);
    p0 = _mm512_dpbusd_epi32(p0, _mm512_set1_epi32(static_cast<int>(u0)), wv);
    q0 = _mm512_dpbusd_epi32(q0, _mm512_set1_epi32(static_cast<int>(u1)), wv);
  }
  __m512i p = _mm512_add_epi32(p0, p1);
  __m512i q = _mm512_add_epi32(q0, q1);
  if (accumulate) {
    p = _mm512_add_epi32(p, _mm512_loadu_si512(acc0));
    q = _mm512_add_epi32(q, _mm512_loadu_si512(acc1));
  }
  _mm512_storeu_si512(acc0, p);
  _mm512_storeu_si512(acc1, q);
}

namespace {

/// PX pixels of one 16-channel depthwise block (see dw_row_u8s16).
template <int PX>
[[gnu::always_inline]] inline void dw_row_px(const std::uint8_t* const* tap,
                                             std::int64_t taps,
                                             std::int64_t off,
                                             std::int64_t step,
                                             const std::int16_t* wb,
                                             std::int32_t* acc,
                                             std::int64_t cp) {
  __m256i lo[PX], hi[PX];
  for (int q = 0; q < PX; ++q) lo[q] = hi[q] = _mm256_setzero_si256();
  for (std::int64_t t = 0; t < taps; t += 2) {
    const std::uint8_t* a0 = tap[t] + off;
    const std::uint8_t* a1 = tap[t + 1 < taps ? t + 1 : t] + off;
    const __m256i wlo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wb + t * 16));
    const __m256i whi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(wb + t * 16 + 16));
    for (int q = 0; q < PX; ++q) {
      const __m128i x0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + q * step));
      const __m128i x1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + q * step));
      lo[q] = _mm256_dpwssd_epi32(
          lo[q], _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1)), wlo);
      hi[q] = _mm256_dpwssd_epi32(
          hi[q], _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1)), whi);
    }
  }
  for (int q = 0; q < PX; ++q) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + q * cp), lo[q]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + q * cp + 8), hi[q]);
  }
}

}  // namespace

void vnni_dw_row_u8s16(const std::uint8_t* const* tap, std::int64_t taps,
                       std::int64_t step, std::int64_t C,
                       const std::int16_t* bank, std::int64_t npix,
                       std::int32_t* acc) {
  const std::int64_t cp = (C + 15) / 16 * 16;
  const std::int64_t pairs = (taps + 1) / 2;
  for (std::int64_t cb = 0; cb < cp; cb += 16) {
    const std::int16_t* wb = bank + cb * pairs * 2;
    std::int64_t j = 0;
    for (; j + 4 <= npix; j += 4) {
      dw_row_px<4>(tap, taps, cb + j * step, step, wb, acc + j * cp + cb, cp);
    }
    for (; j < npix; ++j) {
      dw_row_px<1>(tap, taps, cb + j * step, step, wb, acc + j * cp + cb, cp);
    }
  }
}

namespace {

/// Pair steps widened per pass of the VNNI pair-panel kernel.
constexpr std::int64_t kS16ChunkPairs = 64;

/// R rows against one 16-channel pair-panel block over padded K [k0, k1):
/// sum[r] gets the 16 channel sums. Four dependency chains per row cover
/// vpdpwssd latency.
template <int R>
[[gnu::always_inline]] inline void s16_panel_mac(
    const std::uint8_t* const* a, const std::int64_t* stride,
    std::int64_t segp, const std::int16_t* block, std::int64_t k0,
    std::int64_t k1, __m512i* sum) {
  __m512i v[R][4];
  for (int r = 0; r < R; ++r) {
    v[r][0] = v[r][1] = v[r][2] = v[r][3] = _mm512_setzero_si512();
  }
  // The K range widens kS16ChunkPairs pairs at a time into `pairs`, one
  // masked load (no byte past a segment piece is read) and vpmovzxbw per
  // 32 bytes of a piece, stored at the piece's padded-K offset. A store's
  // zero tail past its piece is overwritten by the next piece, or lands in
  // the 16 spare dwords. The pair dwords are then broadcast from memory
  // into vpdpwssd.
  alignas(64) std::int32_t pairs[R][kS16ChunkPairs + 16];
  for (std::int64_t kc = k0; kc < k1; kc += 2 * kS16ChunkPairs) {
    const std::int64_t ke =
        k1 - kc < 2 * kS16ChunkPairs ? k1 : kc + 2 * kS16ChunkPairs;
    for (std::int64_t s = kc == 0 ? 0 : kc / segp, k = kc; k < ke; ++s) {
      const std::int64_t i = k - s * segp;
      const std::int64_t n = segp - i < ke - k ? segp - i : ke - k;
      for (std::int64_t c = 0; c < n; c += 32) {
        const std::int64_t len = n - c < 32 ? n - c : 32;
        const __mmask32 m = len == 32 ? ~0u : (1u << len) - 1u;
        for (int r = 0; r < R; ++r) {
          _mm512_storeu_si512(
              reinterpret_cast<std::int16_t*>(pairs[r]) + (k - kc) + c,
              _mm512_cvtepu8_epi16(
                  _mm256_maskz_loadu_epi8(m, a[r] + s * stride[r] + i + c)));
        }
      }
      k += n;
    }
    const std::int16_t* w = block + kc * 16;
    const std::int64_t np = (ke - kc) / 2;
    std::int64_t p = 0;
    for (; p + 4 <= np; p += 4) {
      for (int q = 0; q < 4; ++q) {
        const __m512i wq = _mm512_loadu_si512(w + (p + q) * 32);
        for (int r = 0; r < R; ++r) {
          v[r][q] = _mm512_dpwssd_epi32(v[r][q], wq,
                                        _mm512_set1_epi32(pairs[r][p + q]));
        }
      }
    }
    // Up to three tail pairs, one per chain (constant chain indices keep
    // the accumulators in registers).
    for (int q = 0; q < 3; ++q) {
      if (p + q < np) {
        const __m512i wq = _mm512_loadu_si512(w + (p + q) * 32);
        for (int r = 0; r < R; ++r) {
          v[r][q] = _mm512_dpwssd_epi32(v[r][q], wq,
                                        _mm512_set1_epi32(pairs[r][p + q]));
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    sum[r] = _mm512_add_epi32(_mm512_add_epi32(v[r][0], v[r][1]),
                              _mm512_add_epi32(v[r][2], v[r][3]));
  }
}

}  // namespace

namespace {

/// One 8-channel requant group of `npix` pixels; Full groups load and
/// store plainly, the tail group under mask m (no lane past n is touched).
template <bool Full>
[[gnu::always_inline]] inline void requant_group(
    const std::int32_t* acc, const std::int32_t* add, const std::int64_t* m0,
    const std::int64_t* shift, __m512i zyv, __m512i hiv, std::uint8_t* out,
    __mmask8 m, std::int64_t npix, std::int64_t acc_stride,
    std::int64_t out_stride) {
  const __m256i ad32 =
      Full ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add))
           : _mm256_maskz_loadu_epi32(m, add);
  const __m512i m0v =
      Full ? _mm512_loadu_si512(m0) : _mm512_maskz_loadu_epi64(m, m0);
  const __m512i sh =
      Full ? _mm512_loadu_si512(shift) : _mm512_maskz_loadu_epi64(m, shift);
  for (std::int64_t q = 0; q < npix; ++q) {
    const std::int32_t* a = acc + q * acc_stride;
    const __m256i a32 =
        Full ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a))
             : _mm256_maskz_loadu_epi32(m, a);
    // v = acc + add fits int32 by the plan's usability proof; vpmuldq
    // reads the (sign-extended) low dwords, so the product is the exact
    // 64-bit v * m0 (0 <= m0 < 2^31). The full-mask maskz forms compile to
    // the unmasked instructions (GCC folds the all-ones mask) but, unlike
    // the unmasked intrinsics, pass no undefined source vector, which
    // GCC 12 reports as -Wmaybe-uninitialized.
    const __m512i v =
        _mm512_maskz_cvtepi32_epi64(0xFF, _mm256_add_epi32(a32, ad32));
    __m512i y = _mm512_add_epi64(
        _mm512_maskz_srav_epi64(0xFF, _mm512_maskz_mul_epi32(0xFF, v, m0v),
                                sh),
        zyv);
    y = _mm512_maskz_min_epi64(
        0xFF, _mm512_maskz_max_epi64(0xFF, y, _mm512_setzero_si512()), hiv);
    // Codes are in [0, hi] <= 255: vpmovqb's truncation never loses bits.
    std::uint8_t* o = out + q * out_stride;
    if (Full) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(o),
                       _mm512_maskz_cvtepi64_epi8(0xFF, y));
    } else {
      _mm512_mask_cvtepi64_storeu_epi8(o, m, y);
    }
  }
}

}  // namespace

void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n, std::int64_t npix,
                     std::int64_t acc_stride, std::int64_t out_stride) {
  const __m512i zyv = _mm512_set1_epi64(zy);
  const __m512i hiv = _mm512_set1_epi64(hi);
  std::int64_t c = 0;
  for (; c + 8 <= n; c += 8) {
    requant_group<true>(acc + c, add + c, m0 + c, shift + c, zyv, hiv,
                        out + c, 0xFF, npix, acc_stride, out_stride);
  }
  if (c < n) {
    requant_group<false>(acc + c, add + c, m0 + c, shift + c, zyv, hiv,
                         out + c, static_cast<__mmask8>((1u << (n - c)) - 1u),
                         npix, acc_stride, out_stride);
  }
}

void vnni_gemm_s16(const std::uint8_t* a0, std::int64_t stride0,
                   const std::uint8_t* a1, std::int64_t stride1,
                   std::int64_t segp, const std::int16_t* block,
                   std::int64_t k0, std::int64_t k1, std::int32_t* acc0,
                   std::int32_t* acc1, int accumulate) {
  const std::uint8_t* a[2] = {a0, a1};
  const std::int64_t stride[2] = {stride0, stride1};
  std::int32_t* acc[2] = {acc0, acc1};
  const int rows = a1 == nullptr ? 1 : 2;
  __m512i sum[2];
  if (rows == 1) {
    s16_panel_mac<1>(a, stride, segp, block, k0, k1, sum);
  } else {
    s16_panel_mac<2>(a, stride, segp, block, k0, k1, sum);
  }
  for (int r = 0; r < rows; ++r) {
    if (accumulate) {
      sum[r] = _mm512_add_epi32(sum[r], _mm512_loadu_si512(acc[r]));
    }
    _mm512_storeu_si512(acc[r], sum[r]);
  }
}

#else  // !MIXQ_VNNI_NATIVE: portable bodies, identical arithmetic.

void vnni_gemm_x1(const std::uint8_t* a, const std::int8_t* block,
                  std::int64_t klen, std::int32_t* acc, int accumulate) {
  for (std::int64_t j = 0; j < 16; ++j) {
    std::int32_t s = accumulate ? acc[j] : 0;
    for (std::int64_t k = 0; k < klen; ++k) {
      s += static_cast<std::int32_t>(a[k]) * block[blk_idx(k, j)];
    }
    acc[j] = s;
  }
}

void vnni_gemm_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int8_t* block, std::int64_t klen,
                  std::int32_t* acc0, std::int32_t* acc1, int accumulate) {
  vnni_gemm_x1(a0, block, klen, acc0, accumulate);
  vnni_gemm_x1(a1, block, klen, acc1, accumulate);
}

void vnni_dw_row_u8s16(const std::uint8_t* const* tap, std::int64_t taps,
                       std::int64_t step, std::int64_t C,
                       const std::int16_t* bank, std::int64_t npix,
                       std::int32_t* acc) {
  dw_row_u8s16(tap, taps, step, C, bank, npix, acc);
}

void vnni_gemm_s16(const std::uint8_t* a0, std::int64_t stride0,
                   const std::uint8_t* a1, std::int64_t stride1,
                   std::int64_t segp, const std::int16_t* block,
                   std::int64_t k0, std::int64_t k1, std::int32_t* acc0,
                   std::int32_t* acc1, int accumulate) {
  gemm_s16(a0, stride0, a1, stride1, segp, block, k0, k1, acc0, acc1,
           accumulate != 0);
}

void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n, std::int64_t npix,
                     std::int64_t acc_stride, std::int64_t out_stride) {
  for (std::int64_t q = 0; q < npix; ++q) {
    for (std::int64_t c = 0; c < n; ++c) {
      out[q * out_stride + c] = static_cast<std::uint8_t>(requant_icn_one(
          static_cast<std::int64_t>(acc[q * acc_stride + c]) + add[c], m0[c],
          shift[c], zy, hi));
    }
  }
}

#endif  // MIXQ_VNNI_NATIVE

}  // namespace mixq::runtime::simd
