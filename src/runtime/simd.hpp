// mixq/runtime/simd.hpp
//
// SIMD dispatch layer for the planned execution engine's hot loops. The
// ISA is selected at *compile time* from the compiler's target flags:
// AVX2 when the build targets it (-march=x86-64-v3, MIXQ_ENABLE_NATIVE),
// scalar otherwise -- exactly the tiers CI builds and runs (the AVX-512
// VNNI tier lives in simd_vnni.hpp). A cached *runtime* capability check
// (`enabled()`) routes each kernel to its scalar body when the CPU lacks
// AVX2. The runtime check is defense in depth, not a portability
// guarantee: when the whole binary is compiled with -march=x86-64-v3 the
// compiler may emit AVX2 anywhere, including the fallback loops, so
// binaries must still run on hardware that supports their compile target.
//
// Bit-exactness contract: each kernel computes exactly the same integers as
// its scalar reference. All integer kernels here are only used on values
// where 32-bit accumulation provably cannot overflow (plan.cpp selects them
// via phi_bound < 2^30), so re-associating the sums across SIMD lanes
// cannot change the result; the requantization kernel reproduces
// floor((v * m0) >> shift) exactly via a bias trick (see requant_icn).
// Enforced by tests/runtime/simd_test.cpp against the scalar references and
// transitively by every randomized exactness suite over the planned engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#define MIXQ_SIMD_AVX2 1
#endif

namespace mixq::runtime::simd {

/// ISA the translation units of this binary were compiled for.
constexpr const char* compiled_isa() {
#if defined(MIXQ_SIMD_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

/// Whether the CPU executing this binary supports the compiled ISA.
/// Best-effort (see the file comment: globally targeted builds can emit
/// vector instructions outside these kernels). Scalar builds always return
/// true.
bool cpu_supports_compiled_isa();

/// Cached runtime switch every kernel branches on; the branch is perfectly
/// predicted and costs nothing against the vector loop bodies.
inline bool enabled() {
  static const bool ok = cpu_supports_compiled_isa();
  return ok;
}

/// ISA actually driving the kernels at runtime: compiled_isa() when the
/// capability check passes, "scalar" otherwise.
const char* active_isa();

// ---------------------------------------------------------------------------
// Elementwise multiply-accumulate / accumulate (depthwise interior, pool).
// ---------------------------------------------------------------------------

/// acc[i] += x[i] * w[i] for i in [0, n).
inline void mac_i32(std::int32_t* __restrict__ acc,
                    const std::int32_t* __restrict__ x,
                    const std::int32_t* __restrict__ w, std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
      a = _mm256_add_epi32(a, _mm256_mullo_epi32(xv, wv));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
    }
    for (; i < n; ++i) acc[i] += x[i] * w[i];
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) acc[i] += x[i] * w[i];
}

/// acc[i] += x[i] for i in [0, n) (global-average-pool row accumulate).
inline void add_i32(std::int32_t* __restrict__ acc,
                    const std::int32_t* __restrict__ x, std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i xv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                          _mm256_add_epi32(a, xv));
    }
    for (; i < n; ++i) acc[i] += x[i];
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) acc[i] += x[i];
}

/// Depthwise per-pixel dot across channels, tap-major:
///   acc[c] = sum_t x[toff[t] + c] * wt[t*C + c],  c in [0, C).
/// The channel block is the outer loop so the accumulator vector stays in
/// a register across all taps (one store per 8 channels instead of one
/// load+store per tap).
inline void dw_dot_i32(const std::int32_t* __restrict__ x,
                       const std::int64_t* __restrict__ toff,
                       const std::int32_t* __restrict__ wt, std::int64_t taps,
                       std::int64_t C, std::int32_t* __restrict__ acc) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    std::int64_t c = 0;
    for (; c + 8 <= C; c += 8) {
      __m256i a = _mm256_setzero_si256();
      for (std::int64_t t = 0; t < taps; ++t) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(x + toff[t] + c));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wt + t * C + c));
        a = _mm256_add_epi32(a, _mm256_mullo_epi32(xv, wv));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), a);
    }
    for (; c < C; ++c) {
      std::int32_t s = 0;
      for (std::int64_t t = 0; t < taps; ++t) {
        s += x[toff[t] + c] * wt[t * C + c];
      }
      acc[c] = s;
    }
    return;
  }
#endif
  for (std::int64_t c = 0; c < C; ++c) {
    std::int32_t s = 0;
    for (std::int64_t t = 0; t < taps; ++t) {
      s += x[toff[t] + c] * wt[t * C + c];
    }
    acc[c] = s;
  }
}

// ---------------------------------------------------------------------------
// Register-blocked integer dot products (GEMM micro-kernel). The block
// shape is 4 output channels x 8 int32 lanes (x 2 rows in the widest
// variant); all variants *accumulate into* their out slots.
// ---------------------------------------------------------------------------

#if defined(MIXQ_SIMD_AVX2)
namespace detail {
/// Reduce four 8-lane accumulators to their four scalar sums, in order.
inline __m128i hsum4_epi32(__m256i v0, __m256i v1, __m256i v2, __m256i v3) {
  const __m256i s01 = _mm256_hadd_epi32(v0, v1);
  const __m256i s23 = _mm256_hadd_epi32(v2, v3);
  const __m256i s = _mm256_hadd_epi32(s01, s23);
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}
}  // namespace detail
#endif

/// out[j] += sum_k a[k] * wj[k] for the four weight rows w0..w3.
inline void dot1x4_i32(const std::int32_t* __restrict__ a,
                       const std::int32_t* __restrict__ w0,
                       const std::int32_t* __restrict__ w1,
                       const std::int32_t* __restrict__ w2,
                       const std::int32_t* __restrict__ w3, std::int64_t n,
                       std::int32_t* __restrict__ out) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256(), a3 = _mm256_setzero_si256();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m256i av =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
      a0 = _mm256_add_epi32(
          a0, _mm256_mullo_epi32(av, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(w0 + k))));
      a1 = _mm256_add_epi32(
          a1, _mm256_mullo_epi32(av, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(w1 + k))));
      a2 = _mm256_add_epi32(
          a2, _mm256_mullo_epi32(av, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(w2 + k))));
      a3 = _mm256_add_epi32(
          a3, _mm256_mullo_epi32(av, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(w3 + k))));
    }
    alignas(16) std::int32_t s[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(s),
                    detail::hsum4_epi32(a0, a1, a2, a3));
    out[0] += s[0];
    out[1] += s[1];
    out[2] += s[2];
    out[3] += s[3];
    for (; k < n; ++k) {
      const std::int32_t av = a[k];
      out[0] += av * w0[k];
      out[1] += av * w1[k];
      out[2] += av * w2[k];
      out[3] += av * w3[k];
    }
    return;
  }
#endif
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int32_t av = a[k];
    s0 += av * w0[k];
    s1 += av * w1[k];
    s2 += av * w2[k];
    s3 += av * w3[k];
  }
  out[0] += s0;
  out[1] += s1;
  out[2] += s2;
  out[3] += s3;
}

/// Two-row variant: out0[j] += sum a0[k]*wj[k], out1[j] += sum a1[k]*wj[k].
/// Each weight row is loaded once and shared by both activation rows.
inline void dot2x4_i32(const std::int32_t* __restrict__ a0,
                       const std::int32_t* __restrict__ a1,
                       const std::int32_t* __restrict__ w0,
                       const std::int32_t* __restrict__ w1,
                       const std::int32_t* __restrict__ w2,
                       const std::int32_t* __restrict__ w3, std::int64_t n,
                       std::int32_t* __restrict__ out0,
                       std::int32_t* __restrict__ out1) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    __m256i r0c0 = _mm256_setzero_si256(), r0c1 = _mm256_setzero_si256();
    __m256i r0c2 = _mm256_setzero_si256(), r0c3 = _mm256_setzero_si256();
    __m256i r1c0 = _mm256_setzero_si256(), r1c1 = _mm256_setzero_si256();
    __m256i r1c2 = _mm256_setzero_si256(), r1c3 = _mm256_setzero_si256();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m256i av0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + k));
      const __m256i av1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + k));
      __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + k));
      r0c0 = _mm256_add_epi32(r0c0, _mm256_mullo_epi32(av0, wv));
      r1c0 = _mm256_add_epi32(r1c0, _mm256_mullo_epi32(av1, wv));
      wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w1 + k));
      r0c1 = _mm256_add_epi32(r0c1, _mm256_mullo_epi32(av0, wv));
      r1c1 = _mm256_add_epi32(r1c1, _mm256_mullo_epi32(av1, wv));
      wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w2 + k));
      r0c2 = _mm256_add_epi32(r0c2, _mm256_mullo_epi32(av0, wv));
      r1c2 = _mm256_add_epi32(r1c2, _mm256_mullo_epi32(av1, wv));
      wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w3 + k));
      r0c3 = _mm256_add_epi32(r0c3, _mm256_mullo_epi32(av0, wv));
      r1c3 = _mm256_add_epi32(r1c3, _mm256_mullo_epi32(av1, wv));
    }
    alignas(16) std::int32_t s0[4], s1[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(s0),
                    detail::hsum4_epi32(r0c0, r0c1, r0c2, r0c3));
    _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                    detail::hsum4_epi32(r1c0, r1c1, r1c2, r1c3));
    for (int j = 0; j < 4; ++j) {
      out0[j] += s0[j];
      out1[j] += s1[j];
    }
    for (; k < n; ++k) {
      const std::int32_t x0 = a0[k];
      const std::int32_t x1 = a1[k];
      out0[0] += x0 * w0[k];
      out0[1] += x0 * w1[k];
      out0[2] += x0 * w2[k];
      out0[3] += x0 * w3[k];
      out1[0] += x1 * w0[k];
      out1[1] += x1 * w1[k];
      out1[2] += x1 * w2[k];
      out1[3] += x1 * w3[k];
    }
    return;
  }
#endif
  dot1x4_i32(a0, w0, w1, w2, w3, n, out0);
  dot1x4_i32(a1, w0, w1, w2, w3, n, out1);
}

/// out += sum_k a[k] * w[k] (single-channel remainder).
inline std::int32_t dot_i32(const std::int32_t* __restrict__ a,
                            const std::int32_t* __restrict__ w,
                            std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    __m256i acc = _mm256_setzero_si256();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m256i av =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + k));
      acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(av, wv));
    }
    const __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
    const __m128i h = _mm_hadd_epi32(lo, lo);
    std::int32_t s = _mm_cvtsi128_si32(_mm_hadd_epi32(h, h));
    for (; k < n; ++k) s += a[k] * w[k];
    return s;
  }
#endif
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) s += a[k] * w[k];
  return s;
}

// ---------------------------------------------------------------------------
// Vectorized ICN requantization (Eq. 5 clamp path).
// ---------------------------------------------------------------------------

/// Per-layer requantization constants laid out channel-major for the
/// vector kernel. Built by the plan only when provably exact in this form:
/// ICN scheme, 32-bit accumulators, every shift = 31 - n0 in [0, 62], and
/// |phi + bq| plus the folded -Zx*wsum pre-add within int32 (see
/// ExecutionPlan). `add[c]` folds bq_c - Zx*wsum_c so the kernel consumes
/// the raw accumulator sum_k X*(W - Zw) directly.
struct RequantTable {
  std::vector<std::int64_t> m0;        ///< Q31 mantissa, one 64-bit lane each
  std::vector<std::int64_t> shift;     ///< 31 - n0, in [0, 62]
  std::vector<std::int64_t> bias_sub;  ///< (1 << 62) >> shift
  std::vector<std::int32_t> add;       ///< bq - Zx * wsum
  std::int32_t zy{0};
  std::int32_t hi{0};                  ///< qmax(qy)
  bool usable{false};
};

/// Scalar reference for one channel: clamp(zy + ((v * m0) >> shift), 0, hi)
/// with v = acc + add -- identical arithmetic to the plan's requantize()
/// (fixed_point_floor_mul specialised to shift in [0, 62]).
inline std::int32_t requant_icn_one(std::int64_t v, std::int64_t m0,
                                    std::int64_t shift, std::int32_t zy,
                                    std::int64_t hi) {
  const std::int64_t r = (v * m0) >> shift;
  const std::int64_t y = static_cast<std::int64_t>(zy) + r;
  return static_cast<std::int32_t>(y < 0 ? 0 : (y > hi ? hi : y));
}

/// Requantize channels [c0, c0 + n) of `npix` pixels that share one
/// channel table: out[q * out_stride + c] = code of raw accumulator
/// acc[q * acc_stride + c] with the pre-add rq.add[c0 + c], stored as i32
/// codes or packed u8 (every code is in [0, hi] with hi <= 255, so the u8
/// store never truncates). acc/out point AT the chunk; c0 offsets the
/// table only. The vector bodies load each channel group's table once and
/// walk the pixels under it.
///
/// The AVX2 body reproduces the arithmetic right shift exactly with
/// unsigned ops: |v*m0| < 2^62, so (v*m0 + 2^62) is non-negative and
/// (v*m0 + 2^62) >>logical s  ==  (v*m0 >>arith s) + (2^62 >> s)
/// because 2^62 is divisible by 2^s for every s <= 62.
template <typename OutT>
inline void requant_icn(const RequantTable& rq,
                        const std::int32_t* __restrict__ acc,
                        OutT* __restrict__ out, std::int64_t n,
                        std::int64_t c0 = 0, std::int64_t npix = 1,
                        std::int64_t acc_stride = 0,
                        std::int64_t out_stride = 0) {
  const std::int32_t* add = rq.add.data() + c0;
  const auto one = [&](std::int64_t q, std::int64_t c, std::int64_t v) {
    out[q * out_stride + c] = static_cast<OutT>(requant_icn_one(
        v, rq.m0[static_cast<std::size_t>(c0 + c)],
        rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
  };
  std::int64_t c = 0;
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << 62);
    const __m256i zyv = _mm256_set1_epi64x(rq.zy);
    const __m256i hiv = _mm256_set1_epi64x(rq.hi);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    for (; c + 4 <= n; c += 4) {
      const __m128i ad32 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(add + c));
      const __m256i m0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.m0.data() + c0 + c));
      const __m256i sh = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.shift.data() + c0 + c));
      const __m256i bs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.bias_sub.data() + c0 + c));
      for (std::int64_t q = 0; q < npix; ++q) {
        const __m128i a32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(acc + q * acc_stride + c));
        // v = acc + add fits int32 by the usability conditions.
        const __m256i v = _mm256_cvtepi32_epi64(_mm_add_epi32(a32, ad32));
        const __m256i prod = _mm256_mul_epi32(v, m0);
        const __m256i t = _mm256_srlv_epi64(_mm256_add_epi64(prod, bias), sh);
        __m256i y = _mm256_add_epi64(_mm256_sub_epi64(t, bs), zyv);
        y = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, y), y);
        y = _mm256_blendv_epi8(y, hiv, _mm256_cmpgt_epi64(y, hiv));
        const __m128i p32 =
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(y, pick));
        OutT* o = out + q * out_stride + c;
        if constexpr (std::is_same_v<OutT, std::uint8_t>) {
          const __m128i p16 = _mm_packus_epi32(p32, p32);
          const int word = _mm_cvtsi128_si32(_mm_packus_epi16(p16, p16));
          std::memcpy(o, &word, 4);
        } else {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(o), p32);
        }
      }
    }
  }
#endif
  for (; c < n; ++c) {
    for (std::int64_t q = 0; q < npix; ++q) {
      one(q, c, static_cast<std::int64_t>(acc[q * acc_stride + c]) + add[c]);
    }
  }
}

// ===========================================================================
// Narrow-domain kernels (u8 activations).
//
// The planned engine's INT8 execution domain stores activations as packed
// unsigned 8-bit codes (every post-ICN activation is an unsigned <= 8-bit
// code, so u8 always holds it) and weights in one of two narrow banks:
//
//   * s8 panel  -- zero-point-offset weights that provably fit int8 AND
//     whose adjacent-pair magnitude satisfies the widening-MAC bound
//       max over (oc, even k) of (|w[k]| + |w[k+1]|) * max_code(qx) <= 32767
//     run through a cache-blocked panel (K grouped in 4s, `gemm_u8s8_ocb()`
//     output channels interleaved per 4-byte group) so AVX2 executes
//     vpmaddubsw -> vpmaddwd -> vpaddd: 32 8-bit MACs per instruction
//     sequence with the intermediate i16 pair sums proven exact by the
//     bound above (the plan's eligibility prover enforces it; these
//     kernels assume it).
//   * s16 pair panel -- any narrow layer's offset weights fit int16
//     unconditionally (|w - Zw| <= 255); activation pairs widen u8 -> i16
//     and vpmaddwd's i16 x i16 -> i32 pair products are always exact
//     (|x*w| <= 255*255, pair sum < 2^31).
//
// Every kernel here is bit-exact against its scalar reference: i32
// accumulation is only used where the plan proved phi_bound < 2^30 (so
// re-association across lanes is exact), and the i16 stages are covered by
// the bounds above. Enforced by tests/runtime/simd_test.cpp, including
// adversarial data sitting exactly on the pair bound.
// ===========================================================================

inline std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

// ---------------------------------------------------------------------------
// u8 x s8 panel GEMM micro-kernel.
// ---------------------------------------------------------------------------

/// Output channels interleaved per panel block: 8 i32 lanes on AVX2, 4 on
/// scalar builds. Compile-time constant so the pack layout and the kernels
/// always agree within one binary.
constexpr std::int64_t gemm_u8s8_ocb() {
#if defined(MIXQ_SIMD_AVX2)
  return 8;
#else
  return 4;
#endif
}

/// K padded to the 4-byte group size of the panel.
inline std::int64_t gemm_u8s8_kp(std::int64_t K) { return round_up(K, 4); }

/// Panel capacity in bytes for a co x K weight matrix.
inline std::int64_t gemm_u8s8_panel_elems(std::int64_t co, std::int64_t K) {
  return round_up(co, gemm_u8s8_ocb()) * gemm_u8s8_kp(K);
}

/// Byte index of weight (oc, k) inside the packed panel -- the layout
/// contract shared by pack, the scalar fallbacks, and the tests:
/// blocks of `ocb` output channels; within a block, K in groups of 4 with
/// each channel's 4 bytes contiguous.
inline std::int64_t gemm_u8s8_index(std::int64_t kp, std::int64_t oc,
                                    std::int64_t k) {
  const std::int64_t ocb = gemm_u8s8_ocb();
  return (oc / ocb) * ocb * kp + (k / 4) * ocb * 4 + (oc % ocb) * 4 + k % 4;
}

/// Pack offset int32 weights (co rows of K, row-major) into the s8 panel.
/// Caller guarantees every value fits int8; pad lanes/groups are zero.
inline void gemm_u8s8_pack(const std::int32_t* w, std::int64_t co,
                           std::int64_t K, std::int8_t* panel) {
  const std::int64_t kp = gemm_u8s8_kp(K);
  std::fill(panel, panel + gemm_u8s8_panel_elems(co, K), std::int8_t{0});
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t k = 0; k < K; ++k) {
      panel[gemm_u8s8_index(kp, oc, k)] =
          static_cast<std::int8_t>(w[oc * K + k]);
    }
  }
}

/// One activation row against one panel block: acc[j] = sum_k a[k] *
/// W[block_oc j][k] for the block's `ocb` channels (overwrites acc;
/// `accumulate` adds into it instead -- the K-blocked GEMM's partial sums).
/// `a` must be readable for kp bytes (the plan's u8 arenas carry slack).
inline void gemm_u8s8_x1(const std::uint8_t* __restrict__ a,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc,
                         bool accumulate = false) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i av_acc =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc))
                   : _mm256_setzero_si256();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + k * 8));
      std::uint32_t u;
      std::memcpy(&u, a + k, 4);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(u));
      av_acc = _mm256_add_epi32(
          av_acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), av_acc);
    return;
  }
#endif
  const std::int64_t ocb = gemm_u8s8_ocb();
  for (std::int64_t j = 0; j < ocb; ++j) {
    std::int32_t s = 0;
    for (std::int64_t k = 0; k < kp; ++k) {
      s += static_cast<std::int32_t>(a[k]) *
           block[(k / 4) * ocb * 4 + j * 4 + k % 4];
    }
    acc[j] = accumulate ? acc[j] + s : s;
  }
}

/// Two-row variant: each 32-byte weight group is loaded once and shared by
/// both activation rows (the panel GEMM's steady-state shape).
inline void gemm_u8s8_x2(const std::uint8_t* __restrict__ a0,
                         const std::uint8_t* __restrict__ a1,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc0,
                         std::int32_t* __restrict__ acc1,
                         bool accumulate = false) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i v0 =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0))
                   : _mm256_setzero_si256();
    __m256i v1 =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1))
                   : _mm256_setzero_si256();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + k * 8));
      std::uint32_t u0, u1;
      std::memcpy(&u0, a0 + k, 4);
      std::memcpy(&u1, a1 + k, 4);
      const __m256i av0 = _mm256_set1_epi32(static_cast<int>(u0));
      const __m256i av1 = _mm256_set1_epi32(static_cast<int>(u1));
      v0 = _mm256_add_epi32(
          v0, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, wv), ones));
      v1 = _mm256_add_epi32(
          v1, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, wv), ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1), v1);
    return;
  }
#endif
  gemm_u8s8_x1(a0, block, kp, acc0, accumulate);
  gemm_u8s8_x1(a1, block, kp, acc1, accumulate);
}

// ---------------------------------------------------------------------------
// u8 x s16 pair-panel GEMM micro-kernel (weights that miss the s8 panel).
//
// Layout: output channels in blocks of 16; within a block, the padded K
// runs as (w[2k], w[2k+1]) pairs, one pair per channel, so a K step is 32
// contiguous i16. Each step broadcasts one widened activation pair to every
// i32 lane and vpmaddwd (vpdpwssd on the VNNI tier) multiply-accumulates it
// into 16 channel lanes: no horizontal sums. The padded K is `nseg`
// segments of `segp` = round_up(seg, 2) bytes -- one segment per kernel
// row for a KxK conv, one for a GEMM/linear row -- so a conv's A operand
// is its kernel rows read in place, `stride` bytes apart (interior pixels
// point straight into the input tensor). A segment's pad byte multiplies a
// zero weight. Exact for any u8 x s16 operands: each pair product sum is at
// most 2 * 255 * 32767 < 2^31, and the plan's phi_bound < 2^30 covers the
// i32 accumulation.
// ---------------------------------------------------------------------------

/// Output channels per pair-panel block (one zmm of i32, two ymm).
constexpr std::int64_t gemm_s16_ocb() { return 16; }

/// Panel capacity in i16 for co channels over padded depth kp.
inline std::int64_t gemm_s16_panel_elems(std::int64_t co, std::int64_t kp) {
  return round_up(co, gemm_s16_ocb()) * kp;
}

/// Index of weight (oc, padded k) inside the pair panel -- the layout
/// contract shared by pack, every kernel body and the tests.
inline std::int64_t gemm_s16_index(std::int64_t kp, std::int64_t oc,
                                   std::int64_t k) {
  const std::int64_t ocb = gemm_s16_ocb();
  return (oc / ocb) * ocb * kp + (k / 2) * ocb * 2 + (oc % ocb) * 2 + k % 2;
}

/// Pack offset int32 weights (co rows of nseg * seg, row-major) into the
/// pair panel: weight (oc, s*seg + i) lands at padded k = s*segp + i. Pad
/// lanes, pad bytes and pad channels are zero.
inline void gemm_s16_pack(const std::int32_t* w, std::int64_t co,
                          std::int64_t nseg, std::int64_t seg,
                          std::int16_t* panel) {
  const std::int64_t segp = round_up(seg, 2);
  const std::int64_t kp = nseg * segp;
  std::fill(panel, panel + gemm_s16_panel_elems(co, kp), std::int16_t{0});
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t s = 0; s < nseg; ++s) {
      for (std::int64_t i = 0; i < seg; ++i) {
        panel[gemm_s16_index(kp, oc, s * segp + i)] =
            static_cast<std::int16_t>(w[(oc * nseg + s) * seg + i]);
      }
    }
  }
}

namespace detail {
/// Splits the padded-K range [k0, k1) (both even) into per-segment pieces,
/// calling f(s, i, k, n): padded [k, k + n) is bytes [i, i + n) of
/// segment s; n is even.
template <typename F>
inline void for_each_s16_piece(std::int64_t segp, std::int64_t k0,
                               std::int64_t k1, F&& f) {
  // k0 == 0 (every unblocked GEMM) skips the 64-bit division.
  for (std::int64_t s = k0 == 0 ? 0 : k0 / segp, k = k0; k < k1; ++s) {
    const std::int64_t i = k - s * segp;
    const std::int64_t n = std::min(segp - i, k1 - k);
    f(s, i, k, n);
    k += n;
  }
}

/// R activation rows against one 16-channel panel block.
template <int R>
inline void gemm_s16_rows(const std::uint8_t* const (&a)[R],
                          const std::int64_t (&stride)[R], std::int64_t segp,
                          const std::int16_t* __restrict__ block,
                          std::int64_t k0, std::int64_t k1,
                          std::int32_t* const (&acc)[R], bool accumulate) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    __m256i lo[R], hi[R];
    for (int r = 0; r < R; ++r) {
      lo[r] = accumulate
                  ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc[r]))
                  : _mm256_setzero_si256();
      hi[r] = accumulate ? _mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(acc[r] + 8))
                         : _mm256_setzero_si256();
    }
    // Activations widen 16 bytes (8 pairs) at a time into `pairs`, whose
    // dwords are then broadcast straight from memory. The 16-byte load may
    // read up to 14 bytes past a piece; the plan's u8 arenas and im2col
    // tile carry kArenaU8Slack for it, and those bytes are never used.
    alignas(32) std::int32_t pairs[R][8];
    for_each_s16_piece(segp, k0, k1, [&](std::int64_t s, std::int64_t i,
                                         std::int64_t k, std::int64_t n) {
      for (std::int64_t c = 0; c < n; c += 16) {
        for (int r = 0; r < R; ++r) {
          _mm256_store_si256(
              reinterpret_cast<__m256i*>(pairs[r]),
              _mm256_cvtepu8_epi16(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(a[r] + s * stride[r] + i +
                                                   c))));
        }
        const std::int16_t* w = block + (k + c) * 16;
        const std::int64_t np = std::min<std::int64_t>(8, (n - c) / 2);
        for (std::int64_t p = 0; p < np; ++p) {
          const __m256i w0 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p * 32));
          const __m256i w1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w + p * 32 + 16));
          for (int r = 0; r < R; ++r) {
            const __m256i x = _mm256_set1_epi32(pairs[r][p]);
            lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(x, w0));
            hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(x, w1));
          }
        }
      }
    });
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[r]), lo[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[r] + 8), hi[r]);
    }
    return;
  }
#endif
  for (int r = 0; r < R; ++r) {
    std::int32_t sum[16];
    for (std::int64_t j = 0; j < 16; ++j) sum[j] = accumulate ? acc[r][j] : 0;
    for_each_s16_piece(segp, k0, k1, [&](std::int64_t s, std::int64_t i,
                                         std::int64_t k, std::int64_t n) {
      const std::uint8_t* x = a[r] + s * stride[r] + i;
      const std::int16_t* w = block + k * 16;
      for (std::int64_t q = 0; q < n; q += 2, w += 32) {
        for (std::int64_t j = 0; j < 16; ++j) {
          sum[j] += static_cast<std::int32_t>(x[q]) * w[2 * j] +
                    static_cast<std::int32_t>(x[q + 1]) * w[2 * j + 1];
        }
      }
    });
    std::memcpy(acc[r], sum, sizeof(sum));
  }
}
}  // namespace detail

/// One or two activation rows (a1 == nullptr: one) against one pair-panel
/// block: acc_r[j] = sum over padded k in [k0, k1) (both even) of
/// A_r[k] * W[block j][k], row r's segment s being `segp` bytes at
/// a_r + s * stride_r (overwrites acc; `accumulate` adds into it instead --
/// the K-blocked GEMM's partial sums). `block` points at the block's first
/// pair; two rows share each weight load.
inline void gemm_s16(const std::uint8_t* a0, std::int64_t stride0,
                     const std::uint8_t* a1, std::int64_t stride1,
                     std::int64_t segp, const std::int16_t* block,
                     std::int64_t k0, std::int64_t k1, std::int32_t* acc0,
                     std::int32_t* acc1, bool accumulate = false) {
  if (a1 == nullptr) {
    detail::gemm_s16_rows<1>({a0}, {stride0}, segp, block, k0, k1, {acc0},
                             accumulate);
  } else {
    detail::gemm_s16_rows<2>({a0, a1}, {stride0, stride1}, segp, block, k0,
                             k1, {acc0, acc1}, accumulate);
  }
}

// ---------------------------------------------------------------------------
// Depthwise u8 row kernel: one call per output row. Channels run in blocks
// of 16; within a block the taps pair up, so one vpmaddwd reduces two taps
// per i32 lane. The bank is block-major: block b's pair p is 32 contiguous
// i16, (w[2p][c], w[2p+1][c]) per channel c (zero partner for an odd tap
// count, zero weights for pad channels), so a block's weights are one
// contiguous run.
// ---------------------------------------------------------------------------

/// Most taps a narrow depthwise layer may have (the row kernels' callers
/// keep one tap pointer each on the stack).
constexpr std::int64_t kDwMaxTaps = 64;

/// Number of tap pairs (odd tap counts pad with a zero-weight partner).
inline std::int64_t dw_pairs(std::int64_t taps) { return (taps + 1) / 2; }

/// Index of weight (channel c, tap t) inside the row kernels' bank.
inline std::int64_t dw_bank_index(std::int64_t pairs, std::int64_t c,
                                  std::int64_t t) {
  return ((c / 16) * pairs + t / 2) * 32 + (c % 16) * 2 + t % 2;
}

/// Bank capacity in i16: C rounded up to the 16-channel block.
inline std::int64_t dw_bank_elems(std::int64_t taps, std::int64_t C) {
  return round_up(C, 16) * dw_pairs(taps) * 2;
}

/// Pack channel-major offset weights (C rows of `taps`) into the bank.
inline void dw_pack_u8s16(const std::int32_t* w, std::int64_t taps,
                          std::int64_t C, std::int16_t* bank) {
  std::fill(bank, bank + dw_bank_elems(taps, C), std::int16_t{0});
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t t = 0; t < taps; ++t) {
      bank[dw_bank_index(dw_pairs(taps), c, t)] =
          static_cast<std::int16_t>(w[c * taps + t]);
    }
  }
}

#if defined(MIXQ_SIMD_AVX2)
namespace detail {
/// PX pixels of one 16-channel block; pixel q's tap t starts at
/// tap[t] + off + q * step, its sums land at acc + q * cp.
template <int PX>
inline void dw_row_px(const std::uint8_t* const* tap, std::int64_t taps,
                      std::int64_t off, std::int64_t step,
                      const std::int16_t* __restrict__ wb,
                      std::int32_t* __restrict__ acc, std::int64_t cp) {
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
      lo[q] = _mm256_add_epi32(
          lo[q], _mm256_madd_epi16(
                     _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1)), wlo));
      hi[q] = _mm256_add_epi32(
          hi[q], _mm256_madd_epi16(
                     _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1)), whi));
    }
  }
  for (int q = 0; q < PX; ++q) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + q * cp), lo[q]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + q * cp + 8), hi[q]);
  }
}
}  // namespace detail
#endif

/// One depthwise output row of `npix` pixels: acc[j * cp + c] = sum_t
/// tap[t][j * step + c] * w[t][c] for c < C, cp = round_up(C, 16). tap[t]
/// is pixel 0's window at tap t. The vector body computes whole 16-channel
/// blocks: it reads up to 15 bytes past a pixel's last channel (the
/// caller's rows carry slack) and leaves junk in acc's pad lanes, which no
/// caller reads.
inline void dw_row_u8s16(const std::uint8_t* const* tap, std::int64_t taps,
                         std::int64_t step, std::int64_t C,
                         const std::int16_t* bank, std::int64_t npix,
                         std::int32_t* acc) {
  const std::int64_t cp = round_up(C, 16);
  const std::int64_t pairs = dw_pairs(taps);
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    for (std::int64_t cb = 0; cb < cp; cb += 16) {
      const std::int16_t* wb = bank + cb * pairs * 2;
      std::int64_t j = 0;
      for (; j + 2 <= npix; j += 2) {
        detail::dw_row_px<2>(tap, taps, cb + j * step, step, wb,
                             acc + j * cp + cb, cp);
      }
      if (j < npix) {
        detail::dw_row_px<1>(tap, taps, cb + j * step, step, wb,
                             acc + j * cp + cb, cp);
      }
    }
    return;
  }
#endif
  for (std::int64_t j = 0; j < npix; ++j) {
    for (std::int64_t c = 0; c < C; ++c) {
      std::int32_t s = 0;
      for (std::int64_t t = 0; t < taps; ++t) {
        s += static_cast<std::int32_t>(tap[t][j * step + c]) *
             bank[dw_bank_index(pairs, c, t)];
      }
      acc[j * cp + c] = s;
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise narrow helpers (pool, head).
// ---------------------------------------------------------------------------

/// acc[i] += x[i] for u8 x (global-average-pool row accumulate).
inline void add_u8_i32(std::int32_t* __restrict__ acc,
                       const std::uint8_t* __restrict__ x, std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i xv = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i)));
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                          _mm256_add_epi32(a, xv));
    }
    for (; i < n; ++i) acc[i] += x[i];
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) acc[i] += x[i];
}

/// sum_k a[k] * w[k] with u8 activations against an int32 weight row (the
/// raw-logits head keeps its unpacked INT32 bank; only the activations are
/// narrow there).
inline std::int32_t dot_u8_i32(const std::uint8_t* __restrict__ a,
                               const std::int32_t* __restrict__ w,
                               std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    __m256i acc = _mm256_setzero_si256();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m256i av = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + k)));
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + k));
      acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(av, wv));
    }
    const __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                     _mm256_extracti128_si256(acc, 1));
    const __m128i h = _mm_hadd_epi32(lo, lo);
    std::int32_t s = _mm_cvtsi128_si32(_mm_hadd_epi32(h, h));
    for (; k < n; ++k) s += static_cast<std::int32_t>(a[k]) * w[k];
    return s;
  }
#endif
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    s += static_cast<std::int32_t>(a[k]) * w[k];
  }
  return s;
}

// ---------------------------------------------------------------------------
// Input quantization: code = clamp(lround(x / scale + zero), 0, hi).
//
// Bit-exact with core::quantize_value(kNearest) by construction: vdivps is
// the same correctly-rounded IEEE single division as the scalar `/`, and
// lround's round-half-away-from-zero differs from the hardware cvtps
// (round-half-to-even) only on exact .5 ties, which the vector path detects
// (x - rne(x) == +0.5 exactly) and bumps up by one. Negative ties round the
// other way under lround, but every candidate code there is <= 0 and the
// [0, hi] clamp collapses both answers to 0, so no fix-up is needed.
// Pre-clamping the scaled value into [-1, hi] in float space changes no
// final code (monotone + idempotent under the integer clamp) and keeps the
// int32 conversion in range for arbitrarily large inputs.
// ---------------------------------------------------------------------------

/// Scalar reference for one value (identical to core::quantize_value with
/// RoundMode::kNearest; restated here so the header stays self-contained).
inline std::int32_t quantize_f32_one(float x, float scale, std::int32_t zero,
                                     std::int32_t hi) {
  const float scaled = x / scale + static_cast<float>(zero);
  const std::int32_t code = static_cast<std::int32_t>(std::lround(scaled));
  return std::clamp(code, 0, hi);
}

#if defined(MIXQ_SIMD_AVX2)
namespace detail {
/// Eight input floats -> eight quantized codes in [0, hi].
inline __m256i quantize8_ps(__m256 v, __m256 vscale, __m256 vzero,
                            __m256 vhi, __m256 vlo, __m256 vhalf) {
  __m256 s = _mm256_add_ps(_mm256_div_ps(v, vscale), vzero);
  s = _mm256_min_ps(_mm256_max_ps(s, vlo), vhi);
  __m256i r = _mm256_cvtps_epi32(s);  // round-to-nearest-even
  const __m256 diff = _mm256_sub_ps(s, _mm256_cvtepi32_ps(r));
  // Exact positive tie: rne rounded down, lround goes away from zero.
  const __m256 tie = _mm256_cmp_ps(diff, vhalf, _CMP_EQ_OQ);
  r = _mm256_sub_epi32(r, _mm256_castps_si256(tie));  // mask is -1 -> +1
  r = _mm256_max_epi32(r, _mm256_setzero_si256());
  return _mm256_min_epi32(r, _mm256_cvtps_epi32(vhi));
}
}  // namespace detail
#endif

/// dst[i] = quantized code of x[i], packed to u8 (hi <= 255).
inline void quantize_f32_u8(const float* __restrict__ x, std::int64_t n,
                            float scale, std::int32_t zero, std::int32_t hi,
                            std::uint8_t* __restrict__ dst) {
  std::int64_t i = 0;
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vzero = _mm256_set1_ps(static_cast<float>(zero));
    const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
    const __m256 vlo = _mm256_set1_ps(-1.0f);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    for (; i + 8 <= n; i += 8) {
      const __m256i r = detail::quantize8_ps(_mm256_loadu_ps(x + i), vscale,
                                             vzero, vhi, vlo, vhalf);
      const __m128i lo = _mm256_castsi256_si128(r);
      const __m128i hi128 = _mm256_extracti128_si256(r, 1);
      const __m128i w = _mm_packs_epi32(lo, hi128);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packus_epi16(w, w));
    }
  }
#endif
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(quantize_f32_one(x[i], scale, zero, hi));
  }
}

/// dst[i] = quantized code of x[i], stored as i32 (wide-domain input).
inline void quantize_f32_i32(const float* __restrict__ x, std::int64_t n,
                             float scale, std::int32_t zero, std::int32_t hi,
                             std::int32_t* __restrict__ dst) {
  std::int64_t i = 0;
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vzero = _mm256_set1_ps(static_cast<float>(zero));
    const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
    const __m256 vlo = _mm256_set1_ps(-1.0f);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    for (; i + 8 <= n; i += 8) {
      const __m256i r = detail::quantize8_ps(_mm256_loadu_ps(x + i), vscale,
                                             vzero, vhi, vlo, vhalf);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), r);
    }
  }
#endif
  for (; i < n; ++i) {
    dst[i] = quantize_f32_one(x[i], scale, zero, hi);
  }
}

}  // namespace mixq::runtime::simd
