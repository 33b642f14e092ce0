// mixq/runtime/simd_vnni.hpp
//
// AVX-512 VNNI kernel tier: u8 x s8 panel GEMM through vpdpbusd (64 8-bit
// MACs per instruction, accumulating straight into i32 lanes -- no
// intermediate i16 pair sums, so the AVX2 panel's
// max(|w[2k]| + |w[2k+1]|) * qmax(qx) <= 32767 eligibility bound does not
// apply), vpdpwssd bodies for the s16 banks the AVX2 kernels use (the
// u8 x s16 pair-panel GEMM and the depthwise row kernel), and an
// exact-arithmetic-shift requantizer (vpsravq needs no unsigned bias
// trick).
//
// ODR / miscompile isolation: this header carries DECLARATIONS ONLY -- no
// inline kernels. The implementations live in simd_vnni.cpp, the one
// translation unit compiled with -mavx512{f,bw,vl,vnni} appended to the
// baseline flags (CMake per-source COMPILE_OPTIONS); every other TU stays
// at x86-64-v3, which both sidesteps the GCC 12.2 AVX-512 struct-copy
// miscompile documented in the top-level CMakeLists.txt and keeps the
// inline kernels of simd.hpp compiling identically in every TU. When the
// toolchain cannot target VNNI (MIXQ_HAS_AVX512VNNI compile check fails),
// the same TU builds portable scalar bodies instead -- bit-identical
// arithmetic, so forced-tier tests run everywhere.
//
// Signatures are deliberately struct-free (raw pointers and integers
// only): the flagged TU never copies a struct, the failure mode of the
// GCC 12 bug above.
//
// Runtime contract: when vnni_compiled() is true the kernel bodies execute
// AVX-512 instructions unconditionally; callers gate on vnni_enabled()
// (the plan's tier selection does). Kernels are bit-exact against the
// scalar references in simd.hpp -- asserted by
// tests/runtime/simd_vnni_test.cpp, including data beyond the i16 pair
// bound.
#pragma once

#include <cstdint>

namespace mixq::runtime::simd {

/// True when simd_vnni.cpp was built with real AVX-512 VNNI intrinsics
/// (MIXQ_HAS_AVX512VNNI passed and the per-file flags were applied).
bool vnni_compiled();

/// True when the host CPU reports avx512f+avx512bw+avx512vl+avx512vnni.
bool vnni_cpu();

/// Cached conjunction of the two: the plan consults this (once per tier
/// selection) exactly like simd::enabled() gates the AVX2 kernels.
bool vnni_enabled();

// ---------------------------------------------------------------------------
// Panel layout: same family as gemm_u8s8_* but 16 i32 lanes per block
// (one zmm of output channels). K grouped in 4s, each channel's 4 bytes
// contiguous within the group.
// ---------------------------------------------------------------------------

/// Output channels interleaved per panel block (16 = one zmm of i32).
std::int64_t vnni_ocb();

/// K padded to the 4-byte group size.
std::int64_t vnni_kp(std::int64_t K);

/// Panel capacity in bytes for a co x K weight matrix.
std::int64_t vnni_panel_elems(std::int64_t co, std::int64_t K);

/// Byte index of weight (oc, k) inside the packed panel.
std::int64_t vnni_index(std::int64_t kp, std::int64_t oc, std::int64_t k);

/// Pack offset int32 weights (co rows of K, row-major; caller proved they
/// fit int8) into the 16-lane panel. Pad lanes/groups are zero.
void vnni_pack(const std::int32_t* w, std::int64_t co, std::int64_t K,
               std::int8_t* panel);

// ---------------------------------------------------------------------------
// Kernels. `klen` is a 4-aligned K range; `block` points at the panel
// offset for that range ((k0/4)*ocb*4 into the block row). `accumulate`
// nonzero adds into acc instead of overwriting (K-blocked GEMM).
// ---------------------------------------------------------------------------

/// acc[j] (+)= sum_k a[k] * W[block j][k] for the block's 16 channels.
/// `a` must be readable for klen bytes (4-aligned; arena slack covers it).
void vnni_gemm_x1(const std::uint8_t* a, const std::int8_t* block,
                  std::int64_t klen, std::int32_t* acc, int accumulate);

/// Two-row variant: each 64-byte weight group is loaded once.
void vnni_gemm_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int8_t* block, std::int64_t klen,
                  std::int32_t* acc0, std::int32_t* acc1, int accumulate);

/// Depthwise output row over the dw_pack_u8s16 bank (16-channel blocks,
/// four pixels in flight on vpdpwssd): acc[j * cp + c] = sum_t
/// tap[t][j * step + c] * w[t][c], cp = C rounded up to 16. Same contract
/// (overread, junk pad lanes) as dw_row_u8s16 and bit-exact with it.
void vnni_dw_row_u8s16(const std::uint8_t* const* tap, std::int64_t taps,
                       std::int64_t step, std::int64_t C,
                       const std::int16_t* bank, std::int64_t npix,
                       std::int32_t* acc);

/// u8 x s16 pair panel (layout: gemm_s16_index in simd.hpp), one or two
/// rows (a1 == nullptr: one): acc_r[j] (+)= sum over padded k in [k0, k1)
/// (both even) of A_r[k] * W[block j][k], row r's segment s being `segp`
/// bytes at a_r + s * stride_r. One vpdpwssd per pair step and 16
/// channels, the pair broadcast from a widened copy; reads no byte past a
/// segment's padded end. Bit-exact with gemm_s16.
void vnni_gemm_s16(const std::uint8_t* a0, std::int64_t stride0,
                   const std::uint8_t* a1, std::int64_t stride1,
                   std::int64_t segp, const std::int16_t* block,
                   std::int64_t k0, std::int64_t k1, std::int32_t* acc0,
                   std::int32_t* acc1, int accumulate);

/// Requantize channels [0, n) of `npix` pixels: out[q * out_stride + c] =
/// clamp(zy + ((acc[q * acc_stride + c] + add[c]) * m0[c]) >>arith
/// shift[c], 0, hi) -- identical arithmetic to requant_icn_one. add/m0/
/// shift point at the RequantTable columns (callers offset them for
/// channel-blocked requant); each 8-channel group's table is loaded once
/// for all pixels. vpsravq is an exact arithmetic shift, so no 2^62 bias
/// trick is needed.
void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n, std::int64_t npix,
                     std::int64_t acc_stride, std::int64_t out_stride);

}  // namespace mixq::runtime::simd
