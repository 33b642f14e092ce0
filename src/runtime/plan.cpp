#include "runtime/plan.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "core/quantizer.hpp"
#include "core/thresholds.hpp"
#include "runtime/parallel.hpp"
#include "runtime/simd_vnni.hpp"

namespace mixq::runtime {

namespace {

/// Layers below this static MAC count are not worth the dispatch cost of
/// intra-layer row partitioning and run on the calling lane.
constexpr std::int64_t kIntraParMinMacs = 16384;

/// Local, inlinable replica of core::fixed_point_floor_mul -- identical
/// integer arithmetic (asserted bit-exact by the cross-check suites), but
/// visible to the optimizer inside the per-element requantize loops.
inline std::int64_t fp_floor_mul(std::int64_t v,
                                 const core::FixedPointMult& m) {
  const std::int64_t prod = v * static_cast<std::int64_t>(m.m0_q31);
  const int shift = 31 - static_cast<int>(m.n0);
  if (shift >= 0) {
    if (shift >= 63) return prod < 0 ? -1 : 0;
    return prod >> shift;
  }
  return prod << (-shift);
}

inline std::int32_t requantize(const QLayer& l, std::int64_t phi,
                               std::int64_t oc) {
  if (l.scheme == Scheme::kPCThresholds) {
    return core::threshold_eval(phi,
                                l.thresholds[static_cast<std::size_t>(oc)]);
  }
  const IcnChannel& ch = l.icn[static_cast<std::size_t>(oc)];
  const std::int64_t v = fp_floor_mul(phi + ch.bq, ch.m);
  const std::int64_t y = static_cast<std::int64_t>(l.zy) + v;
  const std::int64_t hi = core::qmax(l.qy);
  return static_cast<std::int32_t>(y < 0 ? 0 : (y > hi ? hi : y));
}

/// Output coordinates [lo, hi) whose full kernel extent is in bounds:
/// o*stride - pad >= 0 and o*stride - pad + k - 1 <= in - 1.
void interior_bounds(std::int64_t in, std::int64_t k, std::int64_t stride,
                     std::int64_t pad, std::int64_t out, std::int64_t& lo,
                     std::int64_t& hi) {
  lo = (pad + stride - 1) / stride;
  const std::int64_t num = in - k + pad;
  hi = num < 0 ? 0 : num / stride + 1;
  hi = std::min(hi, out);
  lo = std::min(lo, hi);
}

/// Requantize the channel chunk [c0, c0 + len) of `npix` output pixels of
/// raw int32 accumulators (sum X*(W-Zw)), pixel q's at acc + q * acc_stride
/// and its codes at o + q * co: the vectorized table when provably exact
/// (the VNNI requantizer on VNNI-tier layers, whose vpsravq needs no bias
/// trick), the scalar reference otherwise. `acc`/`o` point AT the chunk;
/// c0 offsets the per-channel tables. GEMM rows pass one pixel, depthwise
/// a whole output row. Bit-exact on every path; the u8 store never
/// truncates (codes are in [0, qmax(qy)] <= 255).
template <typename OutT>
inline void requant_chunk(const PlannedLayer& pl, const std::int32_t* acc,
                          OutT* o, std::int64_t c0, std::int64_t len,
                          std::int64_t npix = 1, std::int64_t acc_stride = 0) {
  const std::int64_t co = pl.layer->out_shape.c;
  if (pl.rq.usable) {
    if constexpr (std::is_same_v<OutT, std::uint8_t>) {
      if (pl.tier == KernelTier::kVnni) {
        simd::vnni_requant_u8(acc, pl.rq.add.data() + c0,
                              pl.rq.m0.data() + c0, pl.rq.shift.data() + c0,
                              pl.rq.zy, pl.rq.hi, o, len, npix, acc_stride,
                              co);
        return;
      }
    }
    simd::requant_icn(pl.rq, acc, o, len, c0, npix, acc_stride, co);
    return;
  }
  const QLayer& l = *pl.layer;
  const std::int64_t zx = l.zx;
  for (std::int64_t q = 0; q < npix; ++q) {
    for (std::int64_t j = 0; j < len; ++j) {
      const std::int64_t oc = c0 + j;
      o[q * co + j] = static_cast<OutT>(requantize(
          l, static_cast<std::int64_t>(acc[q * acc_stride + j]) -
                 zx * pl.wsum[oc],
          oc));
    }
  }
}

/// Whole-row requantize (the unblocked common case).
template <typename OutT>
inline void requant_row(const PlannedLayer& pl, const std::int32_t* acc,
                        OutT* o, std::int64_t co) {
  requant_chunk(pl, acc, o, 0, co);
}

/// Register-blocked integer GEMM over an im2col matrix A (rows [m0, m1) of
/// K raw input codes), INT32 accumulators (the plan proved them
/// overflow-free, which is also why SIMD re-association is exact). The
/// micro-kernel is 4 output channels x 8 int32 lanes (x 2 rows so each
/// weight vector load is shared); accumulator rows land in row_acc, then
/// requantize as a row. The input zero-point is folded in via the
/// precomputed full-kernel weight sums (every tap of a GEMM layer is
/// always valid).
template <typename OutT>
void gemm_rows_i32(const PlannedLayer& pl, const std::int32_t* A,
                   std::int64_t m0, std::int64_t m1, std::int64_t K,
                   OutT* out, std::int32_t* row_acc) {
  const std::int64_t co = pl.layer->wshape.co;
  const std::int32_t* W = pl.w.data();
  std::int64_t m = m0;
  for (; m + 2 <= m1; m += 2) {
    const std::int32_t* a0 = A + m * K;
    const std::int32_t* a1 = a0 + K;
    std::int32_t* acc0 = row_acc;
    std::int32_t* acc1 = row_acc + co;
    std::fill(row_acc, row_acc + 2 * co, 0);
    std::int64_t oc = 0;
    for (; oc + 4 <= co; oc += 4) {
      const std::int32_t* wr = W + oc * K;
      simd::dot2x4_i32(a0, a1, wr, wr + K, wr + 2 * K, wr + 3 * K, K,
                       acc0 + oc, acc1 + oc);
    }
    for (; oc < co; ++oc) {
      acc0[oc] = simd::dot_i32(a0, W + oc * K, K);
      acc1[oc] = simd::dot_i32(a1, W + oc * K, K);
    }
    requant_row(pl, acc0, out + m * co, co);
    requant_row(pl, acc1, out + (m + 1) * co, co);
  }
  for (; m < m1; ++m) {
    const std::int32_t* a = A + m * K;
    std::fill(row_acc, row_acc + co, 0);
    std::int64_t oc = 0;
    for (; oc + 4 <= co; oc += 4) {
      const std::int32_t* wr = W + oc * K;
      simd::dot1x4_i32(a, wr, wr + K, wr + 2 * K, wr + 3 * K, K,
                       row_acc + oc);
    }
    for (; oc < co; ++oc) row_acc[oc] = simd::dot_i32(a, W + oc * K, K);
    requant_row(pl, row_acc, out + m * co, co);
  }
}

/// INT64-accumulator GEMM fallback (fan-in too large for provably safe
/// INT32): plain scalar dots, requantized inline.
template <typename OutT>
void gemm_rows_i64(const PlannedLayer& pl, const std::int32_t* A,
                   std::int64_t m0, std::int64_t m1, std::int64_t K,
                   OutT* out) {
  const QLayer& l = *pl.layer;
  const std::int64_t co = l.wshape.co;
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();
  for (std::int64_t m = m0; m < m1; ++m) {
    const std::int32_t* __restrict__ a = A + m * K;
    OutT* o = out + m * co;
    for (std::int64_t oc = 0; oc < co; ++oc) {
      const std::int32_t* __restrict__ w0 = W + oc * K;
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < K; ++k) {
        acc += static_cast<std::int64_t>(a[k]) * w0[k];
      }
      o[oc] = static_cast<OutT>(
          requantize(l, acc - zx * pl.wsum[oc], oc));
    }
  }
}

/// General KxK convolution over output rows [r0, r1), interior/border
/// split, INT32 accumulators. Interior pixels accumulate all `co` channels
/// into row_acc (4-channel dot blocks, each tap row a contiguous kw*ci dot
/// product), then requantize as a row.
template <typename OutT>
void conv_rows_i32(const PlannedLayer& pl, const std::int32_t* x, OutT* y,
                   std::int64_t r0, std::int64_t r1, std::int32_t* row_acc) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t co = os.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t klen = kw * C;
  const std::int64_t per = l.wshape.per_channel();
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const bool row_interior = oh >= pl.oh0 && oh < pl.oh1;
    const std::int64_t ih0 = oh * stride - pad;
    OutT* orow = y + oh * os.w * co;
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      OutT* o = orow + ow * co;
      const std::int64_t iw0 = ow * stride - pad;
      if (row_interior && ow >= pl.ow0 && ow < pl.ow1) {
        const std::int32_t* xb = x + ih0 * row + iw0 * C;
        std::fill(row_acc, row_acc + co, 0);
        std::int64_t oc = 0;
        for (; oc + 4 <= co; oc += 4) {
          const std::int32_t* w0 = W + oc * per;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int32_t* xr = xb + ky * row;
            const std::int64_t wb = ky * klen;
            simd::dot1x4_i32(xr, w0 + wb, w0 + per + wb, w0 + 2 * per + wb,
                             w0 + 3 * per + wb, klen, row_acc + oc);
          }
        }
        for (; oc < co; ++oc) {
          const std::int32_t* w0 = W + oc * per;
          std::int32_t acc = 0;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            acc += simd::dot_i32(xb + ky * row, w0 + ky * klen, klen);
          }
          row_acc[oc] = acc;
        }
        requant_row(pl, row_acc, o, co);
      } else {
        // Border: the valid taps form a clamped rectangle, so the dot is
        // still contiguous per tap row and the Zx correction is a
        // rectangle sum over the precomputed tap sums.
        const std::int64_t ky0 = ih0 < 0 ? -ih0 : 0;
        const std::int64_t ky1 = std::min(kh, is.h - ih0);
        const std::int64_t kx0 = iw0 < 0 ? -iw0 : 0;
        const std::int64_t kx1 = std::min(kw, is.w - iw0);
        const std::int64_t seg = (kx1 - kx0) * C;
        for (std::int64_t oc = 0; oc < co; ++oc) {
          const std::int32_t* wch = W + oc * per;
          const std::int64_t* ts = pl.tap_sum.data() + oc * kh * kw;
          std::int32_t acc = 0;
          std::int64_t svalid = 0;
          for (std::int64_t ky = ky0; ky < ky1; ++ky) {
            const std::int32_t* xr = x + (ih0 + ky) * row + (iw0 + kx0) * C;
            const std::int32_t* wr = wch + (ky * kw + kx0) * C;
            acc += simd::dot_i32(xr, wr, seg);
            for (std::int64_t kx = kx0; kx < kx1; ++kx) {
              svalid += ts[ky * kw + kx];
            }
          }
          o[oc] = static_cast<OutT>(requantize(
              l, static_cast<std::int64_t>(acc) - zx * svalid, oc));
        }
      }
    }
  }
}

/// INT64-accumulator KxK convolution fallback over output rows [r0, r1).
template <typename OutT>
void conv_rows_i64(const PlannedLayer& pl, const std::int32_t* x, OutT* y,
                   std::int64_t r0, std::int64_t r1) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t co = os.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t klen = kw * C;
  const std::int64_t per = l.wshape.per_channel();
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const bool row_interior = oh >= pl.oh0 && oh < pl.oh1;
    const std::int64_t ih0 = oh * stride - pad;
    OutT* orow = y + oh * os.w * co;
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      OutT* o = orow + ow * co;
      const std::int64_t iw0 = ow * stride - pad;
      const std::int64_t ky0 = ih0 < 0 ? -ih0 : 0;
      const std::int64_t ky1 = std::min(kh, is.h - ih0);
      const std::int64_t kx0 = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kx1 = std::min(kw, is.w - iw0);
      const bool interior = row_interior && ow >= pl.ow0 && ow < pl.ow1;
      const std::int64_t seg = (kx1 - kx0) * C;
      for (std::int64_t oc = 0; oc < co; ++oc) {
        const std::int32_t* wch = W + oc * per;
        std::int64_t acc = 0;
        if (interior) {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int32_t* xr = x + ih0 * row + iw0 * C + ky * row;
            const std::int32_t* wr = wch + ky * klen;
            for (std::int64_t k = 0; k < klen; ++k) {
              acc += static_cast<std::int64_t>(xr[k]) * wr[k];
            }
          }
          o[oc] = static_cast<OutT>(
              requantize(l, acc - zx * pl.wsum[oc], oc));
        } else {
          const std::int64_t* ts = pl.tap_sum.data() + oc * kh * kw;
          std::int64_t svalid = 0;
          for (std::int64_t ky = ky0; ky < ky1; ++ky) {
            const std::int32_t* xr = x + (ih0 + ky) * row + (iw0 + kx0) * C;
            const std::int32_t* wr = wch + (ky * kw + kx0) * C;
            for (std::int64_t k = 0; k < seg; ++k) {
              acc += static_cast<std::int64_t>(xr[k]) * wr[k];
            }
            for (std::int64_t kx = kx0; kx < kx1; ++kx) {
              svalid += ts[ky * kw + kx];
            }
          }
          o[oc] = static_cast<OutT>(requantize(l, acc - zx * svalid, oc));
        }
      }
    }
  }
}

/// Encodes a clamped depthwise tap window for the border-config lookup.
/// Degenerate (empty) windows clamp to 0 so the encoding stays
/// non-negative; both the plan builder and the kernel encode through here.
inline std::int64_t border_cfg_key(std::int64_t ky0, std::int64_t ky1,
                                   std::int64_t kx0, std::int64_t kx1) {
  if (ky1 < 0) ky1 = 0;
  if (kx1 < 0) kx1 = 0;
  return (((ky0 << 8 | ky1) << 8 | kx0) << 8) | kx1;
}

inline const std::int32_t* border_add_for(const PlannedLayer& pl,
                                          std::int64_t key) {
  for (std::size_t i = 0; i < pl.border_key.size(); ++i) {
    if (pl.border_key[i] == key) return pl.border_add[i].data();
  }
  return nullptr;
}

/// Wide-domain depthwise border pixel: per-channel scalar taps over the
/// clamped rectangle (AccT is the proven accumulator width).
template <typename AccT, typename OutT>
void depthwise_border_pixel(const PlannedLayer& pl, const std::int32_t* x,
                            OutT* o, std::int64_t ih0, std::int64_t iw0) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t row = is.w * C;
  const std::int64_t per = kh * kw;
  const std::int64_t zx = l.zx;
  const std::int64_t ky0 = ih0 < 0 ? -ih0 : 0;
  const std::int64_t ky1 = std::min(kh, is.h - ih0);
  const std::int64_t kx0 = iw0 < 0 ? -iw0 : 0;
  const std::int64_t kx1 = std::min(kw, is.w - iw0);
  for (std::int64_t c = 0; c < C; ++c) {
    const std::int32_t* wch = pl.w.data() + c * per;
    const std::int64_t* ts = pl.tap_sum.data() + c * per;
    AccT acc = 0;
    std::int64_t svalid = 0;
    for (std::int64_t ky = ky0; ky < ky1; ++ky) {
      const std::int32_t* xr = x + (ih0 + ky) * row + c;
      for (std::int64_t kx = kx0; kx < kx1; ++kx) {
        acc += static_cast<AccT>(xr[(iw0 + kx) * C]) * wch[ky * kw + kx];
        svalid += ts[ky * kw + kx];
      }
    }
    o[c] = static_cast<OutT>(requantize(
        l, static_cast<std::int64_t>(acc) - zx * svalid, c));
  }
}

/// Depthwise interior with INT32 accumulators over output rows [r0, r1):
/// tap-major loop over the transposed weight bank, so every inner
/// iteration is a contiguous SIMD multiply-accumulate across channels.
template <typename OutT>
void depthwise_rows_i32(const PlannedLayer& pl, const std::int32_t* x,
                        OutT* y, std::int64_t r0, std::int64_t r1,
                        std::int32_t* __restrict__ acc) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t per = kh * kw;
  const std::int64_t* toff = pl.tap_off.data();
  const std::int32_t* wt = pl.wt.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const bool row_interior = oh >= pl.oh0 && oh < pl.oh1;
    const std::int64_t ih0 = oh * stride - pad;
    OutT* orow = y + oh * os.w * C;
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      OutT* o = orow + ow * C;
      const std::int64_t iw0 = ow * stride - pad;
      if (row_interior && ow >= pl.ow0 && ow < pl.ow1) {
        simd::dw_dot_i32(x + ih0 * row + iw0 * C, toff, wt, per, C, acc);
        requant_row(pl, acc, o, C);
      } else if (pl.rq.usable) {
        // Vector border: MAC the valid-tap rectangle across channels, add
        // the window's Zx term for its missing taps, then requantize.
        const std::int64_t ky0 = ih0 < 0 ? -ih0 : 0;
        const std::int64_t ky1 = std::min(kh, is.h - ih0);
        const std::int64_t kx0 = iw0 < 0 ? -iw0 : 0;
        const std::int64_t kx1 = std::min(kw, is.w - iw0);
        const std::int32_t* addv =
            border_add_for(pl, border_cfg_key(ky0, ky1, kx0, kx1));
        if (addv == nullptr) {
          depthwise_border_pixel<std::int32_t>(pl, x, o, ih0, iw0);
          continue;
        }
        std::fill(acc, acc + C, 0);
        for (std::int64_t ky = ky0; ky < ky1; ++ky) {
          for (std::int64_t kx = kx0; kx < kx1; ++kx) {
            simd::mac_i32(acc, x + (ih0 + ky) * row + (iw0 + kx) * C,
                          wt + (ky * kw + kx) * C, C);
          }
        }
        for (std::int64_t c = 0; c < C; ++c) acc[c] += addv[c];
        requant_row(pl, acc, o, C);
      } else {
        depthwise_border_pixel<std::int32_t>(pl, x, o, ih0, iw0);
      }
    }
  }
}

/// INT64-accumulator depthwise fallback over output rows [r0, r1).
template <typename OutT>
void depthwise_rows_i64(const PlannedLayer& pl, const std::int32_t* x,
                        OutT* y, std::int64_t r0, std::int64_t r1) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t per = l.spec.kh * l.spec.kw;
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();
  const std::int64_t* toff = pl.tap_off.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const bool row_interior = oh >= pl.oh0 && oh < pl.oh1;
    const std::int64_t ih0 = oh * stride - pad;
    OutT* orow = y + oh * os.w * C;
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      OutT* o = orow + ow * C;
      const std::int64_t iw0 = ow * stride - pad;
      if (row_interior && ow >= pl.ow0 && ow < pl.ow1) {
        const std::int32_t* xb = x + ih0 * row + iw0 * C;
        for (std::int64_t c = 0; c < C; ++c) {
          const std::int32_t* wch = W + c * per;
          std::int64_t acc = 0;
          for (std::int64_t t = 0; t < per; ++t) {
            acc += static_cast<std::int64_t>(xb[toff[t] + c]) * wch[t];
          }
          o[c] = static_cast<OutT>(
              requantize(l, acc - zx * pl.wsum[c], c));
        }
      } else {
        depthwise_border_pixel<std::int64_t>(pl, x, o, ih0, iw0);
      }
    }
  }
}

template <typename OutT>
void gap_plan(const PlannedLayer& pl, const std::int32_t* x, OutT* y,
              std::int32_t* row_acc) {
  // Raw codes, floor division: preserves scale and zero-point exactly as
  // the reference kernel does. Codes are non-negative, so the INT32
  // vector-accumulated path divides to the identical quotient.
  const QLayer& l = *pl.layer;
  const std::int64_t hw = l.in_shape.h * l.in_shape.w;
  const std::int64_t C = l.in_shape.c;
  if (pl.pool32) {
    std::fill(row_acc, row_acc + C, 0);
    for (std::int64_t r = 0; r < hw; ++r) {
      simd::add_i32(row_acc, x + r * C, C);
    }
    for (std::int64_t c = 0; c < C; ++c) {
      y[c] = static_cast<OutT>(row_acc[c] / hw);
    }
    return;
  }
  for (std::int64_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::int64_t r = 0; r < hw; ++r) sum += x[r * C + c];
    y[c] = static_cast<OutT>(sum / hw);
  }
}

// ---------------------------------------------------------------------------
// Narrow-domain (u8 activation) layer kernels.
// ---------------------------------------------------------------------------

/// u8 im2col row of the output pixel whose window starts at input (ih0,
/// iw0): kernel row ky lands at d + ky * sstride (kw*C bytes), out-of-bounds
/// taps filled with the input zero-point Zx -- algebraically identical to
/// the valid-tap rectangle sum because the requant pre-add folds the FULL
/// kernel weight sum: sum_pad Zx*w = Zx*(wsum - svalid). Gap bytes between
/// segments (sstride > kw*C) and up to kp are zeroed; they meet zero
/// weights.
void im2col8_pixel(const PlannedLayer& pl, const std::uint8_t* x,
                   std::uint8_t* d, std::int64_t sstride, std::int64_t ih0,
                   std::int64_t iw0) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t row = is.w * C;
  const std::int64_t seg = kw * C;
  const std::uint8_t zx = static_cast<std::uint8_t>(l.zx);

  // Small-C stems (e.g. a 3-channel 3x3 first layer) copy only a handful
  // of bytes per tap row; copy_row shortcuts those with two overlapping
  // word copies (exact coverage for 4..16 bytes, no over-read/over-write)
  // instead of paying the libc memcpy dispatch per call.
  const auto copy_row = [](std::uint8_t* dst, const std::uint8_t* src,
                           std::int64_t len) {
    if (len >= 8 && len <= 16) {
      std::uint64_t a, b;
      std::memcpy(&a, src, 8);
      std::memcpy(&b, src + len - 8, 8);
      std::memcpy(dst, &a, 8);
      std::memcpy(dst + len - 8, &b, 8);
    } else if (len >= 4 && len < 8) {
      std::uint32_t a, b;
      std::memcpy(&a, src, 4);
      std::memcpy(&b, src + len - 4, 4);
      std::memcpy(dst, &a, 4);
      std::memcpy(dst + len - 4, &b, 4);
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(len));
    }
  };

  // Clamp the kx range once; the valid middle is one contiguous copy.
  const std::int64_t kx0 = std::min(kw, iw0 < 0 ? -iw0 : 0);
  const std::int64_t kx1 = std::min(kw, is.w - iw0);
  for (std::int64_t ky = 0; ky < kh; ++ky, d += sstride) {
    const std::int64_t iy = ih0 + ky;
    if (iy < 0 || iy >= is.h) {
      std::memset(d, zx, static_cast<std::size_t>(seg));
    } else {
      if (kx0 > 0) std::memset(d, zx, static_cast<std::size_t>(kx0 * C));
      if (kx1 > kx0) {
        copy_row(d + kx0 * C, x + iy * row + (iw0 + kx0) * C,
                 (kx1 - kx0) * C);
      }
      if (kx1 < kw) {
        std::memset(d + (kx1 > kx0 ? kx1 : kx0) * C, zx,
                    static_cast<std::size_t>((kw - std::max(kx0, kx1)) * C));
      }
    }
    if (sstride > seg) {
      std::memset(d + seg, 0, static_cast<std::size_t>(sstride - seg));
    }
  }
  const std::int64_t tail = pl.kp - kh * sstride;
  if (tail > 0) std::memset(d, 0, static_cast<std::size_t>(tail));
}

/// u8 im2col for output pixels [m0, m1) of an s8-panel conv, written to a
/// row tile at `col` (pixel m lands at (m - m0) * kp, K contiguous). Each
/// lane gathers into its own tile, so intra-layer partitioning never
/// shares a destination.
void im2col8_rows(const PlannedLayer& pl, const std::uint8_t* x,
                  std::uint8_t* col, std::int64_t m0, std::int64_t m1) {
  const QLayer& l = *pl.layer;
  const std::int64_t ow_n = l.out_shape.w;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  // Output coordinates advance incrementally: a div/mod per pixel is a real
  // 64-bit division (runtime divisor) and dominated the gather for small-K
  // stems.
  std::int64_t oh = m0 / ow_n;
  std::int64_t ow = m0 % ow_n;
  for (std::int64_t m = m0; m < m1; ++m) {
    im2col8_pixel(pl, x, col + (m - m0) * pl.kp, l.spec.kw * l.in_shape.c,
                  oh * stride - pad, ow * stride - pad);
    if (++ow == ow_n) {
      ow = 0;
      ++oh;
    }
  }
}

/// One GEMM row's A operand: its padded-K segments, `stride` bytes apart
/// (the s8 panels read one contiguous row and ignore the stride).
struct ARow {
  const std::uint8_t* a;
  std::int64_t stride;
};

/// One channel block [cb, cb + ocb) of the narrow GEMM over padded K
/// [k0, k1), for one row (r1.a == nullptr) or two sharing each weight
/// load, on the layer's bank and plan-time tier: the s16 pair panel
/// (vpdpwssd on the VNNI tier, else vpmaddwd), the VNNI s8 panel
/// (vpdpbusd, no pair bound) or the AVX2-era s8 panel (i16-pair bound
/// proven). K blocks after the first accumulate exact i32 partial sums.
inline void panel_block(const PlannedLayer& pl, const ARow& r0,
                        const ARow& r1, std::int64_t cb, std::int64_t k0,
                        std::int64_t k1, std::int32_t* acc0,
                        std::int32_t* acc1) {
  const bool accum = k0 > 0;
  const bool vnni = pl.tier == KernelTier::kVnni;
  if (!pl.w16.empty()) {
    const std::int16_t* blk = pl.w16.data() + cb * pl.kp;
    if (vnni) {
      simd::vnni_gemm_s16(r0.a, r0.stride, r1.a, r1.stride, pl.segp, blk, k0,
                          k1, acc0, acc1, accum ? 1 : 0);
    } else {
      simd::gemm_s16(r0.a, r0.stride, r1.a, r1.stride, pl.segp, blk, k0, k1,
                     acc0, acc1, accum);
    }
    return;
  }
  const std::int8_t* blk = pl.w8.data() + cb * pl.kp + (k0 / 4) * pl.ocb * 4;
  const std::int64_t klen = k1 - k0;
  if (r1.a == nullptr) {
    if (vnni) {
      simd::vnni_gemm_x1(r0.a + k0, blk, klen, acc0, accum ? 1 : 0);
    } else {
      simd::gemm_u8s8_x1(r0.a + k0, blk, klen, acc0, accum);
    }
  } else if (vnni) {
    simd::vnni_gemm_x2(r0.a + k0, r1.a + k0, blk, klen, acc0, acc1,
                       accum ? 1 : 0);
  } else {
    simd::gemm_u8s8_x2(r0.a + k0, r1.a + k0, blk, klen, acc0, acc1, accum);
  }
}

/// Narrow GEMM over output pixels [m0, m1), two at a time. `row(m)` yields
/// pixel m's A operand and is called once per pixel, in increasing m; each
/// row must be readable for kp bytes (per segment: segp) plus the kernels'
/// overread, which the arena slack covers -- padded weights are zero, so
/// the extra products vanish exactly. Honours the autotuned K/N cache
/// blocking (pl.tile.kb / pl.tile.nb; 0 = unblocked): N-blocks requantize
/// each channel chunk as soon as its accumulators complete, so blocking is
/// bit-exact with the single-pass GEMM.
template <typename OutT, typename RowFn>
void gemm8_rows(const PlannedLayer& pl, RowFn&& row, std::int64_t m0,
                std::int64_t m1, OutT* out, std::int32_t* row_acc) {
  const std::int64_t co = pl.layer->wshape.co;
  const std::int64_t kp = pl.kp;
  const std::int64_t co_pad = pl.co_pad;
  const std::int64_t kb = pl.tile.kb > 0 ? pl.tile.kb : kp;
  const std::int64_t nb = pl.tile.nb > 0 ? pl.tile.nb : co_pad;
  std::int32_t* acc1 = row_acc + co_pad;
  for (std::int64_t m = m0; m < m1; m += 2) {
    const bool two = m + 1 < m1;
    const ARow r0 = row(m);
    const ARow r1 = two ? row(m + 1) : ARow{nullptr, 0};
    for (std::int64_t c0 = 0; c0 < co_pad; c0 += nb) {
      const std::int64_t c1 = std::min(co_pad, c0 + nb);
      for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
        const std::int64_t k1 = std::min(kp, k0 + kb);
        for (std::int64_t cb = c0; cb < c1; cb += pl.ocb) {
          panel_block(pl, r0, r1, cb, k0, k1, row_acc + cb, acc1 + cb);
        }
      }
      // One requant call for the pixel pair: acc1 sits co_pad after
      // row_acc, pixel m + 1's codes co after pixel m's.
      const std::int64_t len = std::min(c1, co) - c0;
      if (len > 0) {
        requant_chunk(pl, row_acc + c0, out + m * co + c0, c0, len,
                      two ? 2 : 1, co_pad);
      }
    }
  }
}

/// Row-blocked depthwise u8 kernel over output rows [r0, r1). Each input
/// row is copied once into this lane's halo ring -- kh slots of (W + 2 pad)
/// pixels with Zx-filled ends, then one Zx row that stands in for rows
/// outside the input -- so every output row is one row-kernel call over
/// Zx-padded windows and one requant call. Exact for the reason
/// im2col8_pixel's Zx fill is: the requant pre-add bq - Zx*wsum over a
/// padded window equals bq - Zx*svalid over the valid taps. The ring
/// starts cold on every call; pad == 0 reads the input rows in place.
template <typename OutT>
void depthwise8_rows(const PlannedLayer& pl, const std::uint8_t* x, OutT* y,
                     std::int64_t r0, std::int64_t r1, std::uint8_t* ring,
                     std::int32_t* acc) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t ow_n = l.out_shape.w;
  const std::int64_t row = is.w * C;
  const std::int64_t edge = pad * C;
  const std::int64_t prow = row + 2 * edge;
  const int zx = l.zx;
  // Unpadded layers have no ring (col8 may even be empty).
  std::uint8_t* zrow = pad > 0 ? ring + kh * prow : nullptr;
  if (pad > 0) std::memset(zrow, zx, static_cast<std::size_t>(prow));
  std::array<const std::uint8_t*, simd::kDwMaxTaps> tap;
  std::int64_t next = 0;  // input rows below `next` are already in the ring
  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const std::int64_t ih0 = oh * stride - pad;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = ih0 + ky;
      const std::uint8_t* src = zrow;
      if (pad == 0) {
        src = x + iy * row;
      } else if (iy >= 0 && iy < is.h) {
        std::uint8_t* slot = ring + (iy % kh) * prow;
        if (iy >= next) {
          std::memset(slot, zx, static_cast<std::size_t>(edge));
          std::memcpy(slot + edge, x + iy * row, static_cast<std::size_t>(row));
          std::memset(slot + edge + row, zx, static_cast<std::size_t>(edge));
        }
        src = slot;
      }
      for (std::int64_t kx = 0; kx < kw; ++kx) tap[ky * kw + kx] = src + kx * C;
    }
    next = ih0 + kh;
    if (pl.tier == KernelTier::kVnni) {
      simd::vnni_dw_row_u8s16(tap.data(), kh * kw, stride * C, C,
                              pl.wt16p.data(), ow_n, acc);
    } else {
      simd::dw_row_u8s16(tap.data(), kh * kw, stride * C, C, pl.wt16p.data(),
                         ow_n, acc);
    }
    requant_chunk(pl, acc, y + oh * ow_n * C, 0, C, ow_n,
                  simd::round_up(C, 16));
  }
}

/// Global average pool over u8 codes.
template <typename OutT>
void gap8_plan(const PlannedLayer& pl, const std::uint8_t* x, OutT* y,
               std::int32_t* row_acc) {
  const QLayer& l = *pl.layer;
  const std::int64_t hw = l.in_shape.h * l.in_shape.w;
  const std::int64_t C = l.in_shape.c;
  if (pl.pool32) {
    std::fill(row_acc, row_acc + C, 0);
    for (std::int64_t r = 0; r < hw; ++r) {
      simd::add_u8_i32(row_acc, x + r * C, C);
    }
    for (std::int64_t c = 0; c < C; ++c) {
      y[c] = static_cast<OutT>(row_acc[c] / hw);
    }
    return;
  }
  for (std::int64_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::int64_t r = 0; r < hw; ++r) sum += x[r * C + c];
    y[c] = static_cast<OutT>(sum / hw);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanArenas
// ---------------------------------------------------------------------------

PlanArenas::PlanArenas(const ExecutionPlan& plan, int lanes_in)
    : lanes(std::max(1, lanes_in)) {
  ping.resize(static_cast<std::size_t>(plan.ping_elems()));
  pong.resize(static_cast<std::size_t>(plan.pong_elems()));
  ping8.resize(static_cast<std::size_t>(arena_u8_padded(plan.ping8_elems())));
  pong8.resize(static_cast<std::size_t>(arena_u8_padded(plan.pong8_elems())));
  col.resize(static_cast<std::size_t>(plan.col_elems()));
  col8_per = arena_u8_padded(plan.col8_elems());
  col8.resize(static_cast<std::size_t>(col8_per * lanes));
  row_acc_per = plan.row_acc_elems();
  row_acc.resize(static_cast<std::size_t>(row_acc_per * lanes));
  logits.resize(static_cast<std::size_t>(plan.logit_elems()));
}

// ---------------------------------------------------------------------------
// ExecutionPlan
// ---------------------------------------------------------------------------

ExecutionPlan::ExecutionPlan(const QuantizedNet& net, PlanOptions opts)
    : net_(&net), opts_(opts) {
  net.validate();
  layers_.reserve(net.layers.size());

  // VNNI tier policy and the cache geometry feeding the tile auto-tuner,
  // resolved once per plan (both are host-stable).
  const bool vnni_want =
      opts.vnni == PlanOptions::Vnni::kForce ||
      (opts.vnni == PlanOptions::Vnni::kAuto && simd::vnni_enabled());
  const CacheInfo caches = detect_caches();

  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const QLayer& l = net.layers[i];
    PlannedLayer pl;
    pl.layer = &l;
    pl.src = static_cast<int>(i % 2);
    pl.dst = static_cast<int>((i + 1) % 2);

    switch (l.kind) {
      case QLayerKind::kConv:
        pl.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw * l.wshape.ci;
        break;
      case QLayerKind::kDepthwise:
        pl.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw;
        break;
      case QLayerKind::kLinear:
        pl.macs = l.wshape.co * l.wshape.per_channel();
        break;
      case QLayerKind::kGlobalAvgPool:
        pl.macs = 0;
        break;
    }

    if (l.kind != QLayerKind::kGlobalAvgPool) {
      // Land the whole weight bank in the pre-unpacked INT32 panel in one
      // sequential pass (rows are contiguous, so the bank-wide walk equals
      // the per-channel row walks), then pre-subtract the per-channel
      // zero-point. weight_codes_to_i32 bulk-unpacks raw packed banks and
      // STREAMING-DECODES entropy-coded (mmap'ed, still-compressed) banks
      // straight into the panel -- the unpacked image never exists
      // anywhere else.
      const std::int64_t per = l.wshape.per_channel();
      const std::int64_t co = l.wshape.co;
      pl.w.resize(static_cast<std::size_t>(l.weights_numel()));
      l.weight_codes_to_i32(pl.w.data());
      for (std::int64_t oc = 0; oc < co; ++oc) {
        const std::int32_t zw = l.zw_of(oc);
        if (zw != 0) {
          std::int32_t* wp = pl.w.data() + oc * per;
          for (std::int64_t k = 0; k < per; ++k) wp[k] -= zw;
        }
      }
      // Per-(channel, tap) sums of offset weights: the Zx correction terms.
      const bool convlike =
          l.kind == QLayerKind::kConv || l.kind == QLayerKind::kDepthwise;
      const std::int64_t taps = convlike ? l.spec.kh * l.spec.kw : 1;
      const std::int64_t tap_ci = per / taps;
      pl.tap_sum.assign(static_cast<std::size_t>(co * taps), 0);
      pl.wsum.assign(static_cast<std::size_t>(co), 0);
      for (std::int64_t oc = 0; oc < co; ++oc) {
        for (std::int64_t t = 0; t < taps; ++t) {
          std::int64_t s = 0;
          const std::int32_t* wp = pl.w.data() + oc * per + t * tap_ci;
          for (std::int64_t k = 0; k < tap_ci; ++k) s += wp[k];
          pl.tap_sum[static_cast<std::size_t>(oc * taps + t)] = s;
          pl.wsum[static_cast<std::size_t>(oc)] += s;
        }
      }
      // 32-bit accumulators are safe when every partial dot product is
      // bounded away from overflow (|sum| <= per * qmax(qx) * qmax(qw)).
      const std::int64_t bound = core::phi_bound(per, l.qx, l.qw);
      pl.acc32 = bound <= (std::int64_t{1} << 30);

      // Vectorized requantization table: usable only when the whole chain
      // (phi+bq within int32, folded pre-add within int32, shift in
      // [0, 62]) is provably exact in the vector form. The threshold
      // scheme and the raw-logits head keep the scalar path.
      if (pl.acc32 && !l.raw_logits && l.scheme != Scheme::kPCThresholds) {
        simd::RequantTable& rq = pl.rq;
        rq.zy = l.zy;
        rq.hi = static_cast<std::int32_t>(core::qmax(l.qy));
        rq.m0.reserve(static_cast<std::size_t>(co));
        rq.shift.reserve(static_cast<std::size_t>(co));
        rq.bias_sub.reserve(static_cast<std::size_t>(co));
        rq.add.reserve(static_cast<std::size_t>(co));
        bool ok = true;
        constexpr std::int64_t kI32Max = 2147483647;
        for (std::int64_t oc = 0; oc < co && ok; ++oc) {
          const IcnChannel& ch = l.icn[static_cast<std::size_t>(oc)];
          const std::int64_t shift = 31 - static_cast<std::int64_t>(ch.m.n0);
          const std::int64_t add64 =
              static_cast<std::int64_t>(ch.bq) -
              static_cast<std::int64_t>(l.zx) * pl.wsum[oc];
          ok = shift >= 0 && shift <= 62 && std::llabs(add64) <= kI32Max &&
               std::llabs(static_cast<std::int64_t>(ch.bq)) + bound <= kI32Max;
          if (!ok) break;
          rq.m0.push_back(ch.m.m0_q31);
          rq.shift.push_back(shift);
          rq.bias_sub.push_back((std::int64_t{1} << 62) >> shift);
          rq.add.push_back(static_cast<std::int32_t>(add64));
        }
        rq.usable = ok;
      }
    }

    if (l.kind == QLayerKind::kConv || l.kind == QLayerKind::kDepthwise) {
      interior_bounds(l.in_shape.h, l.spec.kh, l.spec.stride, l.spec.pad,
                      l.out_shape.h, pl.oh0, pl.oh1);
      interior_bounds(l.in_shape.w, l.spec.kw, l.spec.stride, l.spec.pad,
                      l.out_shape.w, pl.ow0, pl.ow1);
      pl.gemm = l.kind == QLayerKind::kConv && l.spec.kh == 1 &&
                l.spec.kw == 1 && l.spec.pad == 0;
    }

    if (l.kind == QLayerKind::kGlobalAvgPool) {
      pl.pool32 = l.in_shape.h * l.in_shape.w * core::qmax(l.qx) <=
                  std::int64_t{2147483647};
    }

    // -----------------------------------------------------------------
    // Narrow-domain eligibility prover + weight repacking.
    // -----------------------------------------------------------------
    if (l.kind == QLayerKind::kGlobalAvgPool || l.raw_logits) {
      // Pool and head carry no requantizing MAC kernel of their own; they
      // read whatever codes arrive, so narrow storage is always exact.
      pl.domain = opts.allow_i8 ? ExecDomain::kI8 : ExecDomain::kI32;
    } else if (opts.allow_i8 && pl.acc32 && pl.rq.usable &&
               (l.kind != QLayerKind::kDepthwise ||
                l.spec.kh * l.spec.kw <= simd::kDwMaxTaps)) {
      pl.domain = ExecDomain::kI8;
      const std::int64_t per = l.wshape.per_channel();
      const std::int64_t co = l.wshape.co;
      if (l.kind == QLayerKind::kDepthwise) {
        // Offset weights always fit i16 (|w - Zw| <= 255): the row
        // kernels' bank, tap pairs interleaved per 16-channel block
        // (vpmaddwd; the VNNI tier's vpdpwssd kernel reads the same bank).
        const std::int64_t taps = l.spec.kh * l.spec.kw;
        const std::int64_t C = l.in_shape.c;
        pl.wt16p.resize(
            static_cast<std::size_t>(simd::dw_bank_elems(taps, C)));
        simd::dw_pack_u8s16(pl.w.data(), taps, C, pl.wt16p.data());
        pl.tier = vnni_want ? KernelTier::kVnni : KernelTier::kU8S16;
      } else {
        // Conv (any kernel size, via u8 im2col) and linear run as GEMM.
        // VNNI tier: weights fit int8 -- vpdpbusd accumulates u8 x s8
        // straight into i32, so no i16 pair-sum bound applies.
        // s8 panel tier: weights fit int8 AND the widening MAC's i16 pair
        // sums are proven exact: max (|w[2k]| + |w[2k+1]|) * amax <= 32767
        // over every adjacent pair of the panel's 4-byte K groups.
        const std::int64_t amax = core::qmax(l.qx);
        std::int64_t wmin = 0, wmax = 0, pair_max = 0;
        for (std::int64_t oc = 0; oc < co; ++oc) {
          const std::int32_t* wr = pl.w.data() + oc * per;
          for (std::int64_t k = 0; k < per; k += 2) {
            const std::int64_t m0 = std::abs(wr[k]);
            const std::int64_t m1 = k + 1 < per ? std::abs(wr[k + 1]) : 0;
            pair_max = std::max(pair_max, m0 + m1);
          }
          for (std::int64_t k = 0; k < per; ++k) {
            wmin = std::min<std::int64_t>(wmin, wr[k]);
            wmax = std::max<std::int64_t>(wmax, wr[k]);
          }
        }
        const bool fits_s8 = wmin >= -128 && wmax <= 127;
        const bool s8_pairs = fits_s8 && pair_max * amax <= 32767;
        if (vnni_want) {
          pl.tier = KernelTier::kVnni;
        } else {
          pl.tier = s8_pairs ? KernelTier::kS8Panel : KernelTier::kU8S16;
        }
        pl.i8_panel = pl.tier == KernelTier::kS8Panel;
        if (vnni_want && fits_s8) {
          pl.kp = simd::vnni_kp(per);
          pl.ocb = simd::vnni_ocb();
          pl.w8.resize(
              static_cast<std::size_t>(simd::vnni_panel_elems(co, per)));
          simd::vnni_pack(pl.w.data(), co, per, pl.w8.data());
        } else if (pl.i8_panel) {
          pl.kp = simd::gemm_u8s8_kp(per);
          pl.ocb = simd::gemm_u8s8_ocb();
          pl.w8.resize(
              static_cast<std::size_t>(simd::gemm_u8s8_panel_elems(co, per)));
          simd::gemm_u8s8_pack(pl.w.data(), co, per, pl.w8.data());
        } else {
          // s16 pair panel: one K segment per kernel row, each padded to
          // an even length (a 3x3x3 stem: 3 x 10, 15 pairs).
          const std::int64_t nseg =
              l.kind == QLayerKind::kConv ? l.spec.kh : 1;
          pl.segp = simd::round_up(per / nseg, 2);
          pl.kp = nseg * pl.segp;
          pl.ocb = simd::gemm_s16_ocb();
          pl.w16.resize(
              static_cast<std::size_t>(simd::gemm_s16_panel_elems(co, pl.kp)));
          simd::gemm_s16_pack(pl.w.data(), co, nseg, per / nseg,
                              pl.w16.data());
        }
        pl.co_pad = simd::round_up(co, pl.ocb);
        // Tile auto-tuning for the GEMM tiers: the analytic cache model,
        // optionally refined by the timing micro-probe, or the caller's
        // fixed tile. kb/nb are normalized to the bank's quanta so every
        // kernel pass stays remainder-free.
        const bool s16 = !pl.w16.empty();
        GemmShape gs;
        gs.out_pixels = l.kind == QLayerKind::kConv
                            ? l.out_shape.h * l.out_shape.w
                            : 1;
        gs.co_pad = pl.co_pad;
        gs.kp = pl.kp;
        gs.ocb = pl.ocb;
        gs.wbytes = s16 ? 2 : 1;
        gs.kq = s16 ? 2 : 4;
        switch (opts.autotune) {
          case PlanOptions::Autotune::kFixed:
            pl.tile = opts.fixed_tile;
            if (pl.tile.rows <= 0) pl.tile.rows = kIm2colTileRows;
            break;
          case PlanOptions::Autotune::kProbe:
            pl.tile = autotune_probe(gs, autotune_analytic(gs, caches));
            break;
          case PlanOptions::Autotune::kAnalytic:
            pl.tile = autotune_analytic(gs, caches);
            break;
        }
        if (pl.tile.kb > 0) pl.tile.kb = simd::round_up(pl.tile.kb, gs.kq);
        if (pl.tile.nb > 0) pl.tile.nb = simd::round_up(pl.tile.nb, gs.ocb);
      }
    }

    // Wide-domain depthwise: per-tap input offsets, the tap-major INT32
    // transpose (one contiguous channel row of weights per tap) and, when
    // the vector requant is usable, the border windows' Zx terms
    // Zx*(wsum - svalid) per distinct clamped tap window -- added to a
    // border pixel's valid-tap sums, they make it requantize like an
    // interior pixel. |Zx*(wsum - svalid)| <= phi_bound, so the usability
    // check above covers every window. Narrow layers need none of this.
    if (l.kind == QLayerKind::kDepthwise && pl.domain == ExecDomain::kI32) {
      const std::int64_t kh = l.spec.kh;
      const std::int64_t kw = l.spec.kw;
      const std::int64_t taps = kh * kw;
      const std::int64_t C = l.in_shape.c;
      pl.tap_off.resize(static_cast<std::size_t>(taps));
      for (std::int64_t t = 0; t < taps; ++t) {
        pl.tap_off[static_cast<std::size_t>(t)] =
            ((t / kw) * l.in_shape.w + t % kw) * C;
      }
      pl.wt.resize(static_cast<std::size_t>(taps * C));
      for (std::int64_t c = 0; c < C; ++c) {
        for (std::int64_t t = 0; t < taps; ++t) {
          pl.wt[static_cast<std::size_t>(t * C + c)] =
              pl.w[static_cast<std::size_t>(c * taps + t)];
        }
      }
      if (pl.rq.usable) {
        std::vector<std::pair<std::int64_t, std::int64_t>> kyw, kxw;
        for (std::int64_t oh = 0; oh < l.out_shape.h; ++oh) {
          const std::int64_t ih0 = oh * l.spec.stride - l.spec.pad;
          kyw.emplace_back(ih0 < 0 ? -ih0 : 0,
                           std::min(kh, l.in_shape.h - ih0));
        }
        for (std::int64_t ow = 0; ow < l.out_shape.w; ++ow) {
          const std::int64_t iw0 = ow * l.spec.stride - l.spec.pad;
          kxw.emplace_back(iw0 < 0 ? -iw0 : 0,
                           std::min(kw, l.in_shape.w - iw0));
        }
        std::sort(kyw.begin(), kyw.end());
        kyw.erase(std::unique(kyw.begin(), kyw.end()), kyw.end());
        std::sort(kxw.begin(), kxw.end());
        kxw.erase(std::unique(kxw.begin(), kxw.end()), kxw.end());
        for (const auto& [ky0, ky1] : kyw) {
          for (const auto& [kx0, kx1] : kxw) {
            pl.border_key.push_back(border_cfg_key(ky0, ky1, kx0, kx1));
            std::vector<std::int32_t> add(static_cast<std::size_t>(C));
            for (std::int64_t c = 0; c < C; ++c) {
              std::int64_t svalid = 0;
              for (std::int64_t ky = ky0; ky < ky1; ++ky) {
                for (std::int64_t kx = kx0; kx < kx1; ++kx) {
                  svalid += pl.tap_sum[static_cast<std::size_t>(
                      c * taps + ky * kw + kx)];
                }
              }
              add[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
                  static_cast<std::int64_t>(l.zx) *
                  (pl.wsum[static_cast<std::size_t>(c)] - svalid));
            }
            pl.border_add.push_back(std::move(add));
          }
        }
      }
    }

    layers_.push_back(std::move(pl));
  }

  // -------------------------------------------------------------------
  // Storage assignment: a tensor lives in the u8 arenas exactly when its
  // CONSUMER runs in the narrow domain; the producer writes that type
  // directly, so domain seams cost nothing extra.
  // -------------------------------------------------------------------
  const std::size_t n_layers = layers_.size();
  for (std::size_t i = 0; i < n_layers; ++i) {
    layers_[i].in_u8 = layers_[i].domain == ExecDomain::kI8;
    layers_[i].out_u8 = i + 1 < n_layers
                            ? layers_[i + 1].domain == ExecDomain::kI8
                            : layers_[i].domain == ExecDomain::kI8;
  }

  // Arena sizing: tensor 0 (the quantized input) lives in the ping arena
  // pair of its consumer's domain; layer i writes tensor i+1 into the
  // opposite arena -- the same even/odd assignment mcu::build_memory_map
  // uses for its RAM regions (Eq. 7).
  {
    const std::int64_t n_in = net.layers.front().in_shape.numel();
    auto& in_cap = layers_.front().in_u8 ? ping8_elems_ : ping_elems_;
    in_cap = std::max(in_cap, n_in);
  }
  for (std::size_t i = 0; i < n_layers; ++i) {
    const QLayer& l = net.layers[i];
    const PlannedLayer& pl = layers_[i];
    if (l.raw_logits) continue;
    const bool even = (i + 1) % 2 == 0;
    auto& cap = pl.out_u8 ? (even ? ping8_elems_ : pong8_elems_)
                          : (even ? ping_elems_ : pong_elems_);
    cap = std::max(cap, l.out_shape.numel());
  }

  // Gather-buffer and row-accumulator sizing.
  for (std::size_t i = 0; i < n_layers; ++i) {
    const QLayer& l = net.layers[i];
    const PlannedLayer& pl = layers_[i];
    if (l.kind == QLayerKind::kConv) {
      const bool direct = l.spec.kh == 1 && l.spec.kw == 1 &&
                          l.spec.pad == 0 && l.spec.stride == 1;
      if (pl.domain == ExecDomain::kI8 && !direct) {
        // s16 pair-panel convs gather only border pixels, two tile rows
        // (one per pixel of a pair); s8 panels gather a tile.rows tile.
        const std::int64_t trows =
            !pl.w16.empty() ? 2
            : pl.tile.rows > 0 ? pl.tile.rows
                               : kIm2colTileRows;
        const std::int64_t rows =
            std::min(l.out_shape.h * l.out_shape.w, trows);
        col8_elems_ = std::max(col8_elems_, rows * pl.kp);
      } else if (pl.domain == ExecDomain::kI32 && pl.gemm &&
                 l.spec.stride > 1) {
        col_elems_ = std::max(
            col_elems_, l.out_shape.h * l.out_shape.w * l.in_shape.c);
      }
    }
    if (l.kind == QLayerKind::kDepthwise && pl.domain == ExecDomain::kI8) {
      // One output row of 16-channel-block accumulators, and the halo
      // ring (kh padded rows plus the Zx row) in the lane's u8 gather
      // buffer when the layer pads.
      const std::int64_t C = l.in_shape.c;
      row_acc_elems_ = std::max(row_acc_elems_,
                                l.out_shape.w * simd::round_up(C, 16));
      if (l.spec.pad > 0) {
        col8_elems_ = std::max(col8_elems_, (l.spec.kh + 1) *
                                                (l.in_shape.w + 2 * l.spec.pad) *
                                                C);
      }
    } else if (l.kind == QLayerKind::kDepthwise) {
      row_acc_elems_ = std::max(row_acc_elems_, l.in_shape.c);
    } else if (l.kind == QLayerKind::kGlobalAvgPool) {
      if (pl.pool32) {
        row_acc_elems_ = std::max(row_acc_elems_, l.in_shape.c);
      }
    } else if (!l.raw_logits) {
      const std::int64_t width =
          pl.domain == ExecDomain::kI8 ? pl.co_pad : l.wshape.co;
      row_acc_elems_ = std::max(row_acc_elems_, 2 * width);
    }
  }

  const QLayer& last = net.layers.back();
  logit_elems_ = last.raw_logits ? last.wshape.co : last.out_shape.numel();
  self_ = std::make_unique<PlanArenas>(*this, 1);
}

std::int64_t ExecutionPlan::arena_bytes() const {
  return static_cast<std::int64_t>(sizeof(std::int32_t)) *
             (ping_elems_ + pong_elems_ + col_elems_) +
         arena_u8_padded(ping8_elems_) + arena_u8_padded(pong8_elems_) +
         arena_u8_padded(col8_elems_);
}

std::int64_t ExecutionPlan::i8_layer_count() const {
  std::int64_t n = 0;
  for (const PlannedLayer& pl : layers_) {
    n += pl.domain == ExecDomain::kI8 ? 1 : 0;
  }
  return n;
}

template <typename T>
void ExecutionPlan::quantize_input_into(const float* sample, T* dst,
                                        std::int64_t i0,
                                        std::int64_t i1) const {
  const core::QuantParams& qp = net_->input_qp;
  // Vectorized, bit-exact with core::quantize_value(kNearest) -- see the
  // exactness argument in simd.hpp. The scalar path was a measurable slice
  // of end-to-end latency (a libm lround call plus a float divide per
  // element).
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    simd::quantize_f32_u8(sample + i0, i1 - i0, qp.scale, qp.zero,
                          core::qmax(qp.q), dst + i0);
  } else {
    simd::quantize_f32_i32(sample + i0, i1 - i0, qp.scale, qp.zero,
                           core::qmax(qp.q), dst + i0);
  }
}

std::int64_t ExecutionPlan::partition_rows(const PlannedLayer& pl) {
  const QLayer& l = *pl.layer;
  switch (l.kind) {
    case QLayerKind::kConv:
      return (pl.domain == ExecDomain::kI8 || pl.gemm)
                 ? l.out_shape.h * l.out_shape.w
                 : l.out_shape.h;
    case QLayerKind::kDepthwise:
      return l.out_shape.h;
    case QLayerKind::kLinear:
    case QLayerKind::kGlobalAvgPool:
      return 1;
  }
  return 1;
}

void ExecutionPlan::run_layer_rows(const PlannedLayer& pl, PlanArenas& arenas,
                                   int lane, std::int64_t r0,
                                   std::int64_t r1) const {
  const QLayer& l = *pl.layer;
  std::int32_t* row_acc = arenas.lane_row_acc(lane);

  if (pl.domain == ExecDomain::kI8) {
    const std::uint8_t* x = arenas.arena8(pl.src);
    // Narrow GEMM over pixels [m0, m1) into the output arena at its storage
    // width, from output element `off` on.
    const auto gemm = [&](auto&& row, std::int64_t m0, std::int64_t m1,
                          std::int64_t off) {
      if (pl.out_u8) {
        gemm8_rows(pl, row, m0, m1, arenas.arena8(pl.dst) + off, row_acc);
      } else {
        gemm8_rows(pl, row, m0, m1, arenas.arena(pl.dst) + off, row_acc);
      }
    };
    switch (l.kind) {
      case QLayerKind::kConv: {
        const std::int64_t K = l.wshape.per_channel();
        const std::int64_t co = l.wshape.co;
        const bool direct = l.spec.kh == 1 && l.spec.kw == 1 &&
                            l.spec.pad == 0 && l.spec.stride == 1;
        if (direct) {
          gemm([x, K](std::int64_t m) { return ARow{x + m * K, 0}; }, r0, r1,
               0);
          return;
        }
        std::uint8_t* tile = arenas.lane_col8(lane);
        if (!pl.w16.empty()) {
          // Gather-free s16 pair panel: an interior pixel's kernel rows are
          // read in place from the input tensor; a border pixel is gathered
          // (Zx-filled) into tile row m & 1, so a pixel pair never shares
          // one.
          const std::int64_t C = l.in_shape.c;
          const std::int64_t row = l.in_shape.w * C;
          const std::int64_t ow_n = l.out_shape.w;
          std::int64_t oh = r0 / ow_n;
          std::int64_t ow = r0 % ow_n;
          const auto pixel = [&](std::int64_t m) {
            const std::int64_t ih0 = oh * l.spec.stride - l.spec.pad;
            const std::int64_t iw0 = ow * l.spec.stride - l.spec.pad;
            const bool interior = oh >= pl.oh0 && oh < pl.oh1 &&
                                  ow >= pl.ow0 && ow < pl.ow1;
            if (++ow == ow_n) {
              ow = 0;
              ++oh;
            }
            if (interior) return ARow{x + ih0 * row + iw0 * C, row};
            std::uint8_t* d = tile + (m & 1) * pl.kp;
            im2col8_pixel(pl, x, d, pl.segp, ih0, iw0);
            return ARow{d, pl.segp};
          };
          gemm(pixel, r0, r1, 0);
          return;
        }
        // s8 panels, cache-blocked: gather the autotuned number of output
        // pixels into this lane's L1-resident u8 tile, run the panel GEMM,
        // advance.
        const std::int64_t trows =
            pl.tile.rows > 0 ? pl.tile.rows : kIm2colTileRows;
        const std::int64_t kp = pl.kp;
        const auto tiled = [tile, kp](std::int64_t m) {
          return ARow{tile + m * kp, 0};
        };
        for (std::int64_t t0 = r0; t0 < r1; t0 += trows) {
          const std::int64_t t1 = std::min(r1, t0 + trows);
          im2col8_rows(pl, x, tile, t0, t1);
          gemm(tiled, 0, t1 - t0, t0 * co);
        }
        return;
      }
      case QLayerKind::kDepthwise:
        if (pl.out_u8) {
          depthwise8_rows(pl, x, arenas.arena8(pl.dst), r0, r1,
                          arenas.lane_col8(lane), row_acc);
        } else {
          depthwise8_rows(pl, x, arenas.arena(pl.dst), r0, r1,
                          arenas.lane_col8(lane), row_acc);
        }
        return;
      case QLayerKind::kLinear:
        gemm([x](std::int64_t) { return ARow{x, 0}; }, 0, 1, 0);
        return;
      case QLayerKind::kGlobalAvgPool:
        if (pl.out_u8) {
          gap8_plan(pl, x, arenas.arena8(pl.dst), row_acc);
        } else {
          gap8_plan(pl, x, arenas.arena(pl.dst), row_acc);
        }
        return;
    }
    throw std::logic_error("ExecutionPlan: invalid layer kind");
  }

  const std::int32_t* x = arenas.arena(pl.src);
  switch (l.kind) {
    case QLayerKind::kConv:
      if (pl.gemm) {
        const std::int64_t K = l.in_shape.c;
        const std::int32_t* A = x;
        if (l.spec.stride > 1) {
          // im2col gather for this lane's rows: strided pointwise rows
          // become a dense slice of the shared (row-disjoint) col matrix.
          std::int32_t* col = arenas.col.data();
          const std::int64_t s = l.spec.stride;
          const std::int64_t row = l.in_shape.w * K;
          const std::int64_t ow_n = l.out_shape.w;
          for (std::int64_t m = r0; m < r1; ++m) {
            const std::int64_t oh = m / ow_n;
            const std::int64_t ow = m % ow_n;
            const std::int32_t* src = x + oh * s * row + ow * s * K;
            std::copy(src, src + K, col + m * K);
          }
          A = col;
        }
        if (pl.acc32) {
          if (pl.out_u8) {
            gemm_rows_i32(pl, A, r0, r1, K, arenas.arena8(pl.dst), row_acc);
          } else {
            gemm_rows_i32(pl, A, r0, r1, K, arenas.arena(pl.dst), row_acc);
          }
        } else if (pl.out_u8) {
          gemm_rows_i64(pl, A, r0, r1, K, arenas.arena8(pl.dst));
        } else {
          gemm_rows_i64(pl, A, r0, r1, K, arenas.arena(pl.dst));
        }
      } else if (pl.acc32) {
        if (pl.out_u8) {
          conv_rows_i32(pl, x, arenas.arena8(pl.dst), r0, r1, row_acc);
        } else {
          conv_rows_i32(pl, x, arenas.arena(pl.dst), r0, r1, row_acc);
        }
      } else if (pl.out_u8) {
        conv_rows_i64(pl, x, arenas.arena8(pl.dst), r0, r1);
      } else {
        conv_rows_i64(pl, x, arenas.arena(pl.dst), r0, r1);
      }
      return;
    case QLayerKind::kDepthwise:
      if (pl.acc32) {
        if (pl.out_u8) {
          depthwise_rows_i32(pl, x, arenas.arena8(pl.dst), r0, r1, row_acc);
        } else {
          depthwise_rows_i32(pl, x, arenas.arena(pl.dst), r0, r1, row_acc);
        }
      } else if (pl.out_u8) {
        depthwise_rows_i64(pl, x, arenas.arena8(pl.dst), r0, r1);
      } else {
        depthwise_rows_i64(pl, x, arenas.arena(pl.dst), r0, r1);
      }
      return;
    case QLayerKind::kLinear:
      if (pl.acc32) {
        if (pl.out_u8) {
          gemm_rows_i32(pl, x, 0, 1, l.wshape.per_channel(),
                        arenas.arena8(pl.dst), row_acc);
        } else {
          gemm_rows_i32(pl, x, 0, 1, l.wshape.per_channel(),
                        arenas.arena(pl.dst), row_acc);
        }
      } else if (pl.out_u8) {
        gemm_rows_i64(pl, x, 0, 1, l.wshape.per_channel(),
                      arenas.arena8(pl.dst));
      } else {
        gemm_rows_i64(pl, x, 0, 1, l.wshape.per_channel(),
                      arenas.arena(pl.dst));
      }
      return;
    case QLayerKind::kGlobalAvgPool:
      if (pl.out_u8) {
        gap_plan(pl, x, arenas.arena8(pl.dst), row_acc);
      } else {
        gap_plan(pl, x, arenas.arena(pl.dst), row_acc);
      }
      return;
  }
  throw std::logic_error("ExecutionPlan: invalid layer kind");
}

void ExecutionPlan::run_head(const PlannedLayer& pl,
                             PlanArenas& arenas) const {
  const QLayer& l = *pl.layer;
  const std::int64_t K = l.wshape.per_channel();
  const std::int64_t co = l.wshape.co;
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();
  std::vector<float>& logits = arenas.logits;
  const std::int32_t* x32 = pl.in_u8 ? nullptr : arenas.arena(pl.src);
  const std::uint8_t* x8 = pl.in_u8 ? arenas.arena8(pl.src) : nullptr;
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const std::int32_t* w0 = W + oc * K;
    std::int64_t acc;
    if (pl.acc32) {
      acc = pl.in_u8 ? simd::dot_u8_i32(x8, w0, K) : simd::dot_i32(x32, w0, K);
    } else {
      std::int64_t a = 0;
      if (pl.in_u8) {
        for (std::int64_t k = 0; k < K; ++k) {
          a += static_cast<std::int64_t>(x8[k]) * w0[k];
        }
      } else {
        for (std::int64_t k = 0; k < K; ++k) {
          a += static_cast<std::int64_t>(x32[k]) * w0[k];
        }
      }
      acc = a;
    }
    const std::int64_t phi = acc - zx * pl.wsum[oc];
    const auto& ch = l.icn[static_cast<std::size_t>(oc)];
    logits[static_cast<std::size_t>(oc)] =
        static_cast<float>(l.out_mult[static_cast<std::size_t>(oc)] *
                           static_cast<double>(phi + ch.bq));
  }
}

const std::vector<float>& ExecutionPlan::finish_logits(
    PlanArenas& arenas) const {
  // No raw head: the last codes become the logits, as in Executor::run.
  const PlannedLayer& last = layers_.back();
  if (last.out_u8) {
    const std::uint8_t* fin = arenas.arena8(last.dst);
    for (std::size_t i = 0; i < arenas.logits.size(); ++i) {
      arenas.logits[i] = static_cast<float>(fin[i]);
    }
  } else {
    const std::int32_t* fin = arenas.arena(last.dst);
    for (std::size_t i = 0; i < arenas.logits.size(); ++i) {
      arenas.logits[i] = static_cast<float>(fin[i]);
    }
  }
  return arenas.logits;
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample) const {
  return run_into(sample, *self_);
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample,
                                                  PlanArenas& arenas) const {
  const std::int64_t n_in = net_->layers.front().in_shape.numel();
  if (layers_.front().in_u8) {
    quantize_input_into(sample, arenas.arena8(0), 0, n_in);
  } else {
    quantize_input_into(sample, arenas.arena(0), 0, n_in);
  }
  for (const PlannedLayer& pl : layers_) {
    if (pl.layer->raw_logits) {
      run_head(pl, arenas);
      return arenas.logits;
    }
    run_layer_rows(pl, arenas, 0, 0, partition_rows(pl));
  }
  return finish_logits(arenas);
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample,
                                                  PlanArenas& arenas,
                                                  ThreadPool& pool) const {
  if (arenas.lanes < pool.lanes()) {
    throw std::invalid_argument(
        "ExecutionPlan::run_into: arenas built with fewer lanes than the "
        "pool");
  }
  if (pool.lanes() == 1) return run_into(sample, arenas);

  const std::int64_t n_in = net_->layers.front().in_shape.numel();
  if (n_in >= 4096) {
    if (layers_.front().in_u8) {
      std::uint8_t* input = arenas.arena8(0);
      pool.parallel_for(n_in, [&](int, std::int64_t b, std::int64_t e) {
        quantize_input_into(sample, input, b, e);
      });
    } else {
      std::int32_t* input = arenas.arena(0);
      pool.parallel_for(n_in, [&](int, std::int64_t b, std::int64_t e) {
        quantize_input_into(sample, input, b, e);
      });
    }
  } else if (layers_.front().in_u8) {
    quantize_input_into(sample, arenas.arena8(0), 0, n_in);
  } else {
    quantize_input_into(sample, arenas.arena(0), 0, n_in);
  }
  for (const PlannedLayer& pl : layers_) {
    if (pl.layer->raw_logits) {
      run_head(pl, arenas);
      return arenas.logits;
    }
    const std::int64_t rows = partition_rows(pl);
    if (rows >= 2 && pl.macs >= kIntraParMinMacs) {
      pool.parallel_for(rows, [&](int lane, std::int64_t b, std::int64_t e) {
        run_layer_rows(pl, arenas, lane, b, e);
      });
    } else {
      run_layer_rows(pl, arenas, 0, 0, rows);
    }
  }
  return finish_logits(arenas);
}

const std::vector<float>& ExecutionPlan::run_timed(
    const float* sample, std::vector<std::int64_t>& per_layer_ns,
    std::int64_t* quantize_ns) const {
  using clock = std::chrono::steady_clock;
  PlanArenas& arenas = *self_;
  per_layer_ns.assign(layers_.size(), 0);
  const std::int64_t n_in = net_->layers.front().in_shape.numel();
  auto t0 = clock::now();
  if (layers_.front().in_u8) {
    quantize_input_into(sample, arenas.arena8(0), 0, n_in);
  } else {
    quantize_input_into(sample, arenas.arena(0), 0, n_in);
  }
  auto t1 = clock::now();
  if (quantize_ns != nullptr) {
    *quantize_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const PlannedLayer& pl = layers_[i];
    t0 = clock::now();
    if (pl.layer->raw_logits) {
      run_head(pl, arenas);
    } else {
      run_layer_rows(pl, arenas, 0, 0, partition_rows(pl));
    }
    t1 = clock::now();
    per_layer_ns[i] =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    if (pl.layer->raw_logits) return arenas.logits;
  }
  return finish_logits(arenas);
}

QInferenceResult ExecutionPlan::run_sample(const float* sample,
                                           PlanArenas& arenas) const {
  const std::vector<float>& logits = run_into(sample, arenas);
  QInferenceResult res;
  res.logits = logits;
  res.predicted = static_cast<std::int32_t>(
      std::max_element(res.logits.begin(), res.logits.end()) -
      res.logits.begin());
  return res;
}

QInferenceResult ExecutionPlan::run_sample(const float* sample) const {
  return run_sample(sample, *self_);
}

QInferenceResult ExecutionPlan::run(const FloatTensor& image) const {
  const Shape& in = net_->layers.front().in_shape;
  if (image.shape() != in) {
    // Built up with += (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive in the inlined string concatenation.
    std::string msg = "ExecutionPlan::run: image shape ";
    msg += image.shape().str();
    msg += " does not match network input ";
    msg += in.str();
    throw std::invalid_argument(msg);
  }
  return run_sample(image.data());
}

}  // namespace mixq::runtime
