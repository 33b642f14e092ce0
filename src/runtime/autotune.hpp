// mixq/runtime/autotune.hpp
//
// Plan-compile-time kernel auto-tuner: picks the im2col tile rows and the
// K/N cache blocking of every narrow-domain GEMM layer from a small
// analytical model of the host's cache hierarchy (optionally refined by a
// timing micro-probe), replacing the fixed kIm2colTileRows=16 /
// unblocked-GEMM configuration of earlier revisions.
//
// The model is deliberately tiny and exactly reproducible: given the same
// layer shape and the same detected cache sizes, autotune_analytic returns
// the same TileConfig (asserted by tests/runtime/autotune_test.cpp), so
// plans stay deterministic across runs on one host. The micro-probe
// (PlanOptions::Autotune::kProbe) trades that determinism for measured
// tile timings; the default mode never times anything.
//
// Blocking changes only the ORDER of integer additions, never the values:
// every kernel tier accumulates exact i32 partial sums, so any kb/nb/rows
// choice is bit-exact with the unblocked GEMM (the associativity argument
// the plan's overflow proof already makes).
#pragma once

#include <cstdint>

namespace mixq::runtime {

/// Detected data-cache capacities in bytes. Conservative defaults stand in
/// when the OS does not report them (32 KiB L1d / 1 MiB L2 -- the smallest
/// configuration among the deployment fleet's cores).
struct CacheInfo {
  std::int64_t l1d{32 * 1024};
  std::int64_t l2{1024 * 1024};
};

/// Query the host (sysconf cache levels where available). Never fails:
/// unreported levels keep the CacheInfo defaults.
CacheInfo detect_caches();

/// One GEMM layer's blocking configuration, chosen at plan compile time
/// and recorded in the PlannedLayer (surfaced by `mixq inspect`).
struct TileConfig {
  /// Output pixels gathered per u8 im2col tile (conv layers; 0 = not a
  /// tiled-im2col layer, e.g. depthwise or a direct 1x1 conv).
  std::int64_t rows{0};
  /// K-block in padded-K elements; 0 = single pass over the whole depth.
  std::int64_t kb{0};
  /// N-block in output channels; 0 = all channel blocks per pass.
  std::int64_t nb{0};
};

/// Shape + kernel-tier geometry of one narrow GEMM, as the tuner sees it.
struct GemmShape {
  std::int64_t out_pixels{0};  ///< GEMM rows (conv: oh*ow; linear: 1)
  std::int64_t co_pad{0};      ///< output channels padded to the tier block
  std::int64_t kp{0};          ///< padded depth (bytes per u8 im2col row)
  std::int64_t ocb{0};         ///< channel block of the tier's micro-kernel
  std::int64_t wbytes{0};      ///< packed weight bytes (panels: 1, s16: 2)
  std::int64_t kq{0};          ///< K-block quantum (s8 panels: 4, s16: 2)
};

/// Cache-aware analytical model:
///   rows -- largest power of two whose u8 tile (rows * kp bytes) fits a
///           quarter of L1d, clamped to [4, 128] and to the layer's pixel
///           count: the tile must stay L1-resident UNDER the streamed
///           panel slice, and beyond ~128 rows the reuse is saturated.
///   kb   -- engaged when one channel block's panel slice (ocb * kp *
///           wbytes) overflows half of L1d: the largest kq-multiple that
///           fits, so each K pass streams an L1-resident slice.
///   nb   -- engaged when the whole panel overflows half of L2: the
///           largest ocb-multiple of channels whose panel columns fit,
///           keeping the per-pass working set L2-resident.
TileConfig autotune_analytic(const GemmShape& g, const CacheInfo& c);

/// Timing micro-probe: re-times the analytic `rows` choice against its
/// neighbours (half / double) on a synthetic tile-gather + panel-GEMM
/// workload using the layer's real kernel tier, and returns `base` with
/// the fastest rows. Only panel tiers are probed (wbytes == 1); shapes the
/// host cannot execute (VNNI geometry without VNNI support) and the s16
/// tier return `base` unchanged.
TileConfig autotune_probe(const GemmShape& g, TileConfig base);

}  // namespace mixq::runtime
