// mixq/runtime/qgraph.hpp
//
// The deployed integer-only graph. Every tensor that crosses a layer
// boundary is a densely packed buffer of unsigned Q-bit codes; every layer
// carries the static parameters of Table 1 (packed weights, zero-points,
// ICN requantization vectors or integer thresholds). This is the in-memory
// image of what would live in MCU FLASH.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/icn.hpp"
#include "core/quant_types.hpp"
#include "core/thresholds.hpp"
#include "nn/conv2d.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/tensor.hpp"

namespace mixq::runtime {

using core::IcnChannel;
using core::QuantParams;
using core::Scheme;
using core::ThresholdChannel;

enum class QLayerKind : std::uint8_t {
  kConv,
  kDepthwise,
  kLinear,
  kGlobalAvgPool,
};

/// Short human-readable name of a layer kind ("conv", "dw", "fc", "pool").
inline const char* kind_name(QLayerKind k) {
  switch (k) {
    case QLayerKind::kConv: return "conv";
    case QLayerKind::kDepthwise: return "dw";
    case QLayerKind::kLinear: return "fc";
    case QLayerKind::kGlobalAvgPool: return "pool";
  }
  return "?";
}

/// Entropy-coded weight section left UNDECODED: what the zero-copy mmap
/// flash loader (format v2, runtime/flash_image.hpp) attaches to a layer
/// instead of a materialized PackedBuffer. The canonical-Huffman table is
/// tiny and copied; the bitstream stays a view into the mapped file, with
/// `backing` keeping the mapping alive. ExecutionPlan streams such a
/// section straight into its pre-unpacked INT32 panels at compile time
/// (QLayer::weight_codes_to_i32) -- the packed form is never materialized
/// unless someone calls QLayer::materialize_weights().
struct EncodedWeights {
  BitWidth q{BitWidth::kQ8};
  std::int64_t numel{0};
  std::vector<std::uint8_t> lens;        ///< canonical code lengths
  const std::uint8_t* stream{nullptr};   ///< bitstream view (not owned)
  std::uint64_t stream_bytes{0};
  std::uint64_t nbits{0};
  std::shared_ptr<const void> backing;   ///< keeps the mapping alive
};

/// One deployed layer.
struct QLayer {
  QLayerKind kind{QLayerKind::kConv};
  Scheme scheme{Scheme::kPCICN};
  nn::ConvSpec spec;        ///< kernel geometry (ignored for pool/linear)
  Shape in_shape{1, 1, 1, 1};
  Shape out_shape{1, 1, 1, 1};

  BitWidth qx{BitWidth::kQ8};
  BitWidth qw{BitWidth::kQ8};
  BitWidth qy{BitWidth::kQ8};

  // Static read-only parameters ------------------------------------------
  WeightShape wshape{1, 1, 1, 1};
  PackedBuffer weights;              ///< packed UINT-Qw codes
  std::int32_t zx{0};                ///< input zero-point
  std::vector<std::int32_t> zw;      ///< weight zero-points (1 or cO entries)
  std::int32_t zy{0};                ///< output zero-point

  std::vector<IcnChannel> icn;       ///< cO entries (ICN / folded schemes)
  std::vector<ThresholdChannel> thresholds;  ///< cO entries (threshold scheme)

  /// When true this is the network head: the executor emits real-valued
  /// logits logit_c = out_mult[c] * (Phi_c + Bq_c) instead of requantizing.
  bool raw_logits{false};
  std::vector<double> out_mult;      ///< per-channel Si*Sw_c (head only)

  /// Deferred entropy-coded weights (mmap fast path). When set, `weights`
  /// is empty and consumers must go through weight_codes_to_i32() /
  /// materialize_weights(); only the planned engine does so natively --
  /// the reference executor requires materialized weights.
  std::shared_ptr<const EncodedWeights> enc;
  /// Keepalive for a `weights` buffer borrowed from an mmap'ed image
  /// (PackedBuffer::borrow). Null for ordinary owning buffers.
  std::shared_ptr<const void> weights_backing;

  [[nodiscard]] std::int32_t zw_of(std::int64_t oc) const {
    return zw.size() == 1 ? zw[0] : zw[static_cast<std::size_t>(oc)];
  }
  [[nodiscard]] std::int64_t out_channels() const { return wshape.co; }

  /// Weight-bank geometry regardless of the storage form.
  [[nodiscard]] bool weights_deferred() const { return enc != nullptr; }
  [[nodiscard]] std::int64_t weights_numel() const {
    return enc ? enc->numel : weights.numel();
  }
  [[nodiscard]] BitWidth weights_bitwidth() const {
    return enc ? enc->q : weights.bitwidth();
  }

  /// Unpack (raw) or streaming-decode (entropy-coded) the whole weight
  /// bank into `out[0, weights_numel())` as int32 codes -- the plan's
  /// panel-source hook; no intermediate packed allocation on the encoded
  /// path. Implemented in runtime/flash_image.cpp.
  void weight_codes_to_i32(std::int32_t* out) const;

  /// Decode a deferred entropy section into an owning PackedBuffer (and
  /// drop the section), so the reference kernels (Executor::run) can
  /// random-access the codes. No-op when weights are already materialized.
  void materialize_weights();
};

/// Result of running a quantized network on one input.
struct QInferenceResult {
  std::vector<float> logits;         ///< dequantized head outputs
  std::int32_t predicted{-1};        ///< argmax class
};

/// The deployed network: input quantizer + layer stack.
struct QuantizedNet {
  QuantParams input_qp;
  std::vector<QLayer> layers;

  /// Total read-only bytes actually held by this image (packed weights +
  /// zero-points + requant parameters), using Table 1 datatype widths.
  [[nodiscard]] std::int64_t ro_bytes() const;

  /// Peak read-write bytes: max over layers of packed input+output
  /// activation buffers (Eq. 7 realised).
  [[nodiscard]] std::int64_t rw_peak_bytes() const;

  /// Structural validation: shapes chain, weight banks match their layer
  /// geometry, per-channel vectors have cO entries, the head (if any) is
  /// terminal. Throws std::runtime_error with a description on the first
  /// inconsistency. Called by the flash-image loader so corrupted-but-
  /// parseable images can never reach the kernels.
  void validate() const;
};

}  // namespace mixq::runtime
