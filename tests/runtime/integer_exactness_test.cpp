// The central conversion claim of the paper (Section 6, Table 2): inserting
// ICN layers converts the fake-quantized graph g(x) into an integer-only
// graph g'(x) with "almost negligible" loss. Here we quantify it directly:
// integer-only logits must track the fake-quantized float graph closely,
// and the predictions must agree on almost every input.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "data/synthetic.hpp"
#include "eval/trainer.hpp"
#include "models/small_cnn.hpp"
#include "nn/loss.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "support/random_qlayer.hpp"

namespace mixq::runtime {
namespace {

using core::BitWidth;
using core::Granularity;
using core::Scheme;

struct TrainedSetup {
  core::QatModel model;
  data::Dataset train, test;
};

TrainedSetup trained_setup(Granularity g, BitWidth qw, BitWidth qa,
                    std::uint64_t seed) {
  data::SyntheticSpec dspec;
  dspec.hw = 8;
  dspec.num_classes = 4;
  dspec.train_size = 192;
  dspec.test_size = 96;
  dspec.seed = seed;
  auto [train, test] = data::make_synthetic(dspec);

  Rng rng(seed + 1);
  models::SmallCnnConfig mcfg;
  mcfg.input_hw = 8;
  mcfg.base_channels = 8;
  mcfg.num_blocks = 2;
  mcfg.num_classes = 4;
  mcfg.wgran = g;
  mcfg.qw = qw;
  mcfg.qa = qa;
  TrainedSetup s{models::build_small_cnn(mcfg, &rng), std::move(train),
          std::move(test)};

  eval::TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.batch_size = 32;
  tcfg.lr = 3e-3f;
  eval::train_qat(s.model, s.train, s.test, tcfg);
  return s;
}

class IcnExactness
    : public ::testing::TestWithParam<std::tuple<Granularity, BitWidth>> {};

TEST_P(IcnExactness, IntegerGraphTracksFakeQuantGraph) {
  const auto [gran, qw] = GetParam();
  TrainedSetup s = trained_setup(gran, qw, BitWidth::kQ4, 100 + bits(qw));
  const Scheme scheme = gran == Granularity::kPerLayer ? Scheme::kPLICN
                                                       : Scheme::kPCICN;
  const QuantizedNet qnet =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {scheme});
  Executor exec(qnet);

  const FloatTensor fake_logits = s.model.forward(s.test.images, false);
  const auto fake_pred = nn::argmax_classes(fake_logits);
  const auto int_results = exec.run_batch(s.test.images);

  int agree = 0;
  for (std::size_t i = 0; i < int_results.size(); ++i) {
    if (int_results[i].predicted == fake_pred[i]) ++agree;
  }
  // Paper reports a 0.05-0.3% accuracy delta between g and g'; on 96
  // samples we allow a handful of disagreements (integer GAP flooring is
  // the main residual difference).
  EXPECT_GE(agree, static_cast<int>(int_results.size()) - 5)
      << "integer-only and fake-quantized graphs diverge";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWidths, IcnExactness,
    ::testing::Combine(::testing::Values(Granularity::kPerLayer,
                                         Granularity::kPerChannel),
                       ::testing::Values(BitWidth::kQ8, BitWidth::kQ4)));

TEST(IcnExactness, ThresholdDeploymentBitExactWithIcn) {
  // PC+Thresholds and PC+ICN must be *identical* deployments (Table 1
  // compares their memory only; the function is the same).
  TrainedSetup s = trained_setup(Granularity::kPerChannel, BitWidth::kQ4,
                          BitWidth::kQ4, 777);
  const QuantizedNet icn_net =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const QuantizedNet thr_net =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCThresholds});
  Executor icn_exec(icn_net), thr_exec(thr_net);
  const auto icn_res = icn_exec.run_batch(s.test.images);
  const auto thr_res = thr_exec.run_batch(s.test.images);
  for (std::size_t i = 0; i < icn_res.size(); ++i) {
    ASSERT_EQ(icn_res[i].predicted, thr_res[i].predicted) << "sample " << i;
    for (std::size_t k = 0; k < icn_res[i].logits.size(); ++k) {
      ASSERT_FLOAT_EQ(icn_res[i].logits[k], thr_res[i].logits[k]);
    }
  }
}

TEST(IcnExactness, IntegerAccuracyCloseToFakeQuantAccuracy) {
  TrainedSetup s = trained_setup(Granularity::kPerChannel, BitWidth::kQ4,
                          BitWidth::kQ4, 555);
  const double fake_acc = eval::evaluate_fake_quant(s.model, s.test);
  const QuantizedNet qnet =
      convert_qat_model(s.model, Shape(1, 8, 8, 3), {Scheme::kPCICN});
  const double int_acc = eval::evaluate_integer(qnet, s.test);
  EXPECT_NEAR(int_acc, fake_acc, 0.08);
}

// ---------------------------------------------------------------------------
// Randomized cross-checks: the planned engine must be bit-exact with the
// reference kernels through whole randomized depthwise-separable chains
// with *mixed* 2/4/8-bit widths per layer -- the deployment configuration
// the paper's memory-driven allocator emits -- checked after every layer,
// and on random linear heads.
// ---------------------------------------------------------------------------

using test_support::random_width;

/// A random conv-family (or head) layer with the given geometry and
/// precisions; quantization parameters come from the shared helper.
QLayer random_chain_layer(QLayerKind kind, Shape in_shape, std::int64_t co,
                          BitWidth qx, BitWidth qw, BitWidth qy,
                          Scheme scheme, Rng& rng) {
  QLayer l;
  l.kind = kind;
  l.qx = qx;
  l.qw = qw;
  l.qy = qy;
  l.in_shape = in_shape;
  const bool depthwise = kind == QLayerKind::kDepthwise;
  // Depthwise 3x3 stride 1 pad 1 keeps HxW; pointwise/linear is 1x1.
  const std::int64_t k = depthwise ? 3 : 1;
  l.spec.kh = l.spec.kw = k;
  l.spec.stride = 1;
  l.spec.pad = depthwise ? 1 : 0;
  l.out_shape = Shape(in_shape.n, in_shape.h, in_shape.w, co);
  l.wshape = depthwise ? WeightShape(co, k, k, 1)
                       : WeightShape(co, k, k, in_shape.c);
  l.zy = static_cast<std::int32_t>(rng.uniform_int(core::levels(qy)));
  test_support::fill_random_quant_params(l, scheme, rng);
  return l;
}

/// A float image whose input quantization yields uniformly random codes.
FloatTensor random_code_image(const Shape& shape, const core::QuantParams& qp,
                              Rng& rng) {
  FloatTensor img(shape);
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    img.data()[i] =
        static_cast<float>(rng.uniform_int(core::levels(qp.q))) * qp.scale;
  }
  return img;
}

/// Asserts ExecutionPlan output == reference Executor::run output.
void expect_plan_matches_reference(const QuantizedNet& net,
                                   const FloatTensor& img,
                                   const std::string& label) {
  net.validate();
  const QInferenceResult ref = Executor(net).run(img);
  const QInferenceResult planned = ExecutionPlan(net).run(img);
  ASSERT_EQ(ref.logits.size(), planned.logits.size()) << label;
  for (std::size_t i = 0; i < ref.logits.size(); ++i) {
    // Bit-exact, not approximately equal: both paths must perform the
    // identical integer accumulation and double dequantization.
    ASSERT_EQ(ref.logits[i], planned.logits[i]) << label << " elem " << i;
  }
  EXPECT_EQ(ref.predicted, planned.predicted) << label;
}

class PlanLayerChainExactness : public ::testing::TestWithParam<int> {};

TEST_P(PlanLayerChainExactness, MixedPrecisionChainBitExact) {
  // dw -> pw -> dw -> pw with independently random 2/4/8-bit weight and
  // activation widths at every boundary. Every prefix of the chain runs as
  // a head-less net, whose logits are its last layer's output codes, so
  // each layer's output is checked.
  Rng rng(static_cast<std::uint64_t>(4200 + GetParam()));
  const Scheme schemes[] = {Scheme::kPLICN, Scheme::kPCICN,
                            Scheme::kPCThresholds};
  Shape shape(1, 6, 6, 4);
  BitWidth qx = random_width(rng);
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
  const FloatTensor img = random_code_image(shape, net.input_qp, rng);

  const QLayerKind kinds[] = {QLayerKind::kDepthwise, QLayerKind::kConv,
                              QLayerKind::kDepthwise, QLayerKind::kConv};
  for (int li = 0; li < 4; ++li) {
    const QLayerKind kind = kinds[li];
    const std::int64_t co =
        kind == QLayerKind::kDepthwise ? shape.c
                                       : 3 + static_cast<std::int64_t>(
                                                 rng.uniform_int(4));
    const BitWidth qw = random_width(rng);
    const BitWidth qy = random_width(rng);
    const Scheme scheme = schemes[rng.uniform_int(3)];
    net.layers.push_back(
        random_chain_layer(kind, shape, co, qx, qw, qy, scheme, rng));
    expect_plan_matches_reference(
        net, img,
        "trial " + std::to_string(GetParam()) + " layer " +
            std::to_string(li) +
            (kind == QLayerKind::kDepthwise ? " (dw)" : " (pw)") +
            " qx=" + std::to_string(core::bits(qx)) +
            " qw=" + std::to_string(core::bits(qw)) +
            " qy=" + std::to_string(core::bits(qy)));
    shape = net.layers.back().out_shape;
    qx = qy;
  }
}

TEST_P(PlanLayerChainExactness, RandomHeadBitExact) {
  // Random mixed-width linear heads, each deployed as a one-layer net.
  Rng rng(static_cast<std::uint64_t>(9100 + GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const BitWidth qx = random_width(rng);
    const BitWidth qw = random_width(rng);
    const std::int64_t features =
        4 + static_cast<std::int64_t>(rng.uniform_int(12));
    const std::int64_t classes =
        2 + static_cast<std::int64_t>(rng.uniform_int(6));
    QLayer head = random_chain_layer(
        QLayerKind::kLinear, Shape(1, 1, 1, features), classes, qx, qw,
        BitWidth::kQ8, Scheme::kPCICN, rng);
    head.raw_logits = true;
    for (std::int64_t c = 0; c < classes; ++c) {
      head.out_mult.push_back(rng.uniform(1e-5, 0.02));
    }
    QuantizedNet net;
    net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
    net.layers.push_back(std::move(head));
    expect_plan_matches_reference(
        net, random_code_image(Shape(1, 1, 1, features), net.input_qp, rng),
        "trial " + std::to_string(trial) + " qx=" +
            std::to_string(core::bits(qx)) +
            " qw=" + std::to_string(core::bits(qw)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, PlanLayerChainExactness,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Planned engine: the compiled ExecutionPlan (pre-unpacked weights,
// ping-pong arena, im2col GEMM) must be bit-exact with the reference
// executor through whole mixed-precision dw/pw chains ending in a head --
// the same property asserted per layer above, but through one executor
// that reuses its plan and arenas across images.
// ---------------------------------------------------------------------------

class PlannedChainExactness : public ::testing::TestWithParam<int> {};

TEST_P(PlannedChainExactness, MixedPrecisionNetBitExact) {
  Rng rng(static_cast<std::uint64_t>(6300 + GetParam()));
  const Scheme schemes[] = {Scheme::kPLICN, Scheme::kPCICN,
                            Scheme::kPCThresholds};
  QuantizedNet net;
  BitWidth qx = random_width(rng);
  net.input_qp = core::make_quant_params(0.0f, 1.0f, qx);
  Shape shape(1, 6, 6, 4);

  const QLayerKind kinds[] = {QLayerKind::kDepthwise, QLayerKind::kConv,
                              QLayerKind::kDepthwise, QLayerKind::kConv};
  for (const QLayerKind kind : kinds) {
    const std::int64_t co =
        kind == QLayerKind::kDepthwise ? shape.c
                                       : 3 + static_cast<std::int64_t>(
                                                 rng.uniform_int(4));
    const BitWidth qw = random_width(rng);
    const BitWidth qy = random_width(rng);
    const Scheme scheme = schemes[rng.uniform_int(3)];
    net.layers.push_back(
        random_chain_layer(kind, shape, co, qx, qw, qy, scheme, rng));
    shape = net.layers.back().out_shape;
    qx = qy;
  }
  QLayer head = test_support::make_conv_family_layer(
      QLayerKind::kLinear, shape, 4, 1, 1, 0, qx, random_width(rng),
      BitWidth::kQ8, Scheme::kPCICN, rng);
  head.raw_logits = true;
  for (int c = 0; c < 4; ++c) head.out_mult.push_back(rng.uniform(1e-5, 0.02));
  net.layers.push_back(std::move(head));
  net.validate();

  Executor exec(net);
  for (int img_i = 0; img_i < 3; ++img_i) {
    FloatTensor img(net.layers.front().in_shape);
    rng.fill_uniform(img.vec(), -0.1, 1.1);
    const QInferenceResult ref = exec.run(img);
    const QInferenceResult planned = exec.run_planned(img);
    ASSERT_EQ(ref.logits.size(), planned.logits.size());
    for (std::size_t i = 0; i < ref.logits.size(); ++i) {
      // Bit-exact: both paths must accumulate the identical integers.
      ASSERT_EQ(ref.logits[i], planned.logits[i])
          << "trial " << GetParam() << " image " << img_i << " logit " << i;
    }
    EXPECT_EQ(ref.predicted, planned.predicted);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrials, PlannedChainExactness,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mixq::runtime
