// Forward-behaviour tests for the nn layers, including the sparse
// (masked) convolution execution paths that AntiDote's pruning drives,
// plus optimizer, schedules, init and checkpointing.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "base/error.h"
#include "base/io.h"
#include "base/rng.h"
#include "nn/batchnorm.h"
#include "nn/checkpoint.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/schedule.h"
#include "tensor/ops.h"

namespace antidote::nn {
namespace {

Tensor zero_channels(const Tensor& x, const std::vector<int>& kept) {
  Tensor out = x.clone();
  const int n = x.dim(0), c = x.dim(1);
  const int64_t hw = static_cast<int64_t>(x.dim(2)) * x.dim(3);
  std::vector<bool> keep(static_cast<size_t>(c), false);
  for (int k : kept) keep[static_cast<size_t>(k)] = true;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      if (keep[static_cast<size_t>(ch)]) continue;
      float* plane = out.data() + (static_cast<int64_t>(b) * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) plane[j] = 0.f;
    }
  }
  return out;
}

// --- Conv2d dense ---

TEST(Conv2d, IdentityKernelReproducesInput) {
  Conv2d conv(1, 1, 1, 1, 0, /*bias=*/false);
  conv.weight().value.fill(1.f);
  Rng rng(1);
  Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  EXPECT_TRUE(ops::allclose(y, x));
}

TEST(Conv2d, KnownAveragingKernel) {
  Conv2d conv(1, 1, 3, 1, 1, /*bias=*/false);
  conv.weight().value.fill(1.f / 9.f);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv.forward(x);
  // Center sees all 9 ones; corners see 4 (rest padding).
  EXPECT_NEAR(y.at({0, 0, 1, 1}), 1.f, 1e-6f);
  EXPECT_NEAR(y.at({0, 0, 0, 0}), 4.f / 9.f, 1e-6f);
}

TEST(Conv2d, BiasIsAdded) {
  Conv2d conv(1, 2, 1, 1, 0, /*bias=*/true);
  conv.weight().value.zero();
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.f;
  Tensor x = Tensor::ones({1, 1, 2, 2});
  Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1, 1}), -2.f);
}

TEST(Conv2d, StrideReducesResolution) {
  Conv2d conv(1, 1, 3, 2, 1, false);
  Tensor x({1, 1, 8, 8});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Conv2d, ReportsDenseMacs) {
  Conv2d conv(3, 8, 3, 1, 1, false);
  Rng rng(2);
  Tensor x = Tensor::randn({2, 3, 10, 10}, rng);
  conv.forward(x);
  // 2 samples * 8 filters * 100 positions * 27 patch entries.
  EXPECT_EQ(conv.last_macs(), 2LL * 8 * 100 * 27);
  EXPECT_EQ(conv.dense_macs_per_sample(10, 10), 8LL * 100 * 27);
}

TEST(Conv2d, RejectsWrongInputChannels) {
  Conv2d conv(3, 4, 3, 1, 1, false);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x), Error);
}

// --- Conv2d masked execution ---

class MaskedConvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    conv_ = std::make_unique<Conv2d>(4, 6, 3, 1, 1, /*bias=*/true);
    init_module(*conv_, rng);
    Rng xrng(7);
    x_ = Tensor::randn({2, 4, 6, 6}, xrng);
  }
  std::unique_ptr<Conv2d> conv_;
  Tensor x_;
};

TEST_F(MaskedConvTest, EmptyMasksMatchDense) {
  Tensor dense = conv_->forward(x_);
  conv_->set_runtime_masks(std::vector<ConvRuntimeMask>(2));
  Tensor masked = conv_->forward(x_);
  EXPECT_LT(ops::max_abs_diff(dense, masked), 1e-4f);
}

TEST_F(MaskedConvTest, ChannelMaskEqualsDenseOnZeroedInput) {
  const std::vector<int> kept = {0, 2};
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].channels = kept;
  masks[1].channels = kept;
  conv_->set_runtime_masks(masks);
  Tensor masked = conv_->forward(x_);

  Tensor dense_ref = conv_->forward(zero_channels(x_, kept));
  EXPECT_LT(ops::max_abs_diff(masked, dense_ref), 1e-4f);
}

TEST_F(MaskedConvTest, PerSampleMasksDiffer) {
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].channels = {0, 1};
  masks[1].channels = {2, 3};
  conv_->set_runtime_masks(masks);
  Tensor masked = conv_->forward(x_);

  Tensor ref0 = conv_->forward(zero_channels(x_, {0, 1}));
  Tensor ref1 = conv_->forward(zero_channels(x_, {2, 3}));
  const int64_t per_sample = masked.size() / 2;
  for (int64_t i = 0; i < per_sample; ++i) {
    EXPECT_NEAR(masked[i], ref0[i], 1e-3f);
    EXPECT_NEAR(masked[per_sample + i], ref1[per_sample + i], 1e-3f);
  }
}

TEST_F(MaskedConvTest, SpatialMaskEqualsDenseOnColumnMaskedInput) {
  // Spatial masks use an input-stationary shift-GEMM: the result must be
  // *exactly* the dense convolution over the input with the pruned columns
  // zeroed across all channels (no output position is skipped, so there is
  // no train/test mismatch).
  const std::vector<int> kept_pos = {0, 5, 17, 35};
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].positions = kept_pos;
  masks[1].positions = kept_pos;
  conv_->set_runtime_masks(masks);
  Tensor masked = conv_->forward(x_);

  Tensor x_zeroed = x_.clone();
  std::vector<bool> keep(36, false);
  for (int p : kept_pos) keep[static_cast<size_t>(p)] = true;
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 4; ++c) {
      for (int p = 0; p < 36; ++p) {
        if (!keep[static_cast<size_t>(p)]) {
          x_zeroed.at4(b, c, p / 6, p % 6) = 0.f;
        }
      }
    }
  }
  Tensor want = conv_->forward(x_zeroed);
  EXPECT_LT(ops::max_abs_diff(masked, want), 1e-4f);
}

TEST_F(MaskedConvTest, SpatialMaskMacsScaleWithKeptColumns) {
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].positions = {0, 1, 2, 3};  // 4 of 36 columns
  masks[1].positions = {10, 20};      // 2 of 36 columns
  conv_->set_runtime_masks(masks);
  conv_->forward(x_);
  // MACs = out_c * kept_columns * in_c * k*k per sample.
  EXPECT_EQ(conv_->last_macs(), 6LL * 4 * 4 * 9 + 6LL * 2 * 4 * 9);
}

TEST_F(MaskedConvTest, OutChannelMaskSkipsFilters) {
  const std::vector<int> kept_out = {1, 4};
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].out_channels = kept_out;
  masks[1].out_channels = kept_out;
  conv_->set_runtime_masks(masks);
  Tensor masked = conv_->forward(x_);
  Tensor dense = conv_->forward(x_);

  for (int b = 0; b < 2; ++b) {
    for (int oc = 0; oc < 6; ++oc) {
      const bool kept = (oc == 1 || oc == 4);
      for (int h = 0; h < 6; ++h) {
        for (int w = 0; w < 6; ++w) {
          if (kept) {
            EXPECT_NEAR(masked.at({b, oc, h, w}), dense.at({b, oc, h, w}),
                        1e-4f);
          } else {
            EXPECT_EQ(masked.at({b, oc, h, w}), 0.f);
          }
        }
      }
    }
  }
}

TEST(MaskedConv, SpatialMaskOnRectangularInput) {
  // h != w exercises the flattened-index arithmetic of the shift-GEMM.
  Rng rng(55);
  Conv2d conv(3, 4, 3, 1, 1, true);
  init_module(conv, rng);
  conv.bias().value = Tensor::randn({4}, rng);
  Tensor x = Tensor::randn({1, 3, 4, 7}, rng);

  const std::vector<int> kept = {1, 6, 13, 20, 27};  // of 28 columns
  std::vector<ConvRuntimeMask> masks(1);
  masks[0].positions = kept;
  conv.set_runtime_masks(masks);
  Tensor masked = conv.forward(x);

  Tensor x_zeroed = x.clone();
  std::vector<bool> keep(28, false);
  for (int p : kept) keep[static_cast<size_t>(p)] = true;
  for (int c = 0; c < 3; ++c) {
    for (int p = 0; p < 28; ++p) {
      if (!keep[static_cast<size_t>(p)]) x_zeroed.at4(0, c, p / 7, p % 7) = 0.f;
    }
  }
  Tensor want = conv.forward(x_zeroed);
  EXPECT_LT(ops::max_abs_diff(masked, want), 1e-4f);
}

TEST(MaskedConv, AllThreeMasksMatchExplicitReference) {
  Rng rng(56);
  Conv2d conv(4, 5, 3, 1, 1, true);
  init_module(conv, rng);
  conv.bias().value = Tensor::randn({5}, rng);
  Tensor x = Tensor::randn({1, 4, 5, 5}, rng);

  std::vector<ConvRuntimeMask> masks(1);
  masks[0].channels = {1, 3};
  masks[0].positions = {0, 6, 12, 18, 24};
  masks[0].out_channels = {0, 2, 4};
  conv.set_runtime_masks(masks);
  Tensor masked = conv.forward(x);

  // Reference: zero dropped channels and columns, dense conv, then zero
  // the skipped output filters entirely (no bias either).
  Tensor x_zeroed = x.clone();
  for (int c = 0; c < 4; ++c) {
    const bool ch_kept = (c == 1 || c == 3);
    for (int p = 0; p < 25; ++p) {
      const bool pos_kept =
          (p == 0 || p == 6 || p == 12 || p == 18 || p == 24);
      if (!ch_kept || !pos_kept) x_zeroed.at4(0, c, p / 5, p % 5) = 0.f;
    }
  }
  Tensor want = conv.forward(x_zeroed);
  for (int oc : {1, 3}) {
    for (int p = 0; p < 25; ++p) want.at4(0, oc, p / 5, p % 5) = 0.f;
  }
  EXPECT_LT(ops::max_abs_diff(masked, want), 1e-4f);
}

TEST_F(MaskedConvTest, MacsScaleWithAllThreeMasks) {
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].channels = {0, 2};      // 2 of 4 input channels
  masks[0].positions = {0, 1, 2};  // 3 of 36 positions
  masks[0].out_channels = {5};     // 1 of 6 filters
  masks[1] = masks[0];
  conv_->set_runtime_masks(masks);
  conv_->forward(x_);
  // Per sample: 1 filter * 3 positions * (2 ch * 9) patch = 54 MACs.
  EXPECT_EQ(conv_->last_macs(), 2 * 54);
}

TEST_F(MaskedConvTest, MasksAreConsumedByOneForward) {
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].channels = {0};
  masks[1].channels = {0};
  conv_->set_runtime_masks(masks);
  EXPECT_TRUE(conv_->has_pending_masks());
  conv_->forward(x_);
  EXPECT_FALSE(conv_->has_pending_masks());
  // Next forward is dense again.
  conv_->forward(x_);
  EXPECT_EQ(conv_->last_macs(), 2LL * 6 * 36 * 4 * 9);
}

TEST_F(MaskedConvTest, BackwardAfterMaskedForwardThrows) {
  std::vector<ConvRuntimeMask> masks(2);
  masks[0].channels = {0};
  masks[1].channels = {0};
  conv_->set_runtime_masks(masks);
  Tensor y = conv_->forward(x_);
  EXPECT_THROW(conv_->backward(y), Error);
}

TEST_F(MaskedConvTest, MaskBatchSizeMismatchThrows) {
  conv_->set_runtime_masks(std::vector<ConvRuntimeMask>(3));
  EXPECT_THROW(conv_->forward(x_), Error);
}

TEST_F(MaskedConvTest, RejectsOutOfRangeMaskIndices) {
  std::vector<ConvRuntimeMask> bad(2);
  bad[0].channels = {7};
  EXPECT_THROW(conv_->set_runtime_masks(bad), Error);
  std::vector<ConvRuntimeMask> bad2(2);
  bad2[0].out_channels = {6};
  EXPECT_THROW(conv_->set_runtime_masks(bad2), Error);
}

TEST_F(MaskedConvTest, RejectsDuplicateUnsortedAndNegativeMaskIndices) {
  // Index sets must be strictly increasing and positions non-negative:
  // a duplicate position would reach the spatial kernels' inverse table
  // once but the per-sample scatter twice, and a negative one would be an
  // out-of-bounds gather. Positions also need a conv that preserves its
  // grid (stride 1, 2 * pad == k - 1), checked here rather than after
  // bucketing, where a coarsened union would drop them silently.
  const auto rejects = [&](void (*set)(ConvRuntimeMask&),
                           Conv2d* conv = nullptr) {
    if (conv == nullptr) conv = conv_.get();
    std::vector<ConvRuntimeMask> bad(2);
    set(bad[1]);
    EXPECT_THROW(conv->set_runtime_masks(bad), Error);
  };
  rejects([](ConvRuntimeMask& m) { m.channels = {0, 0}; });
  rejects([](ConvRuntimeMask& m) { m.channels = {2, 1}; });
  rejects([](ConvRuntimeMask& m) { m.positions = {3, 3}; });
  rejects([](ConvRuntimeMask& m) { m.positions = {5, 2}; });
  rejects([](ConvRuntimeMask& m) { m.positions = {-1}; });
  rejects([](ConvRuntimeMask& m) { m.positions = {-2, 4, 9}; });
  rejects([](ConvRuntimeMask& m) { m.out_channels = {2, 2}; });
  rejects([](ConvRuntimeMask& m) { m.out_channels = {3, 1}; });
  Conv2d strided(4, 6, 3, 2, 1, false), unpadded(4, 6, 3, 1, 0, false);
  for (Conv2d* off_grid : {&strided, &unpadded}) {
    rejects([](ConvRuntimeMask& m) { m.positions = {0, 4, 9}; }, off_grid);
  }
  std::vector<ConvRuntimeMask> ok(2);
  ok[1].channels = {0, 2};
  ok[1].positions = {0, 4, 9};
  ok[1].out_channels = {1, 3};
  EXPECT_NO_THROW(conv_->set_runtime_masks(ok));
}

// --- Linear ---

TEST(Linear, MatchesManualAffine) {
  Linear fc(3, 2);
  fc.weight().value = Tensor::from_values({2, 3}, {1, 0, 0, 0, 1, 0});
  fc.bias().value = Tensor::from_values({2}, {0.5f, -0.5f});
  Tensor x = Tensor::from_values({1, 3}, {10, 20, 30});
  Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 10.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 19.5f);
  EXPECT_EQ(fc.last_macs(), 6);
}

// --- BatchNorm2d ---

TEST(BatchNorm, TrainingNormalizesBatch) {
  BatchNorm2d bn(2);
  Rng rng(3);
  Tensor x = Tensor::randn({4, 2, 5, 5}, rng, 3.f, 2.f);
  bn.set_training(true);
  Tensor y = bn.forward(x);
  // Per-channel mean ~0 and var ~1 after normalization (gamma=1, beta=0).
  Tensor mean = ops::channel_mean_nchw(y);
  for (int c = 0; c < 2; ++c) {
    double m = 0;
    for (int b = 0; b < 4; ++b) m += mean.at({b, c});
    EXPECT_NEAR(m / 4, 0.0, 1e-4);
  }
  double var = 0;
  for (int64_t i = 0; i < y.size(); ++i) var += double(y[i]) * y[i];
  EXPECT_NEAR(var / static_cast<double>(y.size()), 1.0, 0.05);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Rng rng(4);
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 5.f, 1.f);
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 1.f, 0.3f);

  bn.set_training(false);
  Tensor x = Tensor::full({1, 1, 2, 2}, 5.f);
  Tensor y = bn.forward(x);
  EXPECT_NEAR(y[0], 0.f, 0.4f);
}

TEST(BatchNorm, GammaBetaAffectOutput) {
  BatchNorm2d bn(1);
  bn.gamma().value[0] = 2.f;
  bn.beta().value[0] = 1.f;
  bn.set_training(false);  // running stats are mean 0, var 1
  Tensor x = Tensor::full({1, 1, 1, 1}, 3.f);
  Tensor y = bn.forward(x);
  EXPECT_NEAR(y[0], 2.f * 3.f + 1.f, 1e-3f);
}

// --- pooling ---

TEST(MaxPool, PicksWindowMaximum) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_values({1, 1, 2, 4},
                                 {1, 5, 2, 0,
                                  3, 4, 8, 7});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.f);
  EXPECT_FLOAT_EQ(y[1], 8.f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_values({1, 1, 2, 2}, {1, 9, 2, 3});
  pool.forward(x);
  Tensor dy = Tensor::from_values({1, 1, 1, 1}, {7.f});
  Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 0, 1}), 7.f);
  EXPECT_FLOAT_EQ(dx.at({0, 0, 0, 0}), 0.f);
}

TEST(AvgPool, ComputesWindowMean) {
  AvgPool2d pool(2);
  Tensor x = Tensor::from_values({1, 1, 2, 2}, {1, 2, 3, 6});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.f);
}

TEST(GlobalAvgPool, SqueezesToChannelMeans) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from_values({1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0}), 2.f);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 15.f);
}

// --- ReLU / Flatten / Dropout modules ---

TEST(ReLULayer, ForwardAndBackward) {
  ReLU relu;
  Tensor x = Tensor::from_values({1, 4}, {-1, 2, -3, 4});
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[3], 4.f);
  Tensor dy = Tensor::ones({1, 4});
  Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.f);
  EXPECT_FLOAT_EQ(dx[1], 1.f);
}

TEST(FlattenLayer, RoundTripsShape) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 60}));
  Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(DropoutLayer, EvalIsIdentity) {
  Dropout drop(0.5f);
  drop.set_training(false);
  Rng rng(5);
  Tensor x = Tensor::randn({4, 8}, rng);
  Tensor y = drop.forward(x);
  EXPECT_TRUE(ops::allclose(y, x, 0.f, 0.f));
}

TEST(DropoutLayer, TrainingZeroesAndRescales) {
  Dropout drop(0.5f, /*seed=*/11);
  drop.set_training(true);
  Tensor x = Tensor::ones({1, 10000});
  Tensor y = drop.forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.f);  // 1/(1-p)
    }
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.05);
}

TEST(DropoutLayer, RejectsInvalidP) {
  EXPECT_THROW(Dropout(1.f), Error);
  EXPECT_THROW(Dropout(-0.1f), Error);
}

// --- loss ---

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  Tensor logits({4, 10});
  const std::vector<int> labels = {0, 3, 5, 9};
  const double l = loss.forward(logits, labels);
  EXPECT_NEAR(l, std::log(10.0), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  SoftmaxCrossEntropy loss;
  Rng rng(6);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<int> labels = {1, 2, 4};
  loss.forward(logits, labels);
  Tensor g = loss.backward();
  for (int i = 0; i < 3; ++i) {
    double row = 0;
    for (int j = 0; j < 5; ++j) row += g.at({i, j});
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabel) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  const std::vector<int> labels = {3};
  EXPECT_THROW(loss.forward(logits, labels), Error);
}

// --- optimizer ---

TEST(Sgd, PlainStepDescendsGradient) {
  Parameter p("w", Tensor::from_values({2}, {1.f, -1.f}));
  p.grad = Tensor::from_values({2}, {0.5f, -0.5f});
  Sgd sgd({&p}, {.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
  EXPECT_FLOAT_EQ(p.value[1], -0.95f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p("w", Tensor::from_values({1}, {0.f}));
  Sgd sgd({&p}, {.lr = 1.0, .momentum = 0.5, .weight_decay = 0.0});
  p.grad.fill(1.f);
  sgd.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.f);
  p.grad.fill(1.f);
  sgd.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(Sgd, WeightDecayRespectsDecayFlag) {
  Parameter decayed("w", Tensor::from_values({1}, {1.f}));
  Parameter not_decayed("b", Tensor::from_values({1}, {1.f}),
                        /*weight_decay=*/false);
  Sgd sgd({&decayed, &not_decayed},
          {.lr = 0.1, .momentum = 0.0, .weight_decay = 1.0});
  sgd.zero_grad();
  sgd.step();
  EXPECT_FLOAT_EQ(decayed.value[0], 0.9f);      // decayed toward zero
  EXPECT_FLOAT_EQ(not_decayed.value[0], 1.f);   // untouched
}

// --- schedules ---

TEST(Schedules, CosineEndpoints) {
  CosineSchedule s(0.1, 10, 0.0);
  EXPECT_NEAR(s.lr(0), 0.1, 1e-9);
  EXPECT_NEAR(s.lr(9), 0.0, 1e-9);
  EXPECT_GT(s.lr(4), s.lr(5));  // monotone decreasing
}

TEST(Schedules, StepDecays) {
  StepSchedule s(1.0, {3, 6}, 0.1);
  EXPECT_DOUBLE_EQ(s.lr(2), 1.0);
  EXPECT_DOUBLE_EQ(s.lr(3), 0.1);
  EXPECT_NEAR(s.lr(7), 0.01, 1e-12);
}

TEST(Schedules, WarmupRampsUp) {
  auto s = WarmupSchedule(std::make_unique<ConstantSchedule>(1.0), 4);
  EXPECT_LT(s.lr(0), s.lr(3));
  EXPECT_DOUBLE_EQ(s.lr(4), 1.0);
}

// --- init ---

TEST(Init, KaimingScalesWithFanIn) {
  Rng rng(7);
  Tensor w({64, 16, 3, 3});
  kaiming_normal(w, rng);
  double sq = 0;
  for (int64_t i = 0; i < w.size(); ++i) sq += double(w[i]) * w[i];
  const double std_measured = std::sqrt(sq / static_cast<double>(w.size()));
  const double std_expected = std::sqrt(2.0 / (16 * 9));
  EXPECT_NEAR(std_measured, std_expected, 0.15 * std_expected);
}

// --- Sequential & checkpoint ---

TEST(Sequential, ChainsForwardAndParams) {
  Sequential seq;
  seq.add<Conv2d>(1, 2, 3, 1, 1, false);
  seq.add<ReLU>();
  seq.add<Flatten>();
  Rng rng(8);
  init_module(seq, rng);
  Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 32}));
  EXPECT_EQ(seq.parameters().size(), 1u);  // conv weight only
  Tensor dx = seq.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/antidote_ckpt_test.bin";
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CheckpointTest, RoundTripRestoresExactState) {
  Rng rng(9);
  Sequential a;
  a.add<Conv2d>(2, 3, 3, 1, 1, true);
  a.add<BatchNorm2d>(3);
  init_module(a, rng);
  // Touch BN running stats so buffers are non-trivial.
  a.set_training(true);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  a.forward(x);
  save_checkpoint(a, path_);

  Sequential b;
  b.add<Conv2d>(2, 3, 3, 1, 1, true);
  b.add<BatchNorm2d>(3);
  load_checkpoint(b, path_);

  a.set_training(false);
  b.set_training(false);
  Tensor ya = a.forward(x);
  Tensor yb = b.forward(x);
  EXPECT_TRUE(ops::allclose(ya, yb, 0.f, 0.f));
}

TEST_F(CheckpointTest, ArchitectureMismatchThrows) {
  Rng rng(10);
  Sequential a;
  a.add<Conv2d>(2, 3, 3, 1, 1, false);
  init_module(a, rng);
  save_checkpoint(a, path_);

  Sequential wrong_shape;
  wrong_shape.add<Conv2d>(2, 4, 3, 1, 1, false);
  EXPECT_THROW(load_checkpoint(wrong_shape, path_), Error);

  Sequential extra_layers;
  extra_layers.add<Conv2d>(2, 3, 3, 1, 1, false);
  extra_layers.add<BatchNorm2d>(3);
  EXPECT_THROW(load_checkpoint(extra_layers, path_), Error);
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/antidote_garbage.bin";
  {
    BinaryWriter w(path);
    w.write_u32(0x12345678);  // wrong magic
    w.close();
  }
  Sequential m;
  m.add<Conv2d>(1, 1, 1, 1, 0, false);
  EXPECT_THROW(load_checkpoint(m, path), Error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace antidote::nn
