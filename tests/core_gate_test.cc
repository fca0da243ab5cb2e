// AttentionGate behaviour: masking semantics, train/test phase split,
// consumer skip instructions, recovery across inputs, stats, enable/disable.
#include <gtest/gtest.h>

#include <cmath>

#include "base/error.h"
#include "base/rng.h"
#include "core/gate.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace antidote::core {
namespace {

// A feature map whose channel attentions are strictly increasing with the
// channel index (channel c has constant value c+1).
Tensor ramp_channels(int n, int c, int h, int w) {
  Tensor f({n, c, h, w});
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          f.at({b, ch, y, x}) = static_cast<float>(ch + 1);
        }
      }
    }
  }
  return f;
}

TEST(Gate, ZeroRatiosAreExactIdentity) {
  AttentionGate gate({.channel_drop = 0.f, .spatial_drop = 0.f}, nullptr,
                     false);
  Rng rng(1);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  Tensor y = gate.forward(x);
  EXPECT_TRUE(y.shares_storage(x));  // identity fast-path, no copy
}

TEST(Gate, DisabledGateIsIdentityEvenWithRatios) {
  AttentionGate gate({.channel_drop = 0.5f, .spatial_drop = 0.5f}, nullptr,
                     true);
  gate.set_enabled(false);
  Rng rng(2);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  Tensor y = gate.forward(x);
  EXPECT_TRUE(ops::allclose(y, x, 0.f, 0.f));
  EXPECT_EQ(gate.last_stats().samples, 0);
}

TEST(Gate, ChannelPruningZeroesLowestAttentionChannels) {
  AttentionGate gate({.channel_drop = 0.5f}, nullptr, false);
  gate.set_training(false);
  Tensor x = ramp_channels(1, 4, 2, 2);
  Tensor y = gate.forward(x);
  // Channels 0,1 (lowest attention) zeroed; 2,3 preserved.
  EXPECT_EQ(y.at({0, 0, 0, 0}), 0.f);
  EXPECT_EQ(y.at({0, 1, 1, 1}), 0.f);
  EXPECT_EQ(y.at({0, 2, 0, 0}), 3.f);
  EXPECT_EQ(y.at({0, 3, 1, 1}), 4.f);
  EXPECT_EQ(gate.last_masks()[0].channels, (std::vector<int>{2, 3}));
}

TEST(Gate, SpatialPruningZeroesLowestAttentionColumns) {
  AttentionGate gate({.spatial_drop = 0.75f}, nullptr, false);
  gate.set_training(false);
  // Position (1,1) has the largest channel-mean.
  Tensor x({1, 2, 2, 2});
  x.at({0, 0, 1, 1}) = 5.f;
  x.at({0, 1, 1, 1}) = 5.f;
  x.at({0, 0, 0, 0}) = 1.f;
  Tensor y = gate.forward(x);
  EXPECT_EQ(y.at({0, 0, 0, 0}), 0.f);  // pruned column
  EXPECT_EQ(y.at({0, 0, 1, 1}), 5.f);  // kept column, both channels
  EXPECT_EQ(y.at({0, 1, 1, 1}), 5.f);
  EXPECT_EQ(gate.last_masks()[0].positions, (std::vector<int>{3}));
}

TEST(Gate, PerInputMasksDifferAndRecover) {
  // The paper's key dynamic property: a channel pruned for one input is
  // recovered for another whose attention differs.
  AttentionGate gate({.channel_drop = 0.5f}, nullptr, false);
  gate.set_training(false);
  Tensor x({2, 2, 1, 1});
  x.at({0, 0, 0, 0}) = 10.f;  // sample 0: channel 0 dominates
  x.at({0, 1, 0, 0}) = 1.f;
  x.at({1, 0, 0, 0}) = 1.f;   // sample 1: channel 1 dominates
  x.at({1, 1, 0, 0}) = 10.f;
  gate.forward(x);
  EXPECT_EQ(gate.last_masks()[0].channels, (std::vector<int>{0}));
  EXPECT_EQ(gate.last_masks()[1].channels, (std::vector<int>{1}));
}

TEST(Gate, EvalForwardsMasksToConsumer) {
  nn::Conv2d consumer(4, 2, 3, 1, 1, false);
  AttentionGate gate({.channel_drop = 0.5f}, &consumer, true);
  gate.set_training(false);
  Tensor x = ramp_channels(1, 4, 3, 3);
  gate.forward(x);
  EXPECT_TRUE(consumer.has_pending_masks());
}

TEST(Gate, TrainingDoesNotForwardMasks) {
  nn::Conv2d consumer(4, 2, 3, 1, 1, false);
  AttentionGate gate({.channel_drop = 0.5f}, &consumer, true);
  gate.set_training(true);
  Tensor x = ramp_channels(2, 4, 3, 3);
  gate.forward(x);
  EXPECT_FALSE(consumer.has_pending_masks());
}

TEST(Gate, MisalignedGateForwardsOnlyChannelMasks) {
  nn::Conv2d consumer(4, 2, 3, 1, 1, false);
  AttentionGate gate({.channel_drop = 0.5f, .spatial_drop = 0.5f}, &consumer,
                     /*spatially_aligned=*/false);
  gate.set_training(false);
  Rng rng(3);
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  gate.forward(x);
  ASSERT_TRUE(consumer.has_pending_masks());
  // Drain the pending mask through a forward and check the consumer only
  // skipped channels (positions empty -> all positions computed).
  Tensor xin = Tensor::randn({1, 4, 4, 4}, rng);
  consumer.forward(xin);
  // 2 kept channels of 4: MACs = 2 filters * 16 positions * 2*9 patch.
  EXPECT_EQ(consumer.last_macs(), 2LL * 16 * 2 * 9);
}

TEST(Gate, ComputeCapLowersBothCountsAndKeepsTheTopByAttention) {
  // 4 channels at drop 0.5 keep 2 and 16 positions at drop 0.3 keep 11, so
  // a sample keeps 2/4 x 11/16 of the aligned consumer's MACs. A 0.05 cap
  // lowers channels to floor(0.05 / (11/16) * 4) = 0, floored at 1; 1/4 x
  // 11/16 is still over it, so positions drop to floor(0.05 / (1/4) * 16)
  // = 3. The ratios rank both dimensions, so the gate keeps the top
  // channel and the top 3 positions by attention, as select_kept_into
  // does at those counts.
  const int n = 2, c = 4, h = 4, w = 4, hw = h * w;
  nn::Conv2d consumer(c, 2, 3, 1, 1, false);
  AttentionGate gate({.channel_drop = 0.5f, .spatial_drop = 0.3f}, &consumer,
                     /*spatially_aligned=*/true);
  gate.set_training(false);
  ASSERT_TRUE(gate.masks_in_place());
  Rng rng(12);
  const auto pass = [&](double cap) {
    // Positive map values, so a zero in the masked map means "dropped".
    Tensor x({n, c, h, w});
    for (int64_t i = 0; i < x.size(); ++i) x[i] = rng.uniform_float(1.f, 2.f);
    const AttentionGate::AttentionOut att = gate.attention_out(n, c, h, w);
    for (int i = 0; i < n * c; ++i) att.channel[i] = rng.uniform_float(0, 1);
    for (int i = 0; i < n * hw; ++i) att.spatial[i] = rng.uniform_float(0, 1);
    gate.mask_in_place(x, cap);
    return x;
  };

  const Tensor x = pass(0.05);
  const AttentionGate::Stats& s = gate.last_stats();
  EXPECT_EQ(s.capped, n);
  EXPECT_EQ(s.kept_channels, n * 1);
  EXPECT_EQ(s.kept_positions, n * 3);
  EXPECT_TRUE(consumer.has_pending_masks());
  const Tensor ch_att = gate.last_channel_attention();
  const Tensor sp_att = gate.last_spatial_attention();
  SelectScratch scratch;
  std::vector<int> top_ch, top_pos;
  for (int b = 0; b < n; ++b) {
    select_kept_into(std::span<const float>(ch_att.data() + b * c, c), 1,
                     MaskOrder::kAttention, rng, scratch, top_ch);
    select_kept_into(std::span<const float>(sp_att.data() + b * hw, hw), 3,
                     MaskOrder::kAttention, rng, scratch, top_pos);
    const nn::ConvRuntimeMask& m = gate.last_masks()[static_cast<size_t>(b)];
    EXPECT_EQ(m.channels, top_ch) << "sample " << b;
    EXPECT_EQ(m.positions, top_pos) << "sample " << b;
    // The map keeps exactly the kept channel's kept positions.
    const std::vector<uint8_t> keep_ch = kept_to_mask(top_ch, c);
    const std::vector<uint8_t> keep_pos = kept_to_mask(top_pos, hw);
    for (int ch = 0; ch < c; ++ch) {
      for (int j = 0; j < hw; ++j) {
        const bool kept = keep_ch[static_cast<size_t>(ch)] &&
                          keep_pos[static_cast<size_t>(j)];
        EXPECT_EQ(x[(static_cast<int64_t>(b) * c + ch) * hw + j] != 0.f,
                  kept)
            << "sample " << b << " channel " << ch << " position " << j;
      }
    }
  }

  // Uncapped, the same gate keeps the ratios' counts.
  pass(1.0);
  EXPECT_EQ(gate.last_stats().capped, 0);
  EXPECT_EQ(gate.last_stats().kept_channels, n * 2);
  EXPECT_EQ(gate.last_stats().kept_positions, n * 11);
}

TEST(Gate, SetForwardToConsumerOffMasksOnly) {
  nn::Conv2d consumer(4, 2, 3, 1, 1, false);
  AttentionGate gate({.channel_drop = 0.5f}, &consumer, true);
  gate.set_training(false);
  gate.set_forward_to_consumer(false);
  Tensor x = ramp_channels(1, 4, 3, 3);
  gate.forward(x);
  EXPECT_FALSE(consumer.has_pending_masks());
}

TEST(Gate, BackwardAppliesSameBinaryMask) {
  AttentionGate gate({.channel_drop = 0.5f}, nullptr, false);
  gate.set_training(true);
  Tensor x = ramp_channels(1, 4, 2, 2);
  gate.forward(x);
  Tensor dy = Tensor::ones({1, 4, 2, 2});
  Tensor dx = gate.backward(dy);
  EXPECT_EQ(dx.at({0, 0, 0, 0}), 0.f);  // dropped channel blocks gradient
  EXPECT_EQ(dx.at({0, 3, 0, 0}), 1.f);  // kept channel passes gradient
}

TEST(Gate, BackwardIdentityWhenGateWasIdentity) {
  AttentionGate gate({.channel_drop = 0.f}, nullptr, false);
  Rng rng(4);
  Tensor x = Tensor::randn({1, 2, 2, 2}, rng);
  gate.forward(x);
  Tensor dy = Tensor::randn({1, 2, 2, 2}, rng);
  Tensor dx = gate.backward(dy);
  EXPECT_TRUE(ops::allclose(dx, dy, 0.f, 0.f));
}

TEST(Gate, StatsCountKeptFractions) {
  AttentionGate gate({.channel_drop = 0.25f, .spatial_drop = 0.5f}, nullptr,
                     false);
  gate.set_training(false);
  Rng rng(5);
  Tensor x = Tensor::randn({4, 8, 4, 4}, rng);
  gate.forward(x);
  const auto& s = gate.last_stats();
  EXPECT_EQ(s.samples, 4);
  EXPECT_EQ(s.channels, 8);
  EXPECT_EQ(s.positions, 16);
  EXPECT_EQ(s.kept_channels, 4 * 6);   // 8 - round(0.25*8) = 6 per sample
  EXPECT_EQ(s.kept_positions, 4 * 8);  // 16 - 8
}

TEST(Gate, RandomOrderIsSeededDeterministic) {
  GateConfig cfg{.channel_drop = 0.5f, .order = MaskOrder::kRandom,
                 .seed = 321};
  AttentionGate g1(cfg, nullptr, false);
  AttentionGate g2(cfg, nullptr, false);
  g1.set_training(false);
  g2.set_training(false);
  Rng rng(6);
  Tensor x = Tensor::randn({2, 8, 3, 3}, rng);
  g1.forward(x);
  g2.forward(x);
  EXPECT_EQ(g1.last_masks()[0].channels, g2.last_masks()[0].channels);
  EXPECT_EQ(g1.last_masks()[1].channels, g2.last_masks()[1].channels);
}

TEST(Gate, InverseOrderPrunesTopChannels) {
  AttentionGate gate({.channel_drop = 0.5f,
                      .order = MaskOrder::kInverseAttention},
                     nullptr, false);
  gate.set_training(false);
  Tensor x = ramp_channels(1, 4, 2, 2);
  Tensor y = gate.forward(x);
  // Inverse keeps the LOWEST-attention channels: 0 and 1.
  EXPECT_EQ(gate.last_masks()[0].channels, (std::vector<int>{0, 1}));
  EXPECT_EQ(y.at({0, 3, 0, 0}), 0.f);
  EXPECT_EQ(y.at({0, 0, 0, 0}), 1.f);
}

TEST(Gate, SoftSigmoidModeReweightsWithoutPruning) {
  GateConfig cfg{.channel_drop = 0.5f, .spatial_drop = 0.5f,
                 .mode = GateMode::kSoftSigmoid};
  nn::Conv2d consumer(4, 2, 3, 1, 1, false);
  AttentionGate gate(cfg, &consumer, true);
  gate.set_training(false);
  Tensor x = ramp_channels(1, 4, 2, 2);
  Tensor y = gate.forward(x);
  // Nothing is zeroed and no consumer mask is installed (no FLOPs saved).
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_NE(y[i], 0.f);
  EXPECT_FALSE(consumer.has_pending_masks());
  // Stronger-attention channels keep more of their magnitude: the ratio
  // y/x equals sigmoid(ch_att) * sigmoid(sp_att), increasing in channel.
  const float scale0 = y.at({0, 0, 0, 0}) / x.at({0, 0, 0, 0});
  const float scale3 = y.at({0, 3, 0, 0}) / x.at({0, 3, 0, 0});
  EXPECT_LT(scale0, scale3);
  EXPECT_GT(scale0, 0.f);
  EXPECT_LT(scale3, 1.f);
}

TEST(Gate, SoftModeBackwardUsesSameScales) {
  GateConfig cfg{.channel_drop = 0.5f, .mode = GateMode::kSoftSigmoid};
  AttentionGate gate(cfg, nullptr, false);
  gate.set_training(true);
  Tensor x = ramp_channels(1, 2, 2, 2);
  Tensor y = gate.forward(x);
  Tensor dy = Tensor::ones({1, 2, 2, 2});
  Tensor dx = gate.backward(dy);
  // dx/dy equals y/x (the smooth scale map).
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(dx[i], y[i] / x[i], 1e-5f);
  }
}

TEST(Gate, SetRatiosValidates) {
  AttentionGate gate({}, nullptr, false);
  EXPECT_NO_THROW(gate.set_ratios(0.3f, 0.7f));
  EXPECT_THROW(gate.set_ratios(-0.1f, 0.f), Error);
  EXPECT_THROW(gate.set_ratios(0.f, 1.5f), Error);
}

}  // namespace
}  // namespace antidote::core
