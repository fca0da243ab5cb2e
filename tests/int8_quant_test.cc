// Int8 regime semantics above the kernel layer: quantize -> dequantize
// round-trip error bounds, zero-row and clamp edge cases, the full-set
// int8 panel equalling the quantized weights, and an end-to-end
// small-plan check: int8 logits stay close to f32 and a reserved arena
// executes the int8 regime with zero growths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/conv_kernels.h"
#include "nn/execution_context.h"
#include "nn/int8_kernels.h"
#include "plan/plan.h"
#include "tensor/tensor.h"

namespace antidote {
namespace {

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Int8Quant, WeightRoundTripWithinHalfScale) {
  Rng rng(61);
  const int rows = 9;
  const int64_t k = 23;  // ragged: row_stride pads to 24
  const auto w = random_vec(static_cast<size_t>(rows) * k, rng);
  const int64_t stride = nn::int8_align4(k);
  std::vector<int8_t> q(static_cast<size_t>(rows) * stride, 99);
  std::vector<float> scale(rows);
  std::vector<int32_t> wsum(rows);
  nn::quantize_weights_rowwise(w.data(), rows, k, q.data(), stride,
                               scale.data(), wsum.data());
  for (int r = 0; r < rows; ++r) {
    float maxabs = 0.f;
    for (int64_t i = 0; i < k; ++i) {
      maxabs = std::max(maxabs, std::abs(w[static_cast<size_t>(r) * k + i]));
    }
    EXPECT_NEAR(scale[r], maxabs / 127.f, 1e-7f * maxabs) << "row " << r;
    int32_t sum = 0;
    for (int64_t i = 0; i < stride; ++i) {
      const int8_t qi = q[static_cast<size_t>(r) * stride + i];
      sum += qi;
      if (i >= k) {
        EXPECT_EQ(qi, 0) << "pad byte row " << r << " i " << i;
        continue;
      }
      EXPECT_GE(qi, -127);
      EXPECT_LE(qi, 127);
      // Symmetric nearest quantization: the reconstruction error is at
      // most half a quantization step.
      EXPECT_LE(std::abs(w[static_cast<size_t>(r) * k + i] -
                         float(qi) * scale[r]),
                scale[r] * 0.5f + 1e-7f)
          << "row " << r << " i " << i;
    }
    EXPECT_EQ(wsum[r], sum) << "row " << r;
  }
}

TEST(Int8Quant, WeightZeroRowGetsUnitScale) {
  const int rows = 2;
  const int64_t k = 5;
  std::vector<float> w(static_cast<size_t>(rows) * k, 0.f);
  w[static_cast<size_t>(k)] = 3.f;  // row 1 non-zero, row 0 all zero
  const int64_t stride = nn::int8_align4(k);
  std::vector<int8_t> q(static_cast<size_t>(rows) * stride, 99);
  std::vector<float> scale(rows);
  std::vector<int32_t> wsum(rows);
  nn::quantize_weights_rowwise(w.data(), rows, k, q.data(), stride,
                               scale.data(), wsum.data());
  // All-zero rows take scale 1.0 (not 0) so the dequant multiply is
  // well-defined; their bytes and wsum are all zero.
  EXPECT_EQ(scale[0], 1.f);
  EXPECT_EQ(wsum[0], 0);
  for (int64_t i = 0; i < stride; ++i) EXPECT_EQ(q[static_cast<size_t>(i)], 0);
  EXPECT_EQ(q[static_cast<size_t>(stride)], 127);  // 3.0 / (3.0/127)
}

TEST(Int8Quant, ActivationRoundTripWithinHalfScale) {
  Rng rng(62);
  const int64_t k = 14, n = 19;
  const auto b = random_vec(static_cast<size_t>(k * n), rng);
  const int64_t k4 = nn::int8_align4(k);
  std::vector<uint8_t> qb(static_cast<size_t>(k4 * n), 0);
  float maxabs = 0.f;
  for (const float x : b) maxabs = std::max(maxabs, std::abs(x));
  EXPECT_EQ(nn::max_abs(b.data(), k * n), maxabs);
  const float sa =
      nn::quantize_activations_scalar(b.data(), k, n, maxabs, qb.data());
  EXPECT_NEAR(sa, maxabs / 127.f, 1e-7f * maxabs);
  // Decode the VNNI layout: row 4*kq+t of column j lives at
  // qb[(kq*n + j)*4 + t], biased by 128.
  for (int64_t r = 0; r < k4; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t byte = qb[static_cast<size_t>(((r / 4) * n + j) * 4 +
                                                  (r % 4))];
      const int qv = int(byte) - 128;
      if (r >= k) {
        EXPECT_EQ(qv, 0) << "pad row " << r;
        continue;
      }
      EXPECT_GE(qv, -127);
      EXPECT_LE(qv, 127);
      EXPECT_LE(std::abs(b[static_cast<size_t>(r * n + j)] - float(qv) * sa),
                sa * 0.5f + 1e-7f)
          << "row " << r << " col " << j;
    }
  }
}

// --- kept-filter panels ----------------------------------------------------

TEST(Int8Quant, FullSetPanelIsTheQuantizedWeightsByteForByte) {
  // Keep-all groups read Int8ConvWeights in place instead of packing, which
  // is exact only because a full-set panel reproduces its rows (zero pad
  // included), byte sums and scales. 3 x 3x3 = 27 bytes per row pads to 28.
  const int out_c = 5, in_c = 3, kk = 9;
  Rng rng(23);
  const auto w = random_vec(static_cast<size_t>(out_c) * in_c * kk, rng);
  nn::Int8ConvWeights qw;
  nn::quantize_conv_weights(w.data(), out_c, in_c, kk, qw);
  ASSERT_EQ(qw.row_stride, 28);
  std::vector<int> ch(in_c), oc(out_c);
  for (int i = 0; i < in_c; ++i) ch[static_cast<size_t>(i)] = i;
  for (int i = 0; i < out_c; ++i) oc[static_cast<size_t>(i)] = i;
  std::vector<int8_t> q(qw.q.size(), 99);
  std::vector<int32_t> wsum(static_cast<size_t>(out_c), -1);
  std::vector<float> scale(static_cast<size_t>(out_c), -1.f);
  nn::pack_weight_panel_i8_into(qw, kk, ch, oc, q.data(), wsum.data(),
                                scale.data());
  EXPECT_EQ(std::memcmp(q.data(), qw.q.data(), q.size()), 0);
  EXPECT_EQ(std::memcmp(wsum.data(), qw.wsum.data(),
                        wsum.size() * sizeof(int32_t)),
            0);
  EXPECT_EQ(std::memcmp(scale.data(), qw.scale.data(),
                        scale.size() * sizeof(float)),
            0);
}

// --- plan-level regime ------------------------------------------------------

TEST(Int8Quant, Int8PlanStaysCloseToF32WithZeroGrowthsReserved) {
  Rng rng(65);
  auto net = models::make_model("small_cnn", 10, 1.0f, rng);
  net->set_training(false);
  const int batch = 4;
  Tensor x = Tensor::randn({batch, 3, 16, 16}, rng);

  nn::ExecutionContext ctx;
  ctx.begin_pass();
  const Tensor f32_y = net->forward(x, ctx).clone();

  net->set_numeric_regime(plan::NumericRegime::kInt8);
  plan::InferencePlan& plan = net->inference_plan(3, 16, 16);
  EXPECT_EQ(plan.regime(), plan::NumericRegime::kInt8);
  // Fresh context: reserve ahead of the first pass, like a serving
  // replica would (the old context's lazily-grown arena coalesces on
  // begin_pass, which counts as a growth and would muddy the assertion).
  nn::ExecutionContext i8_ctx;
  plan.reserve(i8_ctx.workspace(), batch);
  const int64_t grows = i8_ctx.workspace().grow_count();

  i8_ctx.begin_pass();
  Tensor staged = i8_ctx.alloc(x.shape());
  std::memcpy(staged.data(), x.data(),
              static_cast<size_t>(x.size()) * sizeof(float));
  const Tensor i8_y = net->forward(staged, i8_ctx);
  EXPECT_EQ(i8_ctx.workspace().grow_count(), grows);

  ASSERT_TRUE(f32_y.same_shape(i8_y));
  double max_diff = 0.0, max_ref = 0.0;
  for (int64_t i = 0; i < f32_y.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(double(f32_y[i]) - i8_y[i]));
    max_ref = std::max(max_ref, std::abs(double(f32_y[i])));
  }
  // Same relative budget as the micro_e2e accuracy gate.
  EXPECT_GT(max_ref, 0.0);
  EXPECT_LE(max_diff / max_ref, 0.05);
  // And the regime is sticky across plan refetches.
  EXPECT_EQ(net->inference_plan(3, 16, 16).regime(),
            plan::NumericRegime::kInt8);
}

}  // namespace
}  // namespace antidote
