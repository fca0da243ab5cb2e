// Unit tests for the Tensor class and elementwise/reduction/selection ops.
#include <gtest/gtest.h>

#include <cmath>

#include "base/error.h"
#include "base/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace antidote {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.f);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), Error);
  EXPECT_THROW(Tensor({-1}), Error);
}

TEST(Tensor, FillAndAt) {
  Tensor t({2, 2});
  t.fill(3.f);
  EXPECT_EQ(t.at({1, 1}), 3.f);
  t.at({0, 1}) = 5.f;
  EXPECT_EQ(t[1], 5.f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0, 0, 0}), Error);
}

TEST(Tensor, NegativeDimIndexCountsFromEnd) {
  Tensor t({4, 5, 6});
  EXPECT_EQ(t.dim(-1), 6);
  EXPECT_EQ(t.dim(-3), 4);
  EXPECT_THROW(t.dim(3), Error);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a({3});
  a.fill(1.f);
  Tensor b = a;        // shares storage
  Tensor c = a.clone();  // deep copy
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_FALSE(a.shares_storage(c));
  b[0] = 9.f;
  EXPECT_EQ(a[0], 9.f);
  EXPECT_EQ(c[0], 1.f);
}

TEST(Tensor, ReshapeSharesStorageAndInfersWildcard) {
  Tensor a({2, 6});
  a[7] = 4.f;
  Tensor b = a.reshape({3, -1});
  EXPECT_EQ(b.dim(1), 4);
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_EQ(b.at({1, 3}), 4.f);
}

TEST(Tensor, ReshapeRejectsBadSizes) {
  Tensor a({2, 6});
  EXPECT_THROW(a.reshape({5, -1}), Error);
  EXPECT_THROW(a.reshape({2, 5}), Error);
  EXPECT_THROW(a.reshape({-1, -1}), Error);
}

TEST(Tensor, FirstRowsSharesStorageAndRejectsBadCounts) {
  Tensor a({4, 2, 3});
  a.at({1, 1, 2}) = 5.f;
  Tensor b = a.first_rows(2);
  EXPECT_EQ(b.shape(), (std::vector<int>{2, 2, 3}));
  EXPECT_EQ(b.size(), 12);
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_EQ(b.at({1, 1, 2}), 5.f);
  EXPECT_THROW(a.first_rows(0), Error);
  EXPECT_THROW(a.first_rows(5), Error);
  EXPECT_THROW(Tensor().first_rows(1), Error);
}

TEST(Tensor, FromValues) {
  Tensor t = Tensor::from_values({2, 2}, {1.f, 2.f, 3.f, 4.f});
  EXPECT_EQ(t.at({1, 0}), 3.f);
  EXPECT_THROW(Tensor::from_values({2}, {1.f, 2.f, 3.f}), Error);
}

TEST(Tensor, RandnIsSeeded) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::randn({100}, r1);
  Tensor b = Tensor::randn({100}, r2);
  EXPECT_TRUE(ops::allclose(a, b, 0.f, 0.f));
}

TEST(Tensor, CopyFromChecksSize) {
  Tensor a({4}), b({2, 2}), c({5});
  EXPECT_NO_THROW(a.copy_from(b));  // same element count
  EXPECT_THROW(a.copy_from(c), Error);
}

// --- ops ---

TEST(Ops, ElementwiseArithmetic) {
  Tensor a = Tensor::from_values({3}, {1.f, 2.f, 3.f});
  Tensor b = Tensor::from_values({3}, {10.f, 20.f, 30.f});
  EXPECT_EQ(ops::add(a, b)[1], 22.f);
  EXPECT_EQ(ops::sub(b, a)[2], 27.f);
  EXPECT_EQ(ops::mul(a, b)[0], 10.f);
  Tensor c = a.clone();
  ops::scale_(c, 2.f);
  EXPECT_EQ(c[2], 6.f);
  ops::axpy_(c, -1.f, a);
  EXPECT_EQ(c[2], 3.f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(ops::add(a, b), Error);
  EXPECT_THROW(ops::mul(a, b), Error);
}

TEST(Ops, ReluClampsNegatives) {
  Tensor x = Tensor::from_values({4}, {-1.f, 0.f, 2.f, -3.f});
  Tensor y = ops::relu(x);
  EXPECT_EQ(y[0], 0.f);
  EXPECT_EQ(y[2], 2.f);
}

TEST(Ops, ReluBackwardGatesGradient) {
  Tensor x = Tensor::from_values({4}, {-1.f, 0.f, 2.f, -3.f});
  Tensor dy = Tensor::from_values({4}, {1.f, 1.f, 1.f, 1.f});
  Tensor dx = ops::relu_backward(dy, x);
  EXPECT_EQ(dx[0], 0.f);
  EXPECT_EQ(dx[1], 0.f);  // gradient at exactly zero is zero
  EXPECT_EQ(dx[2], 1.f);
}

TEST(Ops, Reductions) {
  Tensor x = Tensor::from_values({4}, {1.f, -2.f, 3.f, -4.f});
  EXPECT_FLOAT_EQ(ops::sum(x), -2.f);
  EXPECT_FLOAT_EQ(ops::mean(x), -0.5f);
  EXPECT_FLOAT_EQ(ops::max_value(x), 3.f);
  EXPECT_FLOAT_EQ(ops::min_value(x), -4.f);
  EXPECT_FLOAT_EQ(ops::l1_norm(x), 10.f);
  EXPECT_FLOAT_EQ(ops::l2_norm(x), std::sqrt(30.f));
  EXPECT_FLOAT_EQ(ops::mean_abs(x), 2.5f);
}

TEST(Ops, ChannelMeanNchwMatchesEq1) {
  // Eq. 1: A_channel(F, c) = mean over H*W.
  Tensor x({1, 2, 2, 2});
  // channel 0: 1,2,3,4 -> mean 2.5; channel 1: all 8 -> mean 8.
  x.at({0, 0, 0, 0}) = 1.f;
  x.at({0, 0, 0, 1}) = 2.f;
  x.at({0, 0, 1, 0}) = 3.f;
  x.at({0, 0, 1, 1}) = 4.f;
  for (int h = 0; h < 2; ++h)
    for (int w = 0; w < 2; ++w) x.at({0, 1, h, w}) = 8.f;
  Tensor att = ops::channel_mean_nchw(x);
  EXPECT_EQ(att.shape(), (std::vector<int>{1, 2}));
  EXPECT_FLOAT_EQ(att.at({0, 0}), 2.5f);
  EXPECT_FLOAT_EQ(att.at({0, 1}), 8.f);
}

TEST(Ops, SpatialMeanNchwMatchesEq2) {
  // Eq. 2: A_spatial(F, h, w) = mean over channels.
  Tensor x({1, 3, 1, 2});
  for (int c = 0; c < 3; ++c) {
    x.at({0, c, 0, 0}) = static_cast<float>(c);      // mean 1
    x.at({0, c, 0, 1}) = static_cast<float>(2 * c);  // mean 2
  }
  Tensor att = ops::spatial_mean_nchw(x);
  EXPECT_EQ(att.shape(), (std::vector<int>{1, 1, 2}));
  EXPECT_FLOAT_EQ(att.at({0, 0, 0}), 1.f);
  EXPECT_FLOAT_EQ(att.at({0, 0, 1}), 2.f);
}

TEST(Ops, ArgmaxRows) {
  Tensor logits = Tensor::from_values({2, 3}, {0.f, 5.f, 1.f,
                                               7.f, 2.f, 7.f});
  const auto idx = ops::argmax_rows(logits);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);  // tie -> lowest index
}

TEST(Ops, TopkIndicesDescending) {
  const std::vector<float> v = {0.1f, 0.9f, 0.5f, 0.9f, 0.2f};
  const auto top3 = ops::topk_indices(v, 3);
  EXPECT_EQ(top3, (std::vector<int>{1, 3, 2}));  // ties by lower index first
}

TEST(Ops, TopkEdgeCases) {
  const std::vector<float> v = {1.f, 2.f};
  EXPECT_TRUE(ops::topk_indices(v, 0).empty());
  EXPECT_EQ(ops::topk_indices(v, 2).size(), 2u);
  EXPECT_THROW(ops::topk_indices(v, 3), Error);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 7}, rng, 0.f, 5.f);
  Tensor p = ops::softmax_rows(logits);
  for (int i = 0; i < 4; ++i) {
    double row_sum = 0;
    for (int j = 0; j < 7; ++j) {
      const float v = p.at({i, j});
      EXPECT_GT(v, 0.f);
      row_sum += v;
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-5);
  }
  EXPECT_EQ(ops::argmax_rows(p), ops::argmax_rows(logits));
}

TEST(Ops, SoftmaxStableForHugeLogits) {
  Tensor logits = Tensor::from_values({1, 2}, {1000.f, 1001.f});
  Tensor p = ops::softmax_rows(logits);
  EXPECT_NEAR(p.at({0, 0}) + p.at({0, 1}), 1.f, 1e-5f);
  EXPECT_GT(p.at({0, 1}), p.at({0, 0}));
}

TEST(Ops, AccuracyCountsMatches) {
  Tensor logits = Tensor::from_values({3, 2}, {1.f, 0.f,
                                               0.f, 1.f,
                                               1.f, 0.f});
  const std::vector<int> labels = {0, 1, 1};
  EXPECT_NEAR(ops::accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Ops, AllcloseAndMaxAbsDiff) {
  Tensor a = Tensor::from_values({2}, {1.f, 2.f});
  Tensor b = Tensor::from_values({2}, {1.f, 2.00001f});
  EXPECT_TRUE(ops::allclose(a, b));
  EXPECT_NEAR(ops::max_abs_diff(a, b), 1e-5f, 1e-6f);
  Tensor c({3});
  EXPECT_FALSE(ops::allclose(a, c));
}

}  // namespace
}  // namespace antidote
