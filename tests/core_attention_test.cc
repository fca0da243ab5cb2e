// Attention coefficients (Eq. 1 / Eq. 2) and top-k mask generation
// (Eq. 3 / Eq. 4), including the ordering variants of Fig. 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "base/error.h"
#include "core/attention.h"
#include "core/mask.h"
#include "tensor/ops.h"

namespace antidote::core {
namespace {

TEST(Attention, ChannelAttentionIsSpatialMean) {
  Tensor f({2, 3, 2, 2});
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 3; ++c) {
      for (int j = 0; j < 4; ++j) {
        f.at({b, c, j / 2, j % 2}) = static_cast<float>(b * 10 + c);
      }
    }
  }
  Tensor a = channel_attention(f);
  EXPECT_EQ(a.shape(), (std::vector<int>{2, 3}));
  EXPECT_FLOAT_EQ(a.at({0, 2}), 2.f);
  EXPECT_FLOAT_EQ(a.at({1, 0}), 10.f);
}

TEST(Attention, SpatialAttentionIsChannelMean) {
  Tensor f({1, 4, 2, 2});
  for (int c = 0; c < 4; ++c) f.at({0, c, 1, 1}) = static_cast<float>(c);
  Tensor a = spatial_attention(f);
  EXPECT_EQ(a.shape(), (std::vector<int>{1, 2, 2}));
  EXPECT_FLOAT_EQ(a.at({0, 1, 1}), 1.5f);  // mean of 0,1,2,3
  EXPECT_FLOAT_EQ(a.at({0, 0, 0}), 0.f);
}

TEST(Attention, RequiresNchw) {
  Tensor f({3, 4});
  EXPECT_THROW(channel_attention(f), Error);
  EXPECT_THROW(spatial_attention(f), Error);
}

// --- kept_count (Eq. 3's k = n - round(r*n), >= 1) ---

TEST(Mask, KeptCountArithmetic) {
  EXPECT_EQ(kept_count(10, 0.f), 10);
  EXPECT_EQ(kept_count(10, 0.2f), 8);
  EXPECT_EQ(kept_count(10, 0.25f), 7);  // lround(2.5) = 3 dropped
  EXPECT_EQ(kept_count(10, 0.9f), 1);
  EXPECT_EQ(kept_count(10, 1.f), 1);  // never drop everything
  EXPECT_EQ(kept_count(1, 0.99f), 1);
}

TEST(Mask, KeptCountRejectsBadInput) {
  EXPECT_THROW(kept_count(0, 0.5f), Error);
  EXPECT_THROW(kept_count(10, -0.1f), Error);
  EXPECT_THROW(kept_count(10, 1.1f), Error);
}

// --- select_kept orderings ---

TEST(Mask, AttentionOrderKeepsTopEntries) {
  const std::vector<float> att = {0.1f, 0.9f, 0.5f, 0.7f, 0.2f};
  Rng rng(1);
  const auto kept = select_kept(att, 0.4f, MaskOrder::kAttention, rng);
  EXPECT_EQ(kept, (std::vector<int>{1, 2, 3}));  // top-3, sorted
}

TEST(Mask, InverseOrderKeepsBottomEntries) {
  const std::vector<float> att = {0.1f, 0.9f, 0.5f, 0.7f, 0.2f};
  Rng rng(1);
  const auto kept = select_kept(att, 0.4f, MaskOrder::kInverseAttention, rng);
  EXPECT_EQ(kept, (std::vector<int>{0, 2, 4}));  // bottom-3, sorted
}

TEST(Mask, RandomOrderKeepsCorrectCountAndVaries) {
  const std::vector<float> att(100, 1.f);
  Rng rng(7);
  const auto a = select_kept(att, 0.5f, MaskOrder::kRandom, rng);
  const auto b = select_kept(att, 0.5f, MaskOrder::kRandom, rng);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_NE(a, b);  // two draws differ
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  std::set<int> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Mask, ZeroDropKeepsEverything) {
  const std::vector<float> att = {3.f, 1.f, 2.f};
  Rng rng(2);
  for (MaskOrder order : {MaskOrder::kAttention, MaskOrder::kRandom,
                          MaskOrder::kInverseAttention}) {
    const auto kept = select_kept(att, 0.f, order, rng);
    EXPECT_EQ(kept, (std::vector<int>{0, 1, 2}));
  }
}

TEST(Mask, FullDropStillKeepsOne) {
  const std::vector<float> att = {3.f, 1.f, 2.f};
  Rng rng(2);
  const auto kept = select_kept(att, 1.f, MaskOrder::kAttention, rng);
  EXPECT_EQ(kept, (std::vector<int>{0}));  // the highest-attention entry
}

TEST(Mask, AttentionAndInverseArePerfectlyOpposed) {
  // With distinct values and 50% drop on an even count, the two keep sets
  // partition the index set.
  std::vector<float> att;
  for (int i = 0; i < 10; ++i) att.push_back(0.1f * static_cast<float>(i));
  Rng rng(3);
  const auto top = select_kept(att, 0.5f, MaskOrder::kAttention, rng);
  const auto bottom = select_kept(att, 0.5f, MaskOrder::kInverseAttention,
                                  rng);
  std::set<int> all(top.begin(), top.end());
  all.insert(bottom.begin(), bottom.end());
  EXPECT_EQ(all.size(), 10u);
  EXPECT_EQ(top.size() + bottom.size(), 10u);
}

// The sort-based definition of each order: rank every index (value
// descending for attention, ascending for inverse, ties to the lower
// index), keep the first k, return them ascending. kRandom keeps the first
// k of the same permutation draw.
std::vector<int> reference_kept(const std::vector<float>& att, int k,
                                MaskOrder order, Rng& rng) {
  const int n = static_cast<int>(att.size());
  std::vector<int> idx;
  if (order == MaskOrder::kRandom) {
    idx = rng.permutation(n);
  } else {
    idx.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
    const bool top = order == MaskOrder::kAttention;
    std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
      const float va = att[static_cast<size_t>(a)];
      const float vb = att[static_cast<size_t>(b)];
      return top ? va > vb : va < vb;
    });
  }
  idx.resize(static_cast<size_t>(k));
  std::sort(idx.begin(), idx.end());
  return idx;
}

TEST(Mask, SelectionMatchesSortReferenceUnderTies) {
  Rng data_rng(31);
  // The suite's attention domains: 7x7, 14x14 and 56x56 spatial maps,
  // beside small and power-of-two sizes.
  for (const int n : {1, 4, 16, 49, 196, 1024, 3136}) {
    for (const int variant : {0, 1, 2}) {
      // Post-ReLU-like values on a coarse grid: about half exact zeros and
      // many exact ties among the rest. Variant 1 turns one +0.0 into -0.0
      // (equal to +0.0, so it ties with them by index); variant 2 adds
      // +inf entries, which tie among themselves.
      std::vector<float> att(static_cast<size_t>(n));
      for (float& v : att) {
        v = std::max(0.f, std::round(static_cast<float>(data_rng.normal()) *
                                     4.f) / 4.f);
      }
      if (variant == 1) {
        for (float& v : att) {
          if (v == 0.f) {
            v = -0.f;
            break;
          }
        }
      } else if (variant == 2) {
        for (int i = 0; i < n; i += 5) {
          att[static_cast<size_t>(i)] = std::numeric_limits<float>::infinity();
        }
      }
      // Exact kept counts at both ends, then the suite's drop ratios.
      std::vector<float> drops;
      for (const int k : {1, n - 1, n}) {
        if (k < 1) continue;
        const float drop = static_cast<float>(n - k) / static_cast<float>(n);
        // kept_count(n, k_drop / n) == k for these exact ratios.
        ASSERT_EQ(kept_count(n, drop), k);
        drops.push_back(drop);
      }
      drops.push_back(0.3f);
      drops.push_back(0.5f);
      for (const float drop : drops) {
        const int k = kept_count(n, drop);
        for (const MaskOrder order : {MaskOrder::kAttention, MaskOrder::kRandom,
                                      MaskOrder::kInverseAttention}) {
          Rng rng(static_cast<uint64_t>(n * 7 + k));
          Rng ref_rng = rng;
          const auto got = select_kept(att, drop, order, rng);
          EXPECT_EQ(got, reference_kept(att, k, order, ref_rng))
              << mask_order_name(order) << " n=" << n << " k=" << k
              << " variant " << variant;
        }
      }
    }
  }
}

TEST(Mask, KeptToMaskExpandsCorrectly) {
  const std::vector<int> kept = {0, 3};
  const auto mask = kept_to_mask(kept, 5);
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 0, 0, 1, 0}));
  EXPECT_THROW(kept_to_mask(std::vector<int>{9}, 5), Error);
}

TEST(Mask, OrderNames) {
  EXPECT_STREQ(mask_order_name(MaskOrder::kAttention), "attention");
  EXPECT_STREQ(mask_order_name(MaskOrder::kRandom), "random");
  EXPECT_STREQ(mask_order_name(MaskOrder::kInverseAttention), "inverse");
}

}  // namespace
}  // namespace antidote::core
