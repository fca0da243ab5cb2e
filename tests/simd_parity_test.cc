// SIMD-vs-scalar parity: every vectorized hot-path primitive (fused
// epilogue, mask gather, group scatter, im2col lowering) must be BITWISE
// identical to its genuinely-scalar reference — across odd channel
// counts, ragged tails (length % lane width != 0) and every epilogue
// variant. This is the contract that keeps the plan executor's memcmp
// equivalence gates meaningful on SIMD builds: vectorization reorders no
// floating-point reductions and introduces no fused multiply-adds, so
// ANTIDOTE_SIMD=ON and =OFF builds agree bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.h"
#include "nn/conv_kernels.h"
#include "tensor/im2col.h"

namespace antidote {
namespace {

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SimdParity, LaneWidthMatchesBuild) {
  // 1 (scalar fallback), 4 (NEON) or 8 (AVX2); never anything else.
  const int lanes = nn::simd_lane_width();
  EXPECT_TRUE(lanes == 1 || lanes == 4 || lanes == 8) << lanes;
  EXPECT_NE(nn::simd_isa_name(), nullptr);
}

TEST(SimdParity, FusedEpilogueAllVariantsOddShapesAndTails) {
  Rng rng(41);
  // Odd channel counts and position counts straddling every lane-width
  // boundary (tails of 0..lanes-1 for both 4- and 8-lane backends).
  const int channels[] = {1, 3, 7, 17, 32};
  const int64_t positions[] = {1, 5, 8, 9, 13, 16, 31, 33, 100};
  for (const int out_c : channels) {
    const auto mean = random_vec(static_cast<size_t>(out_c), rng);
    const auto inv_std = random_vec(static_cast<size_t>(out_c), rng);
    const auto gamma = random_vec(static_cast<size_t>(out_c), rng);
    const auto beta = random_vec(static_cast<size_t>(out_c), rng);
    for (const int64_t pos : positions) {
      const auto y0 = random_vec(static_cast<size_t>(out_c * pos), rng);
      const auto res = random_vec(static_cast<size_t>(out_c * pos), rng);
      for (const bool bn : {false, true}) {
        for (const bool with_res : {false, true}) {
          for (const bool relu : {false, true}) {
            nn::FusedEpilogueParams p;
            p.bn = bn;
            p.relu = relu;
            if (bn) {
              p.mean = mean.data();
              p.inv_std = inv_std.data();
              p.gamma = gamma.data();
              p.beta = beta.data();
            }
            auto simd_y = y0;
            auto ref_y = y0;
            nn::fused_epilogue(simd_y.data(),
                               with_res ? res.data() : nullptr, out_c, pos,
                               p);
            nn::fused_epilogue_scalar(ref_y.data(),
                                      with_res ? res.data() : nullptr,
                                      out_c, pos, p);
            EXPECT_TRUE(bitwise_equal(simd_y, ref_y))
                << "C=" << out_c << " pos=" << pos << " bn=" << bn
                << " res=" << with_res << " relu=" << relu;
          }
        }
      }
    }
  }
}

TEST(SimdParity, GatherPositionsRaggedTails) {
  Rng rng(43);
  const auto plane = random_vec(67 * 67, rng);
  for (const int n : {1, 3, 7, 8, 9, 15, 16, 17, 100, 1000}) {
    // Strictly increasing kept positions with irregular strides.
    std::vector<int> idx(static_cast<size_t>(n));
    int cur = 0;
    for (int j = 0; j < n; ++j) {
      idx[static_cast<size_t>(j)] = cur;
      cur += 1 + (j % 3);
    }
    ASSERT_LT(idx.back(), 67 * 67);
    std::vector<float> simd_out(static_cast<size_t>(n), -1.f);
    std::vector<float> ref_out(static_cast<size_t>(n), -2.f);
    nn::gather_positions(plane.data(), idx.data(), n, simd_out.data());
    nn::gather_positions_scalar(plane.data(), idx.data(), n, ref_out.data());
    EXPECT_TRUE(bitwise_equal(simd_out, ref_out)) << "n=" << n;
  }
}

TEST(SimdParity, ScatterBiasRowRaggedTails) {
  Rng rng(44);
  for (const int64_t n : {1, 7, 8, 9, 31, 33, 257}) {
    const auto src = random_vec(static_cast<size_t>(n), rng);
    std::vector<float> simd_dst(static_cast<size_t>(n), 0.f);
    std::vector<float> ref_dst(static_cast<size_t>(n), 0.f);
    nn::scatter_bias_row(src.data(), simd_dst.data(), n, 0.73f);
    nn::scatter_bias_row_scalar(src.data(), ref_dst.data(), n, 0.73f);
    EXPECT_TRUE(bitwise_equal(simd_dst, ref_dst)) << "n=" << n;
  }
}

TEST(SimdParity, Im2colRangeMatchesScalarAcrossGeometries) {
  Rng rng(45);
  const ConvGeom geoms[] = {
      {3, 11, 13, 3, 3, 1, 1},   // stride-1 contiguous fast path
      {5, 9, 9, 3, 3, 2, 1},     // strided scalar path
      {2, 8, 8, 1, 1, 1, 0},     // 1x1
      {4, 7, 5, 5, 5, 1, 2},     // kernel wider than half the input
      {1, 16, 16, 3, 3, 1, 0},   // no padding
  };
  for (const ConvGeom& g : geoms) {
    const auto x =
        random_vec(static_cast<size_t>(g.in_c) * g.in_h * g.in_w, rng);
    const size_t cols_n =
        static_cast<size_t>(g.patch_rows()) * g.out_positions();
    std::vector<float> fast(cols_n, -1.f), ref(cols_n, -2.f);
    im2col_range(x.data(), g, 0, g.in_c, fast.data());
    im2col_range_scalar(x.data(), g, 0, g.in_c, ref.data());
    EXPECT_TRUE(bitwise_equal(fast, ref))
        << g.in_c << "x" << g.in_h << "x" << g.in_w << " k" << g.k_h
        << " s" << g.stride << " p" << g.pad;

    // The channel gather (every other channel, from the first) lowers
    // each kept channel's rows exactly as the scalar dense lowering does.
    std::vector<int> channels;
    for (int c = 0; c < g.in_c; c += 2) channels.push_back(c);
    const size_t kk = static_cast<size_t>(g.k_h) * g.k_w;
    const size_t row_n = static_cast<size_t>(g.out_positions());
    std::vector<float> gathered(channels.size() * kk * row_n, -3.f);
    im2col_gather(x.data(), g, channels, gathered.data());
    for (size_t ci = 0; ci < channels.size(); ++ci) {
      const size_t n = kk * row_n;
      EXPECT_EQ(std::memcmp(gathered.data() + ci * n,
                            ref.data() + static_cast<size_t>(channels[ci]) * n,
                            n * sizeof(float)),
                0)
          << "channel " << channels[ci] << " of " << g.in_c << "x" << g.in_h
          << "x" << g.in_w << " k" << g.k_h << " s" << g.stride;
    }
  }
}

}  // namespace
}  // namespace antidote
