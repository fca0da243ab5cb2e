// SIMD-vs-scalar parity: every vectorized hot-path primitive (fused
// epilogue and its attention sums, mask gather, group scatter, im2col
// lowering, the 2x2 max-pool) must be BITWISE
// identical to its genuinely-scalar reference — across odd channel
// counts, ragged tails (length % lane width != 0) and every epilogue
// variant. This is the contract that keeps the plan executor's memcmp
// equivalence gates meaningful on SIMD builds: vectorization reorders no
// floating-point reductions and introduces no fused multiply-adds, so
// ANTIDOTE_SIMD=ON and =OFF builds agree bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/conv_kernels.h"
#include "nn/pooling.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

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

TEST(SimdParity, EpilogueAttentionSumsMatchTheAttentionMeans) {
  // The sums a fused epilogue accumulates for a gate must equal what
  // ops::channel_mean_nchw / spatial_mean_nchw compute from the written
  // map, bit for bit, in every epilogue variant — including the
  // sums-only pass with nothing fused — and in the scalar reference.
  Rng rng(46);
  const int channels[] = {1, 3, 8, 17};
  const int64_t positions[] = {1, 5, 8, 9, 12, 16, 31, 33, 49, 100};
  for (const int out_c : channels) {
    const auto mean = random_vec(static_cast<size_t>(out_c), rng);
    const auto inv_std = random_vec(static_cast<size_t>(out_c), rng);
    const auto gamma = random_vec(static_cast<size_t>(out_c), rng);
    const auto beta = random_vec(static_cast<size_t>(out_c), rng);
    for (const int64_t pos : positions) {
      auto y0 = random_vec(static_cast<size_t>(out_c * pos), rng);
      y0[0] = -0.f;  // a -0 row head must still sum from +0
      // Large entries among small ones make every double chain round, so
      // a chain or row order other than the means' changes the result.
      for (size_t i = 3; i < y0.size(); i += 7) {
        y0[i] = (i % 2 == 0 ? 1.f : -1.f) * 3e12f;
      }
      const auto res = random_vec(static_cast<size_t>(out_c * pos), rng);
      for (int variant = 0; variant < 8; ++variant) {
        nn::FusedEpilogueParams p;
        p.bn = (variant & 4) != 0;
        p.relu = (variant & 1) != 0;
        if (p.bn) {
          p.mean = mean.data();
          p.inv_std = inv_std.data();
          p.gamma = gamma.data();
          p.beta = beta.data();
        }
        const float* resb = (variant & 2) != 0 ? res.data() : nullptr;
        for (const bool want_ch : {false, true}) {
          for (const bool want_sp : {false, true}) {
            if (!want_ch && !want_sp) continue;
            std::vector<float> ch(static_cast<size_t>(out_c), -1.f);
            std::vector<float> sp(static_cast<size_t>(pos), -1.f);
            std::vector<float> ch_ref(ch), sp_ref(sp);
            const nn::EpilogueAttention att{
                want_ch ? ch.data() : nullptr, want_sp ? sp.data() : nullptr};
            const nn::EpilogueAttention att_ref{
                want_ch ? ch_ref.data() : nullptr,
                want_sp ? sp_ref.data() : nullptr};
            auto simd_y = y0;
            auto ref_y = y0;
            nn::fused_epilogue(simd_y.data(), resb, out_c, pos, p, att);
            nn::fused_epilogue_scalar(ref_y.data(), resb, out_c, pos, p,
                                      att_ref);
            const std::string where =
                "C=" + std::to_string(out_c) + " pos=" + std::to_string(pos) +
                " variant " + std::to_string(variant) + " ch " +
                std::to_string(want_ch) + " sp " + std::to_string(want_sp);
            EXPECT_TRUE(bitwise_equal(simd_y, ref_y)) << where;
            EXPECT_TRUE(bitwise_equal(ch, ch_ref)) << where;
            EXPECT_TRUE(bitwise_equal(sp, sp_ref)) << where;
            // Against the attention functions over the written map.
            const Tensor map = Tensor::from_vector(
                {1, out_c, 1, static_cast<int>(pos)}, simd_y);
            const Tensor ch_ops = ops::channel_mean_nchw(map);
            const Tensor sp_ops = ops::spatial_mean_nchw(map);
            if (want_ch) {
              EXPECT_EQ(std::memcmp(ch.data(), ch_ops.data(),
                                    ch.size() * sizeof(float)),
                        0)
                  << where;
            }
            if (want_sp) {
              EXPECT_EQ(std::memcmp(sp.data(), sp_ops.data(),
                                    sp.size() * sizeof(float)),
                        0)
                  << where;
            }
          }
        }
      }
    }
  }
}

// Pool input with the values that stress the comparison: NaN (never
// picked), +0 and -0 (the first of equal zeros wins), -inf and ordinary
// values, plus whole windows of mixed-sign zeros.
std::vector<float> pool_input(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    const uint64_t r = rng.next_below(20);
    x = r == 0   ? std::numeric_limits<float>::quiet_NaN()
        : r <= 2 ? 0.f
        : r <= 4 ? -0.f
        : r == 5 ? -std::numeric_limits<float>::infinity()
                 : static_cast<float>(rng.normal());
  }
  for (size_t i = 0; i + 1 < n; i += 29) {
    v[i] = -0.f;
    v[i + 1] = 0.f;
  }
  return v;
}

TEST(SimdParity, MaxPoolMatchesModuleWalk) {
  // The plan's pool step against MaxPool2d::forward, bitwise: the SIMD
  // 2x2/stride-2 path at output widths on both sides of every lane width
  // (and the 224 -> 112 imagenet width), odd input sizes, and the scalar
  // loop at another geometry.
  struct PoolCase {
    int k, stride, h, w;
  };
  std::vector<PoolCase> cases;
  for (const int ow : {1, 7, 8, 9, 17, 112}) {
    cases.push_back({2, 2, 4, 2 * ow});
    cases.push_back({2, 2, 5, 2 * ow + 1});
  }
  cases.push_back({3, 2, 9, 11});
  cases.push_back({2, 1, 5, 7});
  Rng rng(47);
  for (const PoolCase& pc : cases) {
    const int n = 2, c = 3;
    const auto x = pool_input(static_cast<size_t>(n) * c * pc.h * pc.w, rng);
    nn::MaxPool2d pool(pc.k, pc.stride);
    const Tensor ref = pool.forward(Tensor::from_vector({n, c, pc.h, pc.w}, x));
    std::vector<float> got(static_cast<size_t>(ref.size()), 1.f);
    nn::max_pool_forward_into(x.data(), n, c, pc.h, pc.w, pc.k, pc.stride,
                              got.data());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)),
              0)
        << "k" << pc.k << " s" << pc.stride << " " << pc.h << "x" << pc.w;
    std::vector<float> scalar(got.size(), 2.f);
    nn::max_pool_forward_into_scalar(x.data(), n, c, pc.h, pc.w, pc.k,
                                     pc.stride, scalar.data());
    EXPECT_TRUE(bitwise_equal(scalar, got))
        << "k" << pc.k << " s" << pc.stride << " " << pc.h << "x" << pc.w;
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
