// Int8 SIMD-vs-scalar parity: the u8xs8 igemm dispatch (scalar / AVX2
// dpbusd emulation / runtime AVX-512 VNNI), the plane quantizer and the
// max-abs reduction must be BITWISE identical to their genuinely-scalar
// references — the accumulator is exact integer math and the dequant
// performs the same two IEEE-754 roundings in every backend (see
// nn/int8_kernels.h), so any deviation is a kernel bug, not numeric noise.
// The u8 lowering must reproduce, byte for byte, the scalar quantizer run
// over the f32 im2col panel at the same scale. Mirrors the f32 contract in
// simd_parity_test.cc: odd row counts, ragged k tails (k % 4 != 0), odd
// column counts straddling the 8/16-lane boundaries, and every
// fused-epilogue variant applied on top of the igemm output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/rng.h"
#include "nn/conv_kernels.h"
#include "nn/int8_kernels.h"
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

struct QuantizedWeights {
  std::vector<int8_t> q;
  std::vector<float> scale;
  std::vector<int32_t> wsum;
  int64_t row_stride = 0;
};

// The igemm operand of the contiguous [k x n] matrix b at its own scale.
float quantize_operand(const std::vector<float>& b, int64_t k, int64_t n,
                       std::vector<uint8_t>& qb) {
  return nn::quantize_activations_scalar(
      b.data(), k, n, nn::max_abs(b.data(), k * n), qb.data());
}

QuantizedWeights quantize(const std::vector<float>& w, int rows, int64_t k) {
  QuantizedWeights qw;
  qw.row_stride = nn::int8_align4(k);
  qw.q.assign(static_cast<size_t>(rows) * qw.row_stride, 0);
  qw.scale.assign(static_cast<size_t>(rows), 0.f);
  qw.wsum.assign(static_cast<size_t>(rows), 0);
  nn::quantize_weights_rowwise(w.data(), rows, k, qw.q.data(),
                               qw.row_stride, qw.scale.data(),
                               qw.wsum.data());
  return qw;
}

TEST(Int8Parity, IsaNameIsKnown) {
  const char* isa = nn::int8_isa_name();
  ASSERT_NE(isa, nullptr);
  EXPECT_TRUE(std::strcmp(isa, "avx512-vnni") == 0 ||
              std::strcmp(isa, "avx2") == 0 ||
              std::strcmp(isa, "scalar") == 0)
      << isa;
}

TEST(Int8Parity, MaxAbsMatchesScalarAcrossRaggedLengths) {
  Rng rng(50);
  for (const int64_t n : {1, 5, 7, 8, 9, 16, 17, 31, 100}) {
    auto x = random_vec(static_cast<size_t>(n), rng);
    x[static_cast<size_t>(n - 1)] = -9.f;  // the max in the ragged tail
    float ref = 0.f;
    for (const float v : x) ref = std::max(ref, std::fabs(v));
    EXPECT_EQ(nn::max_abs(x.data(), n), ref) << "n=" << n;
  }
}

TEST(Int8Parity, PlaneQuantizerBitwiseAcrossRaggedShapes) {
  Rng rng(51);
  // Widths straddle the 16-column vector body; pads 0..2 cover the
  // border fill.
  const int ws[] = {1, 3, 8, 15, 16, 17, 31, 33, 40};
  for (const int w : ws) {
    for (const int h : {1, 2, 5}) {
      for (const int pad : {0, 1, 2}) {
        auto x = random_vec(static_cast<size_t>(h) * w, rng);
        x[0] = 0.f;
        const float maxabs = nn::max_abs(x.data(), h * w);
        const size_t bytes =
            static_cast<size_t>(h + 2 * pad) * static_cast<size_t>(w + 2 * pad);
        // Half the scale saturates the large values at +-127.
        for (const float m : {maxabs, 0.5f * maxabs, 0.f}) {
          std::vector<uint8_t> simd_q(bytes, 7), ref_q(bytes, 9);
          nn::quantize_plane_u8(x.data(), h, w, pad, m, simd_q.data());
          nn::quantize_plane_u8_scalar(x.data(), h, w, pad, m, ref_q.data());
          EXPECT_EQ(simd_q, ref_q) << "h=" << h << " w=" << w << " pad=" << pad
                                   << " m=" << m;
          if (pad > 0) {  // the top border row holds the bias byte
            for (int px = 0; px < w + 2 * pad; ++px)
              EXPECT_EQ(ref_q[static_cast<size_t>(px)], 128);
          }
          if (m == 0.f) {
            for (const uint8_t byte : ref_q) EXPECT_EQ(byte, 128);
          }
        }
      }
    }
  }
}

TEST(Int8Parity, QuantizeActivationsAllZeroTensor) {
  const int64_t k = 6, n = 9;
  std::vector<float> b(static_cast<size_t>(k * n), 0.f);
  std::vector<uint8_t> q(static_cast<size_t>(nn::int8_align4(k) * n), 0);
  const float scale = nn::quantize_activations_scalar(
      b.data(), k, n, nn::max_abs(b.data(), k * n), q.data());
  EXPECT_EQ(scale, 0.f);
  // Every byte (including quad padding) must hold the bias 128 so the
  // accumulator contributes exactly 128 * wsum, cancelled by the dequant.
  for (const uint8_t byte : q) EXPECT_EQ(byte, 128);
}

// The u8 lowering of quantized planes against the reference path it
// replaces: the f32 im2col panel of the same kept channels and positions,
// quantized by the scalar reference at the planes' scale. Two members sit
// side by side in one operand (ld = 2 * tile width), as in a mask group.
TEST(Int8Parity, U8LoweringMatchesQuantizedF32Panel) {
  Rng rng(56);
  struct Geom {
    int k, stride, pad, h, w;
  };
  const Geom geoms[] = {
      {3, 1, 1, 9, 7},  {3, 1, 0, 8, 8},  {3, 2, 1, 9, 10},
      {3, 2, 0, 11, 7}, {1, 1, 0, 5, 6},  {1, 2, 0, 7, 9},
      {1, 1, 1, 4, 5},
      // Wide rows: 32-, 16- and 8-column vector runs plus a scalar tail.
      {3, 1, 1, 3, 40}, {3, 1, 1, 2, 61},
  };
  const int in_c = 5;
  const std::vector<std::vector<int>> kept_sets = {
      {0, 1, 2, 3, 4}, {1}, {0, 2, 3}, {1, 4}};
  for (const Geom& gm : geoms) {
    ConvGeom g;
    g.in_c = in_c;
    g.in_h = gm.h;
    g.in_w = gm.w;
    g.k_h = g.k_w = gm.k;
    g.stride = gm.stride;
    g.pad = gm.pad;
    const int64_t pos = g.out_positions();
    const int64_t plane = static_cast<int64_t>(g.in_h) * g.in_w;
    const int64_t qplane =
        static_cast<int64_t>(g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad);
    for (const std::vector<int>& ch : kept_sets) {
      const int ck = static_cast<int>(ch.size());
      const int64_t rows = static_cast<int64_t>(ck) * gm.k * gm.k;
      const int64_t quads = nn::int8_align4(rows) / 4;
      // Two members, post-ReLU-like inputs (a third exact zeros).
      std::vector<float> x[2];
      float maxabs = 0.f;
      for (auto& xs : x) {
        xs = random_vec(static_cast<size_t>(in_c * plane), rng);
        for (size_t i = 0; i < xs.size(); i += 3) xs[i] = 0.f;
        for (const int c : ch)
          maxabs = std::max(maxabs, nn::max_abs(xs.data() + c * plane, plane));
      }
      std::vector<uint8_t> planes(static_cast<size_t>(2 * ck * qplane));
      for (int s = 0; s < 2; ++s) {
        for (int ci = 0; ci < ck; ++ci) {
          nn::quantize_plane_u8(x[s].data() + ch[static_cast<size_t>(ci)] *
                                                  plane,
                                g.in_h, g.in_w, g.pad, maxabs,
                                planes.data() + (s * ck + ci) * qplane);
        }
      }
      // Full width plus ragged tiles that start mid-row.
      for (const int64_t tile : {pos, int64_t{5}, int64_t{17}}) {
        for (int64_t p0 = 0; p0 < pos; p0 += tile) {
          const int64_t tw = std::min(tile, pos - p0);
          const int64_t ld = 2 * tw;
          std::vector<float> panel(static_cast<size_t>(rows * ld));
          for (int s = 0; s < 2; ++s) {
            im2col_gather_pos_ld(x[s].data(), g, ch, p0, p0 + tw,
                                 panel.data() + s * tw, ld);
          }
          const size_t bytes = static_cast<size_t>(quads * 4 * ld);
          std::vector<uint8_t> ref(bytes, 1), got(bytes, 2);
          nn::quantize_activations_scalar(panel.data(), rows, ld, maxabs,
                                          ref.data());
          // Quads in two ranges, as the executor's parallel split does.
          const int64_t qmid = quads / 2;
          for (int s = 0; s < 2; ++s) {
            const uint8_t* member = planes.data() + s * ck * qplane;
            nn::lower_u8_quads(member, ck, g, 0, qmid, p0, p0 + tw,
                               got.data() + s * tw * 4, ld);
            nn::lower_u8_quads(member, ck, g, qmid, quads, p0, p0 + tw,
                               got.data() + s * tw * 4, ld);
          }
          EXPECT_EQ(got, ref) << "k=" << gm.k << " stride=" << gm.stride
                              << " pad=" << gm.pad << " " << gm.h << "x"
                              << gm.w << " ck=" << ck << " tile=" << tile
                              << " p0=" << p0;
        }
      }
    }
  }
}

TEST(Int8Parity, IgemmDispatchBitwiseAcrossRaggedShapes) {
  Rng rng(52);
  const int ms[] = {1, 3, 7, 17, 32};
  const int64_t ns[] = {1, 5, 8, 9, 13, 16, 17, 31, 33, 64, 100};
  const int64_t ks[] = {3, 4, 9, 27, 64, 65};  // ragged and exact quads
  for (const int m : ms) {
    for (const int64_t k : ks) {
      const auto w = random_vec(static_cast<size_t>(m) * k, rng);
      const QuantizedWeights qw = quantize(w, m, k);
      for (const int64_t n : ns) {
        const auto b = random_vec(static_cast<size_t>(k * n), rng);
        std::vector<uint8_t> qb(
            static_cast<size_t>(nn::int8_align4(k) * n));
        const float sa = quantize_operand(b, k, n, qb);
        std::vector<float> simd_y(static_cast<size_t>(m) * n, -1.f);
        std::vector<float> ref_y(static_cast<size_t>(m) * n, -2.f);
        nn::igemm_u8s8_dequant(m, n, qw.row_stride, qw.q.data(),
                               qw.row_stride, qb.data(), qw.wsum.data(),
                               qw.scale.data(), sa, simd_y.data(), n);
        nn::igemm_u8s8_dequant_scalar(m, n, qw.row_stride, qw.q.data(),
                                      qw.row_stride, qb.data(),
                                      qw.wsum.data(), qw.scale.data(), sa,
                                      ref_y.data(), n);
        EXPECT_TRUE(bitwise_equal(simd_y, ref_y))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(Int8Parity, IgemmRespectsOutputStride) {
  Rng rng(53);
  const int m = 5;
  const int64_t k = 13, n = 11, ldy = n + 6;
  const auto w = random_vec(static_cast<size_t>(m) * k, rng);
  const QuantizedWeights qw = quantize(w, m, k);
  const auto b = random_vec(static_cast<size_t>(k * n), rng);
  std::vector<uint8_t> qb(static_cast<size_t>(nn::int8_align4(k) * n));
  const float sa = quantize_operand(b, k, n, qb);
  std::vector<float> simd_y(static_cast<size_t>(m) * ldy, -7.f);
  std::vector<float> ref_y(static_cast<size_t>(m) * ldy, -7.f);
  nn::igemm_u8s8_dequant(m, n, qw.row_stride, qw.q.data(), qw.row_stride,
                         qb.data(), qw.wsum.data(), qw.scale.data(), sa,
                         simd_y.data(), ldy);
  nn::igemm_u8s8_dequant_scalar(m, n, qw.row_stride, qw.q.data(),
                                qw.row_stride, qb.data(), qw.wsum.data(),
                                qw.scale.data(), sa, ref_y.data(), ldy);
  // Bitwise including the inter-row gap: the sentinel -7 rows prove
  // neither backend writes past column n.
  EXPECT_TRUE(bitwise_equal(simd_y, ref_y));
  for (int mi = 0; mi < m; ++mi) {
    for (int64_t j = n; j < ldy; ++j) {
      EXPECT_EQ(simd_y[static_cast<size_t>(mi) * ldy + j], -7.f)
          << "row " << mi << " gap col " << j;
    }
  }
}

TEST(Int8Parity, IgemmPlusFusedEpilogueAllVariants) {
  Rng rng(54);
  // The executor always runs fused_epilogue over the igemm output; the
  // pair (igemm dispatch + SIMD epilogue) must match (scalar igemm +
  // scalar epilogue) bitwise for every epilogue variant.
  const int out_c = 7;
  const int64_t k = 19, pos = 33;
  const auto w = random_vec(static_cast<size_t>(out_c) * k, rng);
  const QuantizedWeights qw = quantize(w, out_c, k);
  const auto b = random_vec(static_cast<size_t>(k * pos), rng);
  std::vector<uint8_t> qb(static_cast<size_t>(nn::int8_align4(k) * pos));
  const float sa = quantize_operand(b, k, pos, qb);

  const auto mean = random_vec(static_cast<size_t>(out_c), rng);
  const auto inv_std = random_vec(static_cast<size_t>(out_c), rng);
  const auto gamma = random_vec(static_cast<size_t>(out_c), rng);
  const auto beta = random_vec(static_cast<size_t>(out_c), rng);
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
        std::vector<float> simd_y(static_cast<size_t>(out_c * pos));
        std::vector<float> ref_y(static_cast<size_t>(out_c * pos));
        nn::igemm_u8s8_dequant(out_c, pos, qw.row_stride, qw.q.data(),
                               qw.row_stride, qb.data(), qw.wsum.data(),
                               qw.scale.data(), sa, simd_y.data(), pos);
        nn::igemm_u8s8_dequant_scalar(
            out_c, pos, qw.row_stride, qw.q.data(), qw.row_stride,
            qb.data(), qw.wsum.data(), qw.scale.data(), sa, ref_y.data(),
            pos);
        nn::fused_epilogue(simd_y.data(), with_res ? res.data() : nullptr,
                           out_c, pos, p);
        nn::fused_epilogue_scalar(ref_y.data(),
                                  with_res ? res.data() : nullptr, out_c,
                                  pos, p);
        EXPECT_TRUE(bitwise_equal(simd_y, ref_y))
            << "bn=" << bn << " res=" << with_res << " relu=" << relu;
      }
    }
  }
}

}  // namespace
}  // namespace antidote
