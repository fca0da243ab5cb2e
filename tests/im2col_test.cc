// im2col / col2im and the gather variants that implement masked (sparse)
// convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "tensor/im2col.h"

namespace antidote {
namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.patch_rows(), 27);
  EXPECT_EQ(g.out_positions(), 1024);
}

TEST(ConvGeom, StridedNoPad) {
  ConvGeom g{1, 7, 7, 3, 3, 2, 0};
  EXPECT_EQ(g.out_h(), 3);
  EXPECT_EQ(g.out_w(), 3);
}

TEST(ConvGeom, ValidateRejectsEmptyOutput) {
  ConvGeom g{1, 2, 2, 5, 5, 1, 0};
  EXPECT_THROW(g.validate(), Error);
}

TEST(Im2col, IdentityKernel1x1) {
  // With a 1x1 kernel, stride 1, no pad, cols == input.
  Rng rng(1);
  Tensor x = Tensor::randn({2, 4, 5}, rng);
  ConvGeom g{2, 4, 5, 1, 1, 1, 0};
  Tensor cols({2, 20});
  im2col(x.data(), g, cols.data());
  for (int64_t i = 0; i < x.size(); ++i) EXPECT_EQ(cols[i], x[i]);
}

TEST(Im2col, PaddingProducesZeroBorder) {
  Tensor x = Tensor::ones({1, 2, 2});
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};
  Tensor cols({9, 4});
  im2col(x.data(), g, cols.data());
  // Top-left output position, kernel element (0,0) reads (-1,-1) -> 0.
  EXPECT_EQ(cols.at({0, 0}), 0.f);
  // Kernel center (1,1) at output (0,0) reads input (0,0) -> 1.
  EXPECT_EQ(cols.at({4, 0}), 1.f);
}

TEST(Im2col, KnownValuesSmall) {
  // 1x3x3 input 0..8, 2x2 kernel, stride 1, no pad -> 2x2 output.
  Tensor x = Tensor::from_values({1, 3, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  ConvGeom g{1, 3, 3, 2, 2, 1, 0};
  Tensor cols({4, 4});
  im2col(x.data(), g, cols.data());
  // Row 0 = kernel (0,0): input values at the 4 output anchors.
  EXPECT_EQ(cols.at({0, 0}), 0.f);
  EXPECT_EQ(cols.at({0, 1}), 1.f);
  EXPECT_EQ(cols.at({0, 2}), 3.f);
  EXPECT_EQ(cols.at({0, 3}), 4.f);
  // Row 3 = kernel (1,1): shifted by one in both dims.
  EXPECT_EQ(cols.at({3, 0}), 4.f);
  EXPECT_EQ(cols.at({3, 3}), 8.f);
}

TEST(Im2colGather, FullIndexSetsMatchDense) {
  Rng rng(2);
  const int c = 3, h = 6, w = 5;
  Tensor x = Tensor::randn({c, h, w}, rng);
  ConvGeom g{c, h, w, 3, 3, 1, 1};
  const int64_t rows = g.patch_rows(), cols_n = g.out_positions();

  Tensor dense({static_cast<int>(rows), static_cast<int>(cols_n)});
  im2col(x.data(), g, dense.data());

  Tensor gathered({static_cast<int>(rows), static_cast<int>(cols_n)});
  im2col_gather(x.data(), g, iota_vec(c), gathered.data());

  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i], gathered[i]);
  }
}

TEST(Im2colGather, ChannelSubsetPicksMatchingRows) {
  Rng rng(3);
  const int c = 4, h = 4, w = 4, k = 3;
  Tensor x = Tensor::randn({c, h, w}, rng);
  ConvGeom g{c, h, w, k, k, 1, 1};
  const int64_t cols_n = g.out_positions();

  Tensor dense({static_cast<int>(g.patch_rows()), static_cast<int>(cols_n)});
  im2col(x.data(), g, dense.data());

  const std::vector<int> ch = {1, 3};
  Tensor gathered({static_cast<int>(ch.size()) * k * k,
                   static_cast<int>(cols_n)});
  im2col_gather(x.data(), g, ch, gathered.data());

  for (size_t ci = 0; ci < ch.size(); ++ci) {
    for (int kk = 0; kk < k * k; ++kk) {
      const int grow = static_cast<int>(ci) * k * k + kk;
      const int drow = ch[ci] * k * k + kk;
      for (int64_t j = 0; j < cols_n; ++j) {
        EXPECT_EQ(gathered.at({grow, static_cast<int>(j)}),
                  dense.at({drow, static_cast<int>(j)}));
      }
    }
  }
}

TEST(Im2colGather, RejectsBadChannel) {
  Tensor x({2, 3, 3});
  ConvGeom g{2, 3, 3, 3, 3, 1, 1};
  Tensor out({9, 9});
  const std::vector<int> bad_ch = {5};
  EXPECT_THROW(im2col_gather(x.data(), g, bad_ch, out.data()), Error);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property that makes conv backward correct.
  Rng rng(5);
  const int c = 3, h = 5, w = 4;
  ConvGeom g{c, h, w, 3, 3, 1, 1};
  const int rows = static_cast<int>(g.patch_rows());
  const int cols_n = static_cast<int>(g.out_positions());

  Tensor x = Tensor::randn({c, h, w}, rng);
  Tensor y = Tensor::randn({rows, cols_n}, rng);

  Tensor cols({rows, cols_n});
  im2col(x.data(), g, cols.data());
  double lhs = 0;
  for (int64_t i = 0; i < cols.size(); ++i) lhs += double(cols[i]) * y[i];

  Tensor xt({c, h, w});
  col2im(y.data(), g, xt.data());
  double rhs = 0;
  for (int64_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * xt[i];

  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

// --- position-tiled lowering: bitwise parity with the full lowering ---------
//
// The tiled executor's correctness argument rests on these: a tile panel
// is the exact column slice of the full lowered matrix, so the tiled GEMM
// consumes bit-identical operands and the conv output cannot drift.

TEST(Im2colTiled, GatherPosAllChannelsMatchesDenseColumnSlices) {
  // Over every channel the gathered tile lowering is the dense one.
  // Stride-1/pad-1, stride-2/pad-0 and 1x1 geometries; tile width 7 does
  // not divide any of their position counts, so every sweep ends in a
  // ragged tail tile.
  const ConvGeom geoms[] = {
      {3, 10, 9, 3, 3, 1, 1},
      {2, 11, 7, 3, 3, 2, 0},
      {4, 8, 8, 1, 1, 1, 0},
  };
  Rng rng(7);
  for (const ConvGeom& g : geoms) {
    Tensor x = Tensor::randn({g.in_c, g.in_h, g.in_w}, rng);
    const int rows = static_cast<int>(g.patch_rows());
    const int pos = static_cast<int>(g.out_positions());
    Tensor dense({rows, pos});
    im2col(x.data(), g, dense.data());

    const int64_t tile = 7;
    const int64_t ld = tile + 3;  // ld > tile width: padded panel layout
    Tensor panel({rows, static_cast<int>(ld)});
    for (int64_t p0 = 0; p0 < pos; p0 += tile) {
      const int64_t p1 = std::min<int64_t>(p0 + tile, pos);
      panel.fill(-7.5f);
      im2col_gather_pos_ld(x.data(), g, iota_vec(g.in_c), p0, p1,
                           panel.data(), ld);
      for (int r = 0; r < rows; ++r) {
        for (int64_t j = p0; j < p1; ++j) {
          ASSERT_EQ(panel.at({r, static_cast<int>(j - p0)}),
                    dense.at({r, static_cast<int>(j)}))
              << "geom k=" << g.k_h << " stride=" << g.stride
              << " pad=" << g.pad << " row " << r << " col " << j;
        }
        // The ld slack past the tile must stay untouched.
        for (int64_t j = p1 - p0; j < ld; ++j) {
          ASSERT_EQ(panel.at({r, static_cast<int>(j)}), -7.5f);
        }
      }
    }
  }
}

TEST(Im2colTiled, GatherPosOneChannelPerCallFillsItsRowsOnly) {
  // The conv executor lowers a tile one channel per call, each call
  // writing its kh*kw rows at the channel's lowered-row offset, so the
  // channels of one tile can be filled in parallel. Channels [c0, c1),
  // lowered this way, reproduce the dense rows; other rows stay untouched.
  Rng rng(8);
  const ConvGeom g{4, 6, 6, 3, 3, 1, 1};
  Tensor x = Tensor::randn({g.in_c, g.in_h, g.in_w}, rng);
  const int rows = static_cast<int>(g.patch_rows());
  const int pos = static_cast<int>(g.out_positions());
  Tensor dense({rows, pos});
  im2col(x.data(), g, dense.data());

  const int64_t p0 = 5, p1 = 17;  // interior tile, ragged width 12
  const int64_t ld = p1 - p0;
  const int c0 = 1, c1 = 3, kk = g.k_h * g.k_w;
  Tensor panel({rows, static_cast<int>(ld)});
  panel.fill(-3.25f);
  const std::vector<int> all = iota_vec(g.in_c);
  for (int c = c0; c < c1; ++c) {
    im2col_gather_pos_ld(x.data(), g, std::span<const int>(all).subspan(c, 1),
                         p0, p1, panel.data() + c * kk * ld, ld);
  }
  for (int r = 0; r < rows; ++r) {
    const bool in_range = r >= c0 * kk && r < c1 * kk;
    for (int64_t j = 0; j < ld; ++j) {
      if (in_range) {
        ASSERT_EQ(panel.at({r, static_cast<int>(j)}),
                  dense.at({r, static_cast<int>(p0 + j)}));
      } else {
        ASSERT_EQ(panel.at({r, static_cast<int>(j)}), -3.25f);
      }
    }
  }
}

TEST(Im2colTiled, GatherPosLdMatchesGatherColumnSlices) {
  // Channel-masked tiled lowering (lower_row_span) vs the module walk's
  // gathered lowering (lower_row): the tile is the exact [p0, p1) column
  // slice, for stride-1/pad-1 and the stride-2/pad-0 downsampling
  // geometry.
  const ConvGeom geoms[] = {
      {3, 9, 8, 3, 3, 1, 1},
      {3, 11, 9, 3, 3, 2, 0},
  };
  Rng rng(9);
  for (const ConvGeom& g : geoms) {
    Tensor x = Tensor::randn({g.in_c, g.in_h, g.in_w}, rng);
    const std::vector<int> channels = {0, 2};
    const int kk = g.k_h * g.k_w;
    const int rows = static_cast<int>(channels.size()) * kk;
    const int pos = static_cast<int>(g.out_positions());

    Tensor full({rows, pos});
    im2col_gather(x.data(), g, channels, full.data());

    const int64_t tile = 5;  // ragged: 5 divides neither 72 nor 25
    Tensor panel({rows, static_cast<int>(tile)});
    for (int64_t p0 = 0; p0 < pos; p0 += tile) {
      const int64_t p1 = std::min<int64_t>(p0 + tile, pos);
      panel.fill(-1.5f);
      im2col_gather_pos_ld(x.data(), g, channels, p0, p1, panel.data(),
                           tile);
      for (int r = 0; r < rows; ++r) {
        for (int64_t j = p0; j < p1; ++j) {
          ASSERT_EQ(panel.at({r, static_cast<int>(j - p0)}),
                    full.at({r, static_cast<int>(j)}))
              << "stride=" << g.stride << " pad=" << g.pad << " row " << r
              << " col " << j;
        }
      }
    }
  }
}

TEST(Col2im, StridedAdjoint) {
  Rng rng(6);
  const int c = 2, h = 6, w = 6;
  ConvGeom g{c, h, w, 3, 3, 2, 1};
  const int rows = static_cast<int>(g.patch_rows());
  const int cols_n = static_cast<int>(g.out_positions());

  Tensor x = Tensor::randn({c, h, w}, rng);
  Tensor y = Tensor::randn({rows, cols_n}, rng);
  Tensor cols({rows, cols_n});
  im2col(x.data(), g, cols.data());
  double lhs = 0;
  for (int64_t i = 0; i < cols.size(); ++i) lhs += double(cols[i]) * y[i];
  Tensor xt({c, h, w});
  col2im(y.data(), g, xt.data());
  double rhs = 0;
  for (int64_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

}  // namespace
}  // namespace antidote
