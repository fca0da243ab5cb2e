// im2col / col2im lowering for convolution, plus gather variants that skip
// masked input channels. The gather variants are the computational
// backbone of AntiDote's channel pruning: a pruned channel contributes no
// rows to the GEMM, so the FLOPs saving is real, not simulated. (Spatial
// masks skip columns without a lowering: see the shift-GEMM in
// nn/conv_kernels.h.)
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace antidote {

// Geometry of one 2-d convolution (square stride/padding).
struct ConvGeom {
  int in_c = 0;
  int in_h = 0;
  int in_w = 0;
  int k_h = 0;
  int k_w = 0;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
  // Rows of the lowered patch matrix.
  int64_t patch_rows() const {
    return static_cast<int64_t>(in_c) * k_h * k_w;
  }
  int64_t out_positions() const {
    return static_cast<int64_t>(out_h()) * out_w();
  }
  // Validates that the geometry produces a non-empty output.
  void validate() const;
};

// Dense lowering: input [C,H,W] -> cols [C*kh*kw, out_h*out_w].
void im2col(const float* input, const ConvGeom& g, float* cols);

// Channel-range slice of the dense lowering: fills only the rows of
// channels [c0, c1) at their natural offsets inside the full `cols`
// matrix. Disjoint ranges write disjoint rows, so a caller can
// parallelize one sample's lowering across channel chunks without
// widening the scratch footprint.
void im2col_range(const float* input, const ConvGeom& g, int c0, int c1,
                  float* cols);

// Position-tiled gathered lowering, the conv executor's only lowering:
// lowers the kept `channels` rows over output positions [p0, p1) only,
// each row written at `cols + row * ld` (row counts gathered channels from
// 0). Equals the [p0, p1) column slice of im2col_gather, bit for bit;
// over every channel that is the column slice of the dense im2col.
// Channels lower independently, so a caller can fill one tile's rows in
// parallel, one channel per call.
void im2col_gather_pos_ld(const float* input, const ConvGeom& g,
                          std::span<const int> channels, int64_t p0,
                          int64_t p1, float* cols, int64_t ld);

// Channel-gathered lowering over every output position, the module walk's
// (conv_sample_masked) lowering: the kept `channels` (strictly
// increasing) each contribute their kh*kw dense im2col rows, so cols must
// hold channels.size()*kh*kw rows by out_positions() columns. It fills
// whole rows with the dense lowering's row primitive, independent of the
// plan's tiled one above.
void im2col_gather(const float* input, const ConvGeom& g,
                   std::span<const int> channels, float* cols);

// Genuinely scalar reference implementation (kept un-autovectorized) of
// the dense lowering. It defines the values the optimized row primitive
// must reproduce BIT FOR BIT, in im2col_range and im2col_gather alike —
// the SIMD parity suite asserts it.
void im2col_range_scalar(const float* input, const ConvGeom& g, int c0,
                         int c1, float* cols);

// Scatter-add transpose of im2col: cols [C*kh*kw, out_h*out_w] accumulated
// into input_grad [C,H,W] (caller zero-initializes input_grad).
void col2im(const float* cols, const ConvGeom& g, float* input_grad);

}  // namespace antidote
