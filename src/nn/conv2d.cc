#include "nn/conv2d.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "base/error.h"
#include "nn/conv_kernels.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace antidote::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_size, int stride,
               int padding, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel_size),
      stride_(stride),
      pad_(padding),
      has_bias_(bias),
      weight_("weight", Tensor({out_channels, in_channels, kernel_size,
                                kernel_size})),
      bias_("bias", Tensor({out_channels}), /*weight_decay=*/false) {
  AD_CHECK_GT(in_channels, 0);
  AD_CHECK_GT(out_channels, 0);
  AD_CHECK_GT(kernel_size, 0);
  AD_CHECK_GT(stride, 0);
  AD_CHECK_GE(padding, 0);
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

int64_t Conv2d::dense_macs_per_sample(int in_h, int in_w) const {
  ConvGeom g{in_c_, in_h, in_w, k_, k_, stride_, pad_};
  return static_cast<int64_t>(out_c_) * g.out_positions() * g.patch_rows();
}

namespace {

bool strictly_increasing(const std::vector<int>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<int>()) ==
         v.end();
}

}  // namespace

void Conv2d::check_masks(std::span<const ConvRuntimeMask> masks) const {
  // The shift-GEMM indexes output positions by input columns, so spatial
  // masks need a conv whose output grid is its input grid, whatever the
  // input size.
  const bool preserves_grid = stride_ == 1 && 2 * pad_ == k_ - 1;
  for (const auto& m : masks) {
    AD_CHECK(m.positions.empty() || preserves_grid)
        << " spatial runtime mask on a conv that does not preserve its grid"
        << " (stride " << stride_ << ", kernel " << k_ << ", pad " << pad_
        << ")";
    for (int c : m.channels) {
      AD_CHECK(c >= 0 && c < in_c_) << " runtime mask channel " << c;
    }
    for (int c : m.out_channels) {
      AD_CHECK(c >= 0 && c < out_c_) << " runtime mask out channel " << c;
    }
    // Strictly increasing: a duplicate index would be gathered twice by
    // the channel paths but fed once through the spatial inverse table.
    AD_CHECK(strictly_increasing(m.channels)) << " runtime mask channels";
    AD_CHECK(strictly_increasing(m.positions)) << " runtime mask positions";
    AD_CHECK(strictly_increasing(m.out_channels))
        << " runtime mask out channels";
    // The upper bound needs the input grid, so the kernels check it.
    AD_CHECK(m.positions.empty() || m.positions.front() >= 0)
        << " runtime mask position " << m.positions.front();
  }
}

void Conv2d::set_runtime_masks(std::span<const ConvRuntimeMask> masks) {
  check_masks(masks);
  // Element-wise copy-assign into the warm storage left behind by earlier
  // passes (not vector::assign, whose capacity reuse for the elements'
  // inner vectors is an implementation detail): each index vector keeps
  // its capacity. A smaller batch leaves the trailing elements in place,
  // so a serving loop stops allocating here once each of its batch sizes
  // has run.
  if (pending_masks_.size() < masks.size()) {
    pending_masks_.resize(masks.size());
  }
  std::copy(masks.begin(), masks.end(), pending_masks_.begin());
  pending_count_ = masks.size();
}

std::span<const ConvRuntimeMask> Conv2d::take_runtime_masks() {
  const size_t n = pending_count_;
  pending_count_ = 0;
  return std::span<const ConvRuntimeMask>(pending_masks_.data(), n);
}

void Conv2d::note_external_execution(int64_t macs, bool masked) {
  last_macs_ = macs;
  last_forward_was_masked_ = masked;
  cached_input_ = Tensor();
}

Tensor Conv2d::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4) << " Conv2d expects NCHW, got " << x.shape_str();
  AD_CHECK_EQ(x.dim(1), in_c_) << " Conv2d input channels";
  if (pending_count_ > 0) {
    // Consume: masks apply to this pass only.
    const std::span<const ConvRuntimeMask> masks = take_runtime_masks();
    AD_CHECK_EQ(static_cast<int>(masks.size()), x.dim(0))
        << " runtime mask count vs batch size";
    last_forward_was_masked_ = true;
    return forward_masked(x, masks);
  }
  last_forward_was_masked_ = false;
  return forward_dense(x);
}

Tensor Conv2d::forward_dense(const Tensor& x) {
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  ConvGeom g{in_c_, h, w, k_, k_, stride_, pad_};
  g.validate();
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t patch = g.patch_rows();
  const int64_t pos = g.out_positions();

  Workspace& ws = thread_local_workspace();
  Tensor y({n, out_c_, oh, ow});
  const Workspace::Mark scratch = ws.mark();
  float* cols = ws.alloc_floats(patch * pos);
  const float* wp = weight_.value.data();
  const float* bp = has_bias_ ? bias_.value.data() : nullptr;

  last_macs_ = 0;
  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + static_cast<int64_t>(b) * in_c_ * h * w;
    float* yb = y.data() + static_cast<int64_t>(b) * out_c_ * pos;
    last_macs_ += conv_sample_dense(xb, g, wp, out_c_, bp, cols, yb, ws);
  }
  ws.rewind(scratch);
  cached_input_ = x;
  return y;
}

Tensor Conv2d::forward_masked(const Tensor& x,
                              std::span<const ConvRuntimeMask> masks) {
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  ConvGeom g{in_c_, h, w, k_, k_, stride_, pad_};
  g.validate();
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t pos = g.out_positions();

  Workspace& ws = thread_local_workspace();
  Tensor y({n, out_c_, oh, ow});  // zero-filled: pruned entries stay zero
  last_macs_ = 0;

  const Workspace::Mark outer = ws.mark();
  // Identity index sets reused when a mask third is empty (= keep all).
  int* all_channels = ws.alloc<int>(in_c_);
  std::iota(all_channels, all_channels + in_c_, 0);
  int* all_out = ws.alloc<int>(out_c_);
  std::iota(all_out, all_out + out_c_, 0);
  const ConvIdentityIndices ids{all_channels, all_out};
  const float* wp = weight_.value.data();
  const float* bp = has_bias_ ? bias_.value.data() : nullptr;

  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + static_cast<int64_t>(b) * in_c_ * h * w;
    float* yb = y.data() + static_cast<int64_t>(b) * out_c_ * pos;
    last_macs_ += conv_sample_masked(xb, g, wp, out_c_, bp,
                                     masks[static_cast<size_t>(b)], ids, yb,
                                     ws);
  }
  ws.rewind(outer);
  cached_input_ = Tensor();  // backward unsupported after masked forward
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  AD_CHECK(!last_forward_was_masked_)
      << " backward through a masked Conv2d forward is not supported";
  AD_CHECK(!cached_input_.empty()) << " Conv2d backward before forward";
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  ConvGeom g{in_c_, h, w, k_, k_, stride_, pad_};
  const int64_t patch = g.patch_rows();
  const int64_t pos = g.out_positions();
  AD_CHECK_EQ(grad_out.dim(0), n);
  AD_CHECK_EQ(grad_out.dim(1), out_c_);
  AD_CHECK_EQ(static_cast<int64_t>(grad_out.dim(2)) * grad_out.dim(3), pos);

  Tensor dx({n, in_c_, h, w});
  Tensor cols({static_cast<int>(patch), static_cast<int>(pos)});
  Tensor dcols({static_cast<int>(patch), static_cast<int>(pos)});
  float* dwp = weight_.grad.data();
  const float* wp = weight_.value.data();

  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + static_cast<int64_t>(b) * in_c_ * h * w;
    const float* dyb = grad_out.data() + static_cast<int64_t>(b) * out_c_ * pos;
    float* dxb = dx.data() + static_cast<int64_t>(b) * in_c_ * h * w;

    // dW += dY * cols^T
    im2col(xb, g, cols.data());
    gemm_nt(out_c_, static_cast<int>(patch), static_cast<int>(pos), 1.f, dyb,
            cols.data(), 1.f, dwp);

    // dCols = W^T * dY ; dX = col2im(dCols)
    gemm_tn(static_cast<int>(patch), static_cast<int>(pos), out_c_, 1.f, wp,
            dyb, 0.f, dcols.data());
    col2im(dcols.data(), g, dxb);
  }

  if (has_bias_) {
    float* dbp = bias_.grad.data();
    for (int b = 0; b < n; ++b) {
      const float* dyb =
          grad_out.data() + static_cast<int64_t>(b) * out_c_ * pos;
      for (int oc = 0; oc < out_c_; ++oc) {
        const float* row = dyb + static_cast<int64_t>(oc) * pos;
        double acc = 0.0;
        for (int64_t j = 0; j < pos; ++j) acc += row[j];
        dbp[oc] += static_cast<float>(acc);
      }
    }
  }
  return dx;
}

}  // namespace antidote::nn
