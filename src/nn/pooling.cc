#include "nn/pooling.h"

#include <limits>

#include "base/error.h"
#include "base/simd.h"
#include "tensor/ops.h"

namespace antidote::nn {

ANTIDOTE_NO_VECTORIZE
void max_pool_forward_into_scalar(const float* x, int n, int c, int h, int w,
                                  int k, int stride, float* y) {
  const int oh = (h - k) / stride + 1;
  const int ow = (w - k) / stride + 1;
  int64_t out_idx = 0;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane = x + (static_cast<int64_t>(b) * c + ch) * h * w;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx;
              const float v = plane[static_cast<int64_t>(iy) * w + ix];
              if (v > best) best = v;
            }
          }
          y[out_idx] = best;
        }
      }
    }
  }
}

namespace {

// The 2x2/stride-2 pool at SIMD width: kLanes outputs of a row at a time,
// from 2 * kLanes inputs of each of its two input rows split into the
// windows' left and right columns. The window order and the comparison
// are the loop's — best = v > best ? v : best from -inf over (0,0),
// (0,1), (1,0), (1,1), which simd::max(v, best) is — so NaN and +-0
// resolve as they do there; the ragged tail runs the loop's expression.
void max_pool_2x2(const float* x, int planes, int h, int w, float* y) {
  const int oh = h / 2, ow = w / 2;
  const float ninf = -std::numeric_limits<float>::infinity();
  const simd::vf vninf = simd::set1(ninf);
  for (int64_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    for (int oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + static_cast<int64_t>(2 * oy) * w;
      const float* r1 = r0 + w;
      float* out = y + (p * oh + oy) * ow;
      int ox = 0;
      for (; ox + simd::kLanes <= ow; ox += simd::kLanes) {
        simd::vf l0, rt0, l1, rt1;
        simd::load_deinterleave(r0 + 2 * ox, l0, rt0);
        simd::load_deinterleave(r1 + 2 * ox, l1, rt1);
        simd::vf best = simd::max(l0, vninf);
        best = simd::max(rt0, best);
        best = simd::max(l1, best);
        best = simd::max(rt1, best);
        simd::store(out + ox, best);
      }
      for (; ox < ow; ++ox) {
        float best = ninf;
        for (const float v : {r0[2 * ox], r0[2 * ox + 1], r1[2 * ox],
                              r1[2 * ox + 1]}) {
          if (v > best) best = v;
        }
        out[ox] = best;
      }
    }
  }
}

}  // namespace

void max_pool_forward_into(const float* x, int n, int c, int h, int w, int k,
                           int stride, float* y) {
  if (simd::kLanes > 1 && k == 2 && stride == 2) {
    max_pool_2x2(x, n * c, h, w, y);
    return;
  }
  max_pool_forward_into_scalar(x, n, c, h, w, k, stride, y);
}

MaxPool2d::MaxPool2d(int kernel_size, int stride)
    : k_(kernel_size), stride_(stride > 0 ? stride : kernel_size) {
  AD_CHECK_GT(k_, 0);
}

Tensor MaxPool2d::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  // h < k would truncate (h - k) / stride toward zero and "pass" the
  // emptiness check below while the window reads out of bounds.
  AD_CHECK(h >= k_ && w >= k_) << " MaxPool2d window larger than input "
                               << x.shape_str();
  const int oh = (h - k_) / stride_ + 1;
  const int ow = (w - k_) / stride_ + 1;
  AD_CHECK(oh > 0 && ow > 0) << " MaxPool2d output empty for input "
                             << x.shape_str();
  in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  argmax_.assign(static_cast<size_t>(y.size()), 0);

  const float* px = x.data();
  float* py = y.data();
  int64_t out_idx = 0;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          px + (static_cast<int64_t>(b) * c + ch) * h * w;
      const int64_t plane_off = (static_cast<int64_t>(b) * c + ch) * h * w;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int ky = 0; ky < k_; ++ky) {
            const int iy = oy * stride_ + ky;
            for (int kx = 0; kx < k_; ++kx) {
              const int ix = ox * stride_ + kx;
              const float v = plane[static_cast<int64_t>(iy) * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_off + static_cast<int64_t>(iy) * w + ix;
              }
            }
          }
          py[out_idx] = best;
          argmax_[static_cast<size_t>(out_idx)] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  AD_CHECK(!in_shape_.empty()) << " MaxPool2d backward before forward";
  AD_CHECK_EQ(static_cast<size_t>(grad_out.size()), argmax_.size());
  Tensor dx(in_shape_);
  const float* pdy = grad_out.data();
  float* pdx = dx.data();
  for (int64_t i = 0; i < grad_out.size(); ++i) {
    pdx[argmax_[static_cast<size_t>(i)]] += pdy[i];
  }
  return dx;
}

AvgPool2d::AvgPool2d(int kernel_size, int stride)
    : k_(kernel_size), stride_(stride > 0 ? stride : kernel_size) {
  AD_CHECK_GT(k_, 0);
}

Tensor AvgPool2d::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = (h - k_) / stride_ + 1;
  const int ow = (w - k_) / stride_ + 1;
  AD_CHECK(oh > 0 && ow > 0);
  in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  const float inv = 1.f / static_cast<float>(k_ * k_);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (int ky = 0; ky < k_; ++ky) {
            for (int kx = 0; kx < k_; ++kx) {
              acc += x.at4(b, ch, oy * stride_ + ky, ox * stride_ + kx);
            }
          }
          y.at4(b, ch, oy, ox) = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  AD_CHECK(!in_shape_.empty()) << " AvgPool2d backward before forward";
  Tensor dx(in_shape_);
  const int n = grad_out.dim(0), c = grad_out.dim(1), oh = grad_out.dim(2),
            ow = grad_out.dim(3);
  const float inv = 1.f / static_cast<float>(k_ * k_);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          const float g = grad_out.at4(b, ch, oy, ox) * inv;
          for (int ky = 0; ky < k_; ++ky) {
            for (int kx = 0; kx < k_; ++kx) {
              dx.at4(b, ch, oy * stride_ + ky, ox * stride_ + kx) += g;
            }
          }
        }
      }
    }
  }
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4);
  in_shape_ = x.shape();
  return ops::channel_mean_nchw(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  AD_CHECK(!in_shape_.empty()) << " GlobalAvgPool backward before forward";
  AD_CHECK_EQ(grad_out.ndim(), 2);
  const int n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
            w = in_shape_[3];
  const int64_t hw = static_cast<int64_t>(h) * w;
  Tensor dx(in_shape_);
  const float inv = 1.f / static_cast<float>(hw);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out.at({b, ch}) * inv;
      float* plane = dx.data() + (static_cast<int64_t>(b) * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) plane[j] = g;
    }
  }
  return dx;
}

}  // namespace antidote::nn
