#include "nn/layers.h"

#include "base/error.h"
#include "tensor/ops.h"

namespace antidote::nn {

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  return ops::relu(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  AD_CHECK(!cached_input_.empty()) << " ReLU backward before forward";
  return ops::relu_backward(grad_out, cached_input_);
}

Tensor Flatten::forward(const Tensor& x) {
  AD_CHECK_GE(x.ndim(), 2);
  cached_shape_ = x.shape();
  return x.reshape({x.dim(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  AD_CHECK(!cached_shape_.empty()) << " Flatten backward before forward";
  return grad_out.reshape(cached_shape_);
}

Dropout::Dropout(float p, uint64_t seed) : p_(p), rng_(seed) { set_p(p); }

void Dropout::set_p(float p) {
  AD_CHECK(p >= 0.f && p < 1.f) << " dropout p=" << p;
  p_ = p;
}

Tensor Dropout::forward(const Tensor& x) {
  if (!is_training() || p_ == 0.f) {
    cached_mask_ = Tensor();
    return x;
  }
  const float scale = 1.f / (1.f - p_);
  cached_mask_ = Tensor(x.shape());
  float* pm = cached_mask_.data();
  for (int64_t i = 0; i < cached_mask_.size(); ++i) {
    pm[i] = rng_.bernoulli(p_) ? 0.f : scale;
  }
  return ops::mul(x, cached_mask_);
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (cached_mask_.empty()) return grad_out;
  return ops::mul(grad_out, cached_mask_);
}

}  // namespace antidote::nn
