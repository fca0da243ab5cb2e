#include "nn/batchnorm.h"

#include <cmath>

#include "base/error.h"

namespace antidote::nn {

BatchNorm2d::BatchNorm2d(int channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor::ones({channels}), /*weight_decay=*/false),
      beta_("beta", Tensor({channels}), /*weight_decay=*/false),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  AD_CHECK_GT(channels, 0);
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

void BatchNorm2d::visit_state(const std::string& prefix,
                              const StateVisitor& fn) {
  Module::visit_state(prefix, fn);
  fn(prefix + "running_mean", running_mean_);
  fn(prefix + "running_var", running_var_);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4) << " BatchNorm2d expects NCHW";
  AD_CHECK_EQ(x.dim(1), channels_);
  const int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const int64_t hw = static_cast<int64_t>(h) * w;
  const int64_t m = static_cast<int64_t>(n) * hw;  // samples per channel

  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor({c});
  cached_training_ = is_training();

  const float* gp = gamma_.value.data();
  const float* bp = beta_.value.data();

  for (int ch = 0; ch < c; ++ch) {
    float mean_v, var_v;
    if (is_training()) {
      double acc = 0.0;
      for (int b = 0; b < n; ++b) {
        const float* plane = x.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        for (int64_t j = 0; j < hw; ++j) acc += plane[j];
      }
      mean_v = static_cast<float>(acc / static_cast<double>(m));
      double vacc = 0.0;
      for (int b = 0; b < n; ++b) {
        const float* plane = x.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        for (int64_t j = 0; j < hw; ++j) {
          const double d = plane[j] - mean_v;
          vacc += d * d;
        }
      }
      var_v = static_cast<float>(vacc / static_cast<double>(m));  // biased
      // Unbiased estimate for the running buffer (PyTorch convention).
      const float unbiased =
          m > 1 ? static_cast<float>(vacc / static_cast<double>(m - 1)) : var_v;
      running_mean_[ch] =
          (1.f - momentum_) * running_mean_[ch] + momentum_ * mean_v;
      running_var_[ch] =
          (1.f - momentum_) * running_var_[ch] + momentum_ * unbiased;
    } else {
      mean_v = running_mean_[ch];
      var_v = running_var_[ch];
    }
    const float inv_std = 1.f / std::sqrt(var_v + eps_);
    cached_inv_std_[ch] = inv_std;
    for (int b = 0; b < n; ++b) {
      const int64_t off = (static_cast<int64_t>(b) * c + ch) * hw;
      const float* px = x.data() + off;
      float* pxh = cached_xhat_.data() + off;
      float* py = y.data() + off;
      for (int64_t j = 0; j < hw; ++j) {
        const float xh = (px[j] - mean_v) * inv_std;
        pxh[j] = xh;
        py[j] = gp[ch] * xh + bp[ch];
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  AD_CHECK(!cached_xhat_.empty()) << " BatchNorm2d backward before forward";
  AD_CHECK(grad_out.same_shape(cached_xhat_));
  const int n = grad_out.dim(0), c = channels_, h = grad_out.dim(2),
            w = grad_out.dim(3);
  const int64_t hw = static_cast<int64_t>(h) * w;
  const int64_t m = static_cast<int64_t>(n) * hw;

  Tensor dx(grad_out.shape());
  float* dgp = gamma_.grad.data();
  float* dbp = beta_.grad.data();
  const float* gp = gamma_.value.data();

  for (int ch = 0; ch < c; ++ch) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int b = 0; b < n; ++b) {
      const int64_t off = (static_cast<int64_t>(b) * c + ch) * hw;
      const float* pdy = grad_out.data() + off;
      const float* pxh = cached_xhat_.data() + off;
      for (int64_t j = 0; j < hw; ++j) {
        sum_dy += pdy[j];
        sum_dy_xhat += double(pdy[j]) * pxh[j];
      }
    }
    dgp[ch] += static_cast<float>(sum_dy_xhat);
    dbp[ch] += static_cast<float>(sum_dy);

    const float inv_std = cached_inv_std_[ch];
    if (cached_training_) {
      const float k1 = gp[ch] * inv_std / static_cast<float>(m);
      const float mean_dy = static_cast<float>(sum_dy);
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat);
      for (int b = 0; b < n; ++b) {
        const int64_t off = (static_cast<int64_t>(b) * c + ch) * hw;
        const float* pdy = grad_out.data() + off;
        const float* pxh = cached_xhat_.data() + off;
        float* pdx = dx.data() + off;
        for (int64_t j = 0; j < hw; ++j) {
          pdx[j] = k1 * (static_cast<float>(m) * pdy[j] - mean_dy -
                         pxh[j] * mean_dy_xhat);
        }
      }
    } else {
      // Eval mode: statistics are constants.
      const float k = gp[ch] * inv_std;
      for (int b = 0; b < n; ++b) {
        const int64_t off = (static_cast<int64_t>(b) * c + ch) * hw;
        const float* pdy = grad_out.data() + off;
        float* pdx = dx.data() + off;
        for (int64_t j = 0; j < hw; ++j) pdx[j] = k * pdy[j];
      }
    }
  }
  return dx;
}

}  // namespace antidote::nn
