#include "nn/linear.h"

#include "base/error.h"
#include "tensor/gemm.h"

namespace antidote::nn {

Linear::Linear(int in_features, int out_features, bool bias)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      weight_("weight", Tensor({out_features, in_features})),
      bias_("bias", Tensor({out_features}), /*weight_decay=*/false) {
  AD_CHECK_GT(in_features, 0);
  AD_CHECK_GT(out_features, 0);
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

Tensor Linear::forward(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 2) << " Linear expects [N, F], got " << x.shape_str();
  AD_CHECK_EQ(x.dim(1), in_f_);
  const int n = x.dim(0);
  Tensor y({n, out_f_});
  // y[N, out] = x[N, in] * W[out, in]^T
  gemm_nt(n, out_f_, in_f_, 1.f, x.data(), weight_.value.data(), 0.f,
          y.data());
  if (has_bias_) {
    const float* bp = bias_.value.data();
    for (int i = 0; i < n; ++i) {
      float* row = y.data() + static_cast<int64_t>(i) * out_f_;
      for (int j = 0; j < out_f_; ++j) row[j] += bp[j];
    }
  }
  last_macs_ = static_cast<int64_t>(n) * out_f_ * in_f_;
  cached_input_ = x;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  AD_CHECK(!cached_input_.empty()) << " Linear backward before forward";
  const Tensor& x = cached_input_;
  const int n = x.dim(0);
  AD_CHECK_EQ(grad_out.dim(0), n);
  AD_CHECK_EQ(grad_out.dim(1), out_f_);

  // dW[out, in] += dY[N, out]^T * x[N, in]
  gemm_tn(out_f_, in_f_, n, 1.f, grad_out.data(), x.data(), 1.f,
          weight_.grad.data());
  if (has_bias_) {
    float* dbp = bias_.grad.data();
    for (int i = 0; i < n; ++i) {
      const float* row = grad_out.data() + static_cast<int64_t>(i) * out_f_;
      for (int j = 0; j < out_f_; ++j) dbp[j] += row[j];
    }
  }
  // dX[N, in] = dY[N, out] * W[out, in]
  Tensor dx({n, in_f_});
  gemm_nn(n, in_f_, out_f_, 1.f, grad_out.data(), weight_.value.data(), 0.f,
          dx.data());
  return dx;
}

}  // namespace antidote::nn
