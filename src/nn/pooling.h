// Spatial pooling layers for NCHW tensors.
#pragma once

#include <vector>

#include "nn/module.h"

namespace antidote::nn {

// Eval-mode max-pool kernel (no argmax bookkeeping): pools the NCHW
// input into y, which must hold the pooled output. The InferencePlan
// executor's pool step; it picks the same maxima MaxPool2d::forward does,
// bit for bit (NaN and +-0 included). 2x2/stride-2 pools run at SIMD width
// (base/simd.h); other geometries and the scalar build run the loop,
// max_pool_forward_into_scalar, which is also the micro-benchmarks'
// scalar leg.
void max_pool_forward_into(const float* x, int n, int c, int h, int w, int k,
                           int stride, float* y);
void max_pool_forward_into_scalar(const float* x, int n, int c, int h, int w,
                                  int k, int stride, float* y);

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(int kernel_size, int stride = -1);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "MaxPool2d"; }

  int kernel_size() const { return k_; }
  int stride() const { return stride_; }

 private:
  int k_, stride_;
  std::vector<int64_t> argmax_;  // flat input index of each output element
  Shape in_shape_;
};

class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(int kernel_size, int stride = -1);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "AvgPool2d"; }

 private:
  int k_, stride_;
  Shape in_shape_;
};

// [N, C, H, W] -> [N, C]; the SENet-style squeeze used for the classifier
// head and (conceptually) for channel attention.
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "GlobalAvgPool"; }

 private:
  Shape in_shape_;
};

}  // namespace antidote::nn
