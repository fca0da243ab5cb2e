// Batch normalization over the channel dimension of NCHW tensors.
//
// Training mode normalizes with batch statistics and maintains exponential
// running estimates (PyTorch convention: biased variance for normalization,
// unbiased for the running estimate). Eval mode normalizes with the running
// estimates. Running statistics are persisted by visit_state so checkpoints
// restore inference behaviour exactly.
#pragma once

#include "nn/module.h"

namespace antidote::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  void visit_state(const std::string& prefix, const StateVisitor& fn) override;
  std::string type_name() const override { return "BatchNorm2d"; }

  int channels() const { return channels_; }
  float eps() const { return eps_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  int channels_;
  float eps_, momentum_;
  Parameter gamma_;  // scale, init 1
  Parameter beta_;   // shift, init 0
  Tensor running_mean_;
  Tensor running_var_;

  // Cached for backward.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [C]
  bool cached_training_ = false;
};

}  // namespace antidote::nn
