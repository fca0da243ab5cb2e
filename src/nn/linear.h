// Fully connected layer: y = x W^T + b with x of shape [N, in_features].
#pragma once

#include "nn/module.h"

namespace antidote::nn {

class Linear : public Module {
 public:
  Linear(int in_features, int out_features, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Linear"; }
  int64_t last_macs() const override { return last_macs_; }

  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }
  bool has_bias() const { return has_bias_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  // Records an execution performed outside the module (by the
  // InferencePlan executor): keeps last_macs() consistent and clears the
  // backward cache so a stale backward() fails loudly.
  void note_external_execution(int64_t macs) {
    last_macs_ = macs;
    cached_input_ = Tensor();
  }

 private:
  int in_f_, out_f_;
  bool has_bias_;
  Parameter weight_;  // [out_features, in_features]
  Parameter bias_;    // [out_features]
  Tensor cached_input_;
  int64_t last_macs_ = 0;
};

}  // namespace antidote::nn
