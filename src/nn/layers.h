// Small stateless / lightly-stateful layers: ReLU, Flatten, Dropout.
#pragma once

#include "base/rng.h"
#include "nn/module.h"

namespace antidote::nn {

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

// [N, C, H, W] (or any >=2-d) -> [N, rest].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "Flatten"; }

 private:
  Shape cached_shape_;
};

// Classical inverted dropout: each element is zeroed with probability p
// during training and survivors are scaled by 1/(1-p); identity in eval.
// Included as the *random* counterpart to AntiDote's targeted dropout.
class Dropout : public Module {
 public:
  explicit Dropout(float p, uint64_t seed = 0x5eedULL);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "Dropout"; }

  float p() const { return p_; }
  void set_p(float p);

 private:
  float p_;
  Rng rng_;
  Tensor cached_mask_;  // scaled keep mask from last training forward
};

}  // namespace antidote::nn
