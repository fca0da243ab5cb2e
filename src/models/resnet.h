// CIFAR-style ResNet (He et al.): a 3x3 stem, three groups of basic blocks
// with base widths {16, 32, 64}, stride-2 transition at the start of groups
// 2 and 3, option-A (parameter-free) shortcuts, GlobalAvgPool + linear head.
// blocks_per_group = 9 gives ResNet-56 (6n+2 with n=9), 3 gives ResNet-20.
//
// Gate sites: one per basic block, observing the feature map after the
// first conv's ReLU — its only consumer is the block's second conv, so the
// skip connection's channel count is untouched (the paper's "odd layers
// only" rule).
#pragma once

#include "models/convnet.h"
#include "nn/batchnorm.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace antidote::models {

struct ResNetConfig {
  int num_classes = 10;
  int in_channels = 3;
  int blocks_per_group = 9;  // 9 -> ResNet-56, 3 -> ResNet-20
  float width_mult = 1.0f;   // scales base widths {16, 32, 64}
};

class ResNetCifar : public ConvNet {
 public:
  explicit ResNetCifar(const ResNetConfig& config);

  // --- nn::Module ---
  // (The context forward comes from ConvNet: it runs the compiled
  // InferencePlan — conv+BN fused, residual add and ReLU in the conv
  // epilogue — instead of walking the blocks.)
  using ConvNet::forward;
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<nn::Parameter*> parameters() override;
  void visit_state(const std::string& prefix,
                   const nn::StateVisitor& fn) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "ResNetCifar"; }
  int64_t last_macs() const override;

  // --- ConvNet ---
  int num_gate_sites() const override {
    return static_cast<int>(blocks_.size());
  }
  void install_gate(int site, std::unique_ptr<nn::Module> gate) override;
  nn::Module* gate(int site) const override;
  nn::Conv2d* gate_consumer(int site) override;
  nn::Conv2d* gate_producer(int site) override;
  nn::BatchNorm2d* gate_producer_bn(int site) override;
  bool gate_spatially_aligned(int /*site*/) const override { return true; }
  int num_blocks() const override { return 3; }  // the three groups
  int block_of_site(int site) const override;
  std::vector<std::pair<std::string, nn::Module*>> arithmetic_layers()
      override;
  int num_classes() const override { return config_.num_classes; }
  std::string model_name() const override;

  const ResNetConfig& config() const { return config_; }

 protected:
  void build_plan(plan::PlanBuilder& builder) override;

 private:
  struct Block {
    std::unique_ptr<nn::Conv2d> conv1, conv2;
    std::unique_ptr<nn::BatchNorm2d> bn1, bn2;
    std::unique_ptr<nn::ReLU> relu1, relu2;
    std::unique_ptr<nn::Module> gate;  // after relu1; nullable
    int group = 0;
    int stride = 1;  // conv1 stride (2 at group transitions)
    int in_c = 0, out_c = 0;
    Tensor cached_input;  // for the shortcut's backward
  };

  Tensor block_forward(Block& b, const Tensor& x);
  Tensor block_backward(Block& b, const Tensor& dy);

  ResNetConfig config_;
  std::unique_ptr<nn::Conv2d> stem_conv_;
  std::unique_ptr<nn::BatchNorm2d> stem_bn_;
  std::unique_ptr<nn::ReLU> stem_relu_;
  std::vector<Block> blocks_;
  nn::GlobalAvgPool gap_;
  std::unique_ptr<nn::Linear> classifier_;
};

// Option-A shortcut: spatial subsampling by `stride` with zero-padded extra
// channels. Exposed for unit testing.
Tensor shortcut_option_a(const Tensor& x, int out_c, int stride);
// Gradient of shortcut_option_a w.r.t. x.
Tensor shortcut_option_a_backward(const Tensor& dy, const Shape& in_shape,
                                  int stride);

}  // namespace antidote::models
