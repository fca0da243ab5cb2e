// Layer/module abstraction for the training-capable CNN substrate.
//
// Modules implement an explicit forward/backward pair (no tape autograd —
// the CNN graphs in this project are feed-forward chains plus residual
// blocks, which the model classes wire manually). `forward` caches whatever
// it needs for the matching `backward`; calling backward without a prior
// forward is an error.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/execution_context.h"
#include "tensor/tensor.h"

namespace antidote::nn {

// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;   // local name within the owning module, e.g. "weight"
  Tensor value;
  Tensor grad;        // same shape as value; accumulated by backward()
  bool decay = true;  // include in weight decay (biases/BN params opt out)

  Parameter() = default;
  Parameter(std::string n, Tensor v, bool weight_decay = true)
      : name(std::move(n)), value(std::move(v)), decay(weight_decay) {
    grad = Tensor(value.shape());
  }
};

// Visitor over persistent state (parameter values and buffers such as
// BatchNorm running statistics) used for checkpoint save/load.
using StateVisitor = std::function<void(const std::string& name, Tensor& t)>;

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the layer output; caches activations needed by backward().
  virtual Tensor forward(const Tensor& x) = 0;

  // Context-carrying overload, the inference entry point. Layers have one
  // forward; the context path is the compiled plan: models::ConvNet
  // overrides this to run it, and the plan's executor calls it only on
  // gate modules. This default, the plain forward, is the gate hook:
  // gates without an in-place path (FbsGate, ChannelStatsGate, and a
  // core::AttentionGate in soft mode, disabled or at zero ratios) reach
  // the plan through it; a masking AttentionGate is run in place by the
  // plan instead. Returned tensors may borrow the context's arena and are
  // then invalidated by its next begin_pass().
  virtual Tensor forward(const Tensor& x, ExecutionContext& ctx) {
    (void)ctx;
    return forward(x);
  }

  // Given dLoss/dOutput, accumulates parameter gradients and returns
  // dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Learnable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  // Visits persistent state under `prefix` (default: parameters only).
  virtual void visit_state(const std::string& prefix, const StateVisitor& fn);

  // Switches train/eval behaviour (BatchNorm statistics, dropout).
  virtual void set_training(bool training) { training_ = training; }
  bool is_training() const { return training_; }

  // Human-readable layer type for diagnostics and the FLOPs report.
  virtual std::string type_name() const = 0;

  // Multiply-accumulate count of the most recent forward() call. Layers
  // without arithmetic report 0. Dynamic (masked) convolutions report the
  // actually executed MACs, which is how the harness measures FLOPs
  // reduction.
  virtual int64_t last_macs() const { return 0; }

  // Zeroes all parameter gradients.
  void zero_grad();

 protected:
  bool training_ = true;
};

// Interface for feature-map gates (implemented by AntiDote's attention
// gate). A disabled gate behaves as the identity, which lets tooling such
// as the FLOPs prober measure the dense baseline of a gated model without
// tearing the gates down.
class Gate : public Module {
 public:
  virtual void set_enabled(bool enabled) = 0;
  virtual bool enabled() const = 0;
};

// Feed-forward container executing children in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Appends a child and returns a non-owning typed pointer to it.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto child = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = child.get();
    children_.push_back(std::move(child));
    return raw;
  }
  void add_module(std::unique_ptr<Module> m) {
    children_.push_back(std::move(m));
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  void visit_state(const std::string& prefix, const StateVisitor& fn) override;
  void set_training(bool training) override;
  std::string type_name() const override { return "Sequential"; }
  int64_t last_macs() const override;

  size_t size() const { return children_.size(); }
  Module* child(size_t i) { return children_.at(i).get(); }
  const Module* child(size_t i) const { return children_.at(i).get(); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

// Total number of scalar weights across a module's parameters.
int64_t parameter_count(Module& m);

}  // namespace antidote::nn
