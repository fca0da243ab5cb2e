// ConvNet: the model-side contract AntiDote's dynamic optimization plugs
// into.
//
// A ConvNet exposes *gate sites* — the positions "between two consecutive
// convolutional layers" (paper Fig. 1) where a feature-map gate may be
// installed. A gate is an ordinary nn::Module observing the post-ReLU
// feature map; the model additionally tells the gate's owner which Conv2d
// consumes that feature map (so test-phase pruning can instruct it to skip
// channels/positions) and whether the consumer preserves the spatial grid
// (so spatial-column masks are well-defined).
//
// For VGG there is one site after every conv layer; for CIFAR ResNets there
// is one site per basic block, after the first conv's ReLU — the paper
// prunes "only the odd layers in the group" because the even layers' output
// must keep the channel count of the skip connection.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"

namespace antidote::plan {
class InferencePlan;
class PlanBuilder;
enum class NumericRegime;
enum class CoarsenMode;
}  // namespace antidote::plan

namespace antidote::models {

class ConvNet : public nn::Module {
 public:
  ConvNet();
  ~ConvNet() override;

  // --- compiled inference ---
  // The test-phase context forward runs a compiled InferencePlan (BN
  // folded into fused conv steps, buffer offsets planned ahead of time)
  // instead of walking the module tree; see src/plan/. The plan is
  // compiled lazily for the input shape and cached; training forwards
  // keep the module walk (the plain overload is untouched).
  using nn::Module::forward;
  Tensor forward(const Tensor& x, nn::ExecutionContext& ctx) override;

  // Invalidates the cached plan: BatchNorm statistics folded at compile
  // time go stale when training touches them.
  void set_training(bool training) override;

  // The compiled plan for a {C, H, W} input, building it if needed.
  // Callers that must not allocate during the first forward (serving
  // replicas, benches) compile and reserve through this up front.
  plan::InferencePlan& inference_plan(int in_c, int in_h, int in_w);
  // The cached plan, if one is compiled (nullptr otherwise).
  plan::InferencePlan* current_plan() { return plan_.get(); }
  // Drops the cached plan; the next context forward recompiles. Models
  // call this on structural changes (gate install/remove); call it
  // manually after mutating weights or BN statistics in eval mode (e.g.
  // loading a checkpoint into an already-eval model).
  void invalidate_plan();

  // Numeric regime every compiled plan runs under (f32 by default). Set
  // before the first context forward (or any time — it applies to the
  // cached plan and to every future compile, including plans built after
  // a shape change or invalidate_plan). Serving replica factories call
  // this so replicas come up quantized without ever executing f32.
  void set_numeric_regime(plan::NumericRegime regime);
  plan::NumericRegime numeric_regime() const { return regime_; }

  // Similar-mask union coarsening mode every compiled plan runs under
  // (auto by default). Like the numeric regime, it is sticky: applied to
  // the cached plan and re-applied to every future compile, so callers
  // (the CLI's --coarsen flag) set it once on the model.
  void set_coarsen_policy(plan::CoarsenMode mode);

  // Per-request compute cap every compiled plan enforces (1.0 = uncapped
  // by default): the max kept-MAC fraction a sample's runtime masks may
  // demand of any conv step before the executor clamps them. Sticky like
  // the other plan policies; the serving stack sets it once per replica.
  void set_compute_cap(double cap);
  double compute_cap() const { return compute_cap_; }

  // --- gate sites ---
  virtual int num_gate_sites() const = 0;
  // Installs (replacing any previous) gate at `site`; nullptr removes it.
  virtual void install_gate(int site, std::unique_ptr<nn::Module> gate) = 0;
  virtual nn::Module* gate(int site) const = 0;
  void clear_gates() {
    for (int s = 0; s < num_gate_sites(); ++s) install_gate(s, nullptr);
  }
  // The convolution that consumes the gated feature map (nullptr when the
  // site output feeds only the classifier head).
  virtual nn::Conv2d* gate_consumer(int site) = 0;
  // The convolution that produced the feature map observed at `site`.
  // Static filter pruning uses this to skip the pruned filters at their
  // source as well.
  virtual nn::Conv2d* gate_producer(int site) = 0;
  // The BatchNorm normalizing the producer's output (nullptr if none);
  // static pruning zeroes its affine parameters for pruned filters.
  virtual nn::BatchNorm2d* gate_producer_bn(int site) = 0;
  // True when the consumer sees the same spatial grid the gate masks
  // (no pooling in between and a grid-preserving consumer), i.e. spatial
  // column masks can be forwarded as skip instructions.
  virtual bool gate_spatially_aligned(int site) const = 0;

  // --- block structure (for per-block pruning ratios, Fig. 3) ---
  virtual int num_blocks() const = 0;
  virtual int block_of_site(int site) const = 0;

  // --- introspection ---
  // MAC-counting layers in execution order, with hierarchical names.
  virtual std::vector<std::pair<std::string, nn::Module*>>
  arithmetic_layers() = 0;
  virtual int num_classes() const = 0;
  virtual std::string model_name() const = 0;

 protected:
  // Describes the model's eval-phase dataflow to the plan compiler by
  // appending ops in execution order (see plan::PlanBuilder).
  virtual void build_plan(plan::PlanBuilder& builder) = 0;

 private:
  std::unique_ptr<plan::InferencePlan> plan_;
  int plan_c_ = -1, plan_h_ = -1, plan_w_ = -1;
  // Initialized to kF32 in the constructor (the enum is opaque here).
  plan::NumericRegime regime_;
  // Sticky coarsening mode (kAuto in the constructor, same treatment).
  plan::CoarsenMode coarsen_mode_;
  // Sticky per-request compute cap (1.0 = uncapped).
  double compute_cap_ = 1.0;
};

}  // namespace antidote::models
