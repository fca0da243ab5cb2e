#include "models/convnet.h"

#include "base/error.h"
#include "plan/builder.h"
#include "plan/plan.h"

namespace antidote::models {

ConvNet::ConvNet()
    : regime_(plan::NumericRegime::kF32),
      coarsen_mode_(plan::CoarsenMode::kAuto) {}
ConvNet::~ConvNet() = default;

Tensor ConvNet::forward(const Tensor& x, nn::ExecutionContext& ctx) {
  if (is_training()) return forward(x);
  AD_CHECK_EQ(x.ndim(), 4) << " ConvNet expects NCHW, got " << x.shape_str();
  return inference_plan(x.dim(1), x.dim(2), x.dim(3)).run(x, ctx);
}

void ConvNet::set_training(bool training) {
  // Entering training mutates BatchNorm running statistics (folded into
  // the plan's epilogue constants at compile time); leaving it means a
  // fresh fold is needed. Either way the cached plan is stale.
  invalidate_plan();
  nn::Module::set_training(training);
}

plan::InferencePlan& ConvNet::inference_plan(int in_c, int in_h, int in_w) {
  if (plan_ == nullptr || plan_c_ != in_c || plan_h_ != in_h ||
      plan_w_ != in_w) {
    plan::PlanBuilder builder(Shape{in_c, in_h, in_w});
    build_plan(builder);
    plan_ = std::make_unique<plan::InferencePlan>(builder.finish());
    plan_c_ = in_c;
    plan_h_ = in_h;
    plan_w_ = in_w;
  }
  // Applied on every fetch (idempotent): plans compile as f32 with the
  // default coarsening mode, and the model's regime and mode must
  // survive recompiles (shape changes, gate installs).
  plan_->set_regime(regime_);
  plan_->set_coarsen(coarsen_mode_);
  plan_->set_compute_cap(compute_cap_);
  return *plan_;
}

void ConvNet::set_numeric_regime(plan::NumericRegime regime) {
  regime_ = regime;
  if (plan_ != nullptr) plan_->set_regime(regime);
}

void ConvNet::set_coarsen_policy(plan::CoarsenMode mode) {
  coarsen_mode_ = mode;
  if (plan_ != nullptr) plan_->set_coarsen(mode);
}

void ConvNet::set_compute_cap(double cap) {
  compute_cap_ = cap;
  if (plan_ != nullptr) plan_->set_compute_cap(cap);
}

void ConvNet::invalidate_plan() {
  plan_.reset();
  plan_c_ = plan_h_ = plan_w_ = -1;
}

}  // namespace antidote::models
