#include "nn/module.h"

#include "base/error.h"

namespace antidote::nn {

void Module::visit_state(const std::string& prefix, const StateVisitor& fn) {
  for (Parameter* p : parameters()) {
    fn(prefix + p->name, p->value);
  }
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& child : children_) cur = child->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& child : children_) {
    for (Parameter* p : child->parameters()) out.push_back(p);
  }
  return out;
}

void Sequential::visit_state(const std::string& prefix,
                             const StateVisitor& fn) {
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->visit_state(prefix + std::to_string(i) + ".", fn);
  }
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& child : children_) child->set_training(training);
}

int64_t Sequential::last_macs() const {
  int64_t total = 0;
  for (const auto& child : children_) total += child->last_macs();
  return total;
}

int64_t parameter_count(Module& m) {
  int64_t total = 0;
  for (Parameter* p : m.parameters()) total += p->value.size();
  return total;
}

}  // namespace antidote::nn
