#include "models/resnet.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/error.h"
#include "nn/conv_kernels.h"
#include "plan/builder.h"
#include "tensor/ops.h"

namespace antidote::models {

namespace {
int scaled(int base, float mult) {
  return std::max(1, static_cast<int>(std::lround(base * mult)));
}
constexpr int kBaseWidths[3] = {16, 32, 64};
}  // namespace

Tensor shortcut_option_a(const Tensor& x, int out_c, int stride) {
  AD_CHECK_EQ(x.ndim(), 4);
  const int n = x.dim(0), in_c = x.dim(1), h = x.dim(2), w = x.dim(3);
  AD_CHECK_GE(out_c, in_c);
  if (out_c == in_c && stride == 1) return x;
  const int oh = (h + stride - 1) / stride;
  const int ow = (w + stride - 1) / stride;
  Tensor y({n, out_c, oh, ow});
  // The shared kernel zero-fills the padded extra channels (the plan's
  // arena output is uninitialized) and writes the subsampled grid.
  nn::shortcut_subsample_into(x.data(), n, in_c, h, w, out_c, stride,
                              y.data());
  return y;
}

Tensor shortcut_option_a_backward(const Tensor& dy, const Shape& in_shape,
                                  int stride) {
  AD_CHECK_EQ(in_shape.size(), 4u);
  const int n = in_shape[0], in_c = in_shape[1];
  if (dy.dim(1) == in_c && stride == 1) return dy;
  Tensor dx(in_shape);
  const int oh = dy.dim(2), ow = dy.dim(3);
  for (int b = 0; b < n; ++b) {
    for (int c = 0; c < in_c; ++c) {  // gradients of padded channels vanish
      for (int yy = 0; yy < oh; ++yy) {
        for (int xx = 0; xx < ow; ++xx) {
          dx.at4(b, c, yy * stride, xx * stride) = dy.at4(b, c, yy, xx);
        }
      }
    }
  }
  return dx;
}

ResNetCifar::ResNetCifar(const ResNetConfig& config) : config_(config) {
  AD_CHECK_GT(config.blocks_per_group, 0);
  AD_CHECK_GT(config.width_mult, 0.f);
  const int w0 = scaled(kBaseWidths[0], config.width_mult);
  stem_conv_ = std::make_unique<nn::Conv2d>(config.in_channels, w0, 3, 1, 1,
                                            /*bias=*/false);
  stem_bn_ = std::make_unique<nn::BatchNorm2d>(w0);
  stem_relu_ = std::make_unique<nn::ReLU>();

  int in_c = w0;
  for (int g = 0; g < 3; ++g) {
    const int width = scaled(kBaseWidths[g], config.width_mult);
    for (int i = 0; i < config.blocks_per_group; ++i) {
      Block b;
      b.group = g;
      b.stride = (g > 0 && i == 0) ? 2 : 1;
      b.in_c = in_c;
      b.out_c = width;
      b.conv1 = std::make_unique<nn::Conv2d>(in_c, width, 3, b.stride, 1,
                                             /*bias=*/false);
      b.bn1 = std::make_unique<nn::BatchNorm2d>(width);
      b.relu1 = std::make_unique<nn::ReLU>();
      b.conv2 =
          std::make_unique<nn::Conv2d>(width, width, 3, 1, 1, /*bias=*/false);
      b.bn2 = std::make_unique<nn::BatchNorm2d>(width);
      b.relu2 = std::make_unique<nn::ReLU>();
      blocks_.push_back(std::move(b));
      in_c = width;
    }
  }
  classifier_ = std::make_unique<nn::Linear>(in_c, config.num_classes);
}

Tensor ResNetCifar::block_forward(Block& b, const Tensor& x) {
  b.cached_input = x;
  Tensor out = b.conv1->forward(x);
  out = b.bn1->forward(out);
  out = b.relu1->forward(out);
  if (b.gate) out = b.gate->forward(out);
  out = b.conv2->forward(out);
  out = b.bn2->forward(out);
  const Tensor sc = shortcut_option_a(x, b.out_c, b.stride);
  ops::add_(out, sc);
  return b.relu2->forward(out);
}

Tensor ResNetCifar::block_backward(Block& b, const Tensor& dy) {
  Tensor d = b.relu2->backward(dy);
  // Branch path.
  Tensor db = b.bn2->backward(d);
  db = b.conv2->backward(db);
  if (b.gate) db = b.gate->backward(db);
  db = b.relu1->backward(db);
  db = b.bn1->backward(db);
  db = b.conv1->backward(db);
  // Shortcut path.
  Tensor ds =
      shortcut_option_a_backward(d, b.cached_input.shape(), b.stride);
  ops::add_(db, ds);
  return db;
}

Tensor ResNetCifar::forward(const Tensor& x) {
  Tensor cur = stem_conv_->forward(x);
  cur = stem_bn_->forward(cur);
  cur = stem_relu_->forward(cur);
  for (Block& b : blocks_) cur = block_forward(b, cur);
  cur = gap_.forward(cur);
  return classifier_->forward(cur);
}

void ResNetCifar::build_plan(plan::PlanBuilder& builder) {
  int cur = builder.conv(stem_conv_.get(), stem_bn_.get(), /*relu=*/true,
                         builder.input(), /*residual=*/-1, "stem");
  for (size_t i = 0; i < blocks_.size(); ++i) {
    Block& b = blocks_[i];
    const std::string base = "block" + std::to_string(i);
    // The option-A shortcut is scheduled before the branch (values are
    // order-independent; the planner keeps both alive until the fused
    // conv2 epilogue consumes the residual).
    const int sc = builder.shortcut(cur, b.out_c, b.stride, base + ".sc");
    int t = builder.conv(b.conv1.get(), b.bn1.get(), /*relu=*/true, cur,
                         /*residual=*/-1, base + ".conv1");
    if (b.gate) {
      t = builder.gate(b.gate.get(), t, base + ".gate", b.group,
                       /*spatially_aligned=*/true);
    }
    cur = builder.conv(b.conv2.get(), b.bn2.get(), /*relu=*/true, t,
                       /*residual=*/sc, base + ".conv2");
  }
  builder.linear(classifier_.get(), builder.global_avg_pool(cur, "gap"),
                 "fc");
}

Tensor ResNetCifar::backward(const Tensor& grad_out) {
  Tensor cur = classifier_->backward(grad_out);
  cur = gap_.backward(cur);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    cur = block_backward(*it, cur);
  }
  cur = stem_relu_->backward(cur);
  cur = stem_bn_->backward(cur);
  return stem_conv_->backward(cur);
}

std::vector<nn::Parameter*> ResNetCifar::parameters() {
  std::vector<nn::Parameter*> out;
  auto append = [&out](std::vector<nn::Parameter*> ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(stem_conv_->parameters());
  append(stem_bn_->parameters());
  for (Block& b : blocks_) {
    append(b.conv1->parameters());
    append(b.bn1->parameters());
    append(b.conv2->parameters());
    append(b.bn2->parameters());
    if (b.gate) append(b.gate->parameters());
  }
  append(classifier_->parameters());
  return out;
}

void ResNetCifar::visit_state(const std::string& prefix,
                              const nn::StateVisitor& fn) {
  stem_conv_->visit_state(prefix + "stem.conv.", fn);
  stem_bn_->visit_state(prefix + "stem.bn.", fn);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const std::string base = prefix + "block" + std::to_string(i) + ".";
    blocks_[i].conv1->visit_state(base + "conv1.", fn);
    blocks_[i].bn1->visit_state(base + "bn1.", fn);
    blocks_[i].conv2->visit_state(base + "conv2.", fn);
    blocks_[i].bn2->visit_state(base + "bn2.", fn);
    if (blocks_[i].gate) blocks_[i].gate->visit_state(base + "gate.", fn);
  }
  classifier_->visit_state(prefix + "fc.", fn);
}

void ResNetCifar::set_training(bool training) {
  ConvNet::set_training(training);
  stem_conv_->set_training(training);
  stem_bn_->set_training(training);
  stem_relu_->set_training(training);
  for (Block& b : blocks_) {
    b.conv1->set_training(training);
    b.bn1->set_training(training);
    b.relu1->set_training(training);
    if (b.gate) b.gate->set_training(training);
    b.conv2->set_training(training);
    b.bn2->set_training(training);
    b.relu2->set_training(training);
  }
  gap_.set_training(training);
  classifier_->set_training(training);
}

int64_t ResNetCifar::last_macs() const {
  int64_t total = stem_conv_->last_macs();
  for (const Block& b : blocks_) {
    total += b.conv1->last_macs() + b.conv2->last_macs();
  }
  return total + classifier_->last_macs();
}

void ResNetCifar::install_gate(int site, std::unique_ptr<nn::Module> gate) {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  if (gate) gate->set_training(is_training());
  blocks_[static_cast<size_t>(site)].gate = std::move(gate);
  invalidate_plan();
}

nn::Module* ResNetCifar::gate(int site) const {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  return blocks_[static_cast<size_t>(site)].gate.get();
}

nn::Conv2d* ResNetCifar::gate_consumer(int site) {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  return blocks_[static_cast<size_t>(site)].conv2.get();
}

nn::Conv2d* ResNetCifar::gate_producer(int site) {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  return blocks_[static_cast<size_t>(site)].conv1.get();
}

nn::BatchNorm2d* ResNetCifar::gate_producer_bn(int site) {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  return blocks_[static_cast<size_t>(site)].bn1.get();
}

int ResNetCifar::block_of_site(int site) const {
  AD_CHECK(site >= 0 && site < num_gate_sites()) << " gate site " << site;
  return blocks_[static_cast<size_t>(site)].group;
}

std::vector<std::pair<std::string, nn::Module*>>
ResNetCifar::arithmetic_layers() {
  std::vector<std::pair<std::string, nn::Module*>> out;
  out.emplace_back("stem", stem_conv_.get());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    out.emplace_back("block" + std::to_string(i) + ".conv1",
                     blocks_[i].conv1.get());
    out.emplace_back("block" + std::to_string(i) + ".conv2",
                     blocks_[i].conv2.get());
  }
  out.emplace_back("fc", classifier_.get());
  return out;
}

std::string ResNetCifar::model_name() const {
  return "resnet" + std::to_string(6 * config_.blocks_per_group + 2);
}

}  // namespace antidote::models
