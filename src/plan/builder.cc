#include "plan/builder.h"

#include <algorithm>
#include <cmath>

#include "base/error.h"
#include "core/gate.h"
#include "nn/conv_kernels.h"
#include "tensor/gemm.h"

namespace antidote::plan {

namespace {

constexpr int64_t kFloatAlign =
    static_cast<int64_t>(Workspace::kAlign / sizeof(float));

int64_t align_floats(int64_t floats) {
  return (floats + kFloatAlign - 1) & ~(kFloatAlign - 1);
}

}  // namespace

PlanBuilder::PlanBuilder(Shape input_chw) {
  AD_CHECK_EQ(input_chw.size(), 3u) << " plan input must be {C, H, W}";
  plan_.input_buffer_ = add_buffer(input_chw, /*planned=*/false);
}

int PlanBuilder::add_buffer(const Shape& per_sample_shape, bool planned) {
  PlanBuffer buf;
  buf.per_sample_shape = per_sample_shape;
  buf.per_sample_floats = align_floats(shape_floats(per_sample_shape));
  buf.planned = planned;
  buf.def_op = static_cast<int>(plan_.ops_.size()) - 1;  // fixed by append
  plan_.buffers_.push_back(buf);
  return static_cast<int>(plan_.buffers_.size()) - 1;
}

const Shape& PlanBuilder::shape_of(int buffer) const {
  AD_CHECK(buffer >= 0 &&
           buffer < static_cast<int>(plan_.buffers_.size()))
      << " unknown plan buffer " << buffer;
  return plan_.buffers_[static_cast<size_t>(buffer)].per_sample_shape;
}

PlanOp& PlanBuilder::append(OpKind kind, int src, const Shape& out_shape,
                            bool planned, const std::string& name) {
  const int op_index = static_cast<int>(plan_.ops_.size());
  PlanOp op;
  op.kind = kind;
  op.name = name;
  op.input = src;
  op.in_shape = shape_of(src);
  op.out_shape = out_shape;
  plan_.ops_.push_back(std::move(op));
  plan_.buffers_[static_cast<size_t>(src)].last_use_op = op_index;
  const int out = add_buffer(out_shape, planned);
  plan_.buffers_[static_cast<size_t>(out)].def_op = op_index;
  plan_.ops_.back().output = out;
  return plan_.ops_.back();
}

int PlanBuilder::conv(nn::Conv2d* conv, nn::BatchNorm2d* bn, bool relu,
                      int src, int residual, const std::string& name) {
  AD_CHECK(conv != nullptr);
  const Shape& in = shape_of(src);
  AD_CHECK_EQ(in.size(), 3u) << " conv input must be {C, H, W}";
  AD_CHECK_EQ(in[0], conv->in_channels()) << " conv input channels at " << name;
  ConvGeom g{conv->in_channels(), in[1],          in[2],
             conv->kernel_size(), conv->kernel_size(),
             conv->stride(),      conv->padding()};
  g.validate();
  const Shape out_shape{conv->out_channels(), g.out_h(), g.out_w()};
  if (bn != nullptr) {
    AD_CHECK_EQ(bn->channels(), conv->out_channels())
        << " BatchNorm channels at " << name;
  }
  if (residual >= 0) {
    AD_CHECK(shape_of(residual) == out_shape)
        << " residual shape mismatch at " << name;
  }

  PlanOp& op = append(OpKind::kConv, src, out_shape, /*planned=*/true, name);
  op.conv = conv;
  op.geom = g;
  op.tile_pos = choose_conv_tile(g, conv->out_channels());
  op.residual = residual;
  if (residual >= 0) {
    PlanBuffer& res = plan_.buffers_[static_cast<size_t>(residual)];
    res.last_use_op =
        std::max(res.last_use_op, static_cast<int>(plan_.ops_.size()) - 1);
  }
  op.fuse_relu = relu;
  if (bn != nullptr) {
    // Fold the eval-mode BatchNorm into per-channel epilogue constants.
    // inv_std uses the module's exact expression (1 / sqrt(var + eps)) so
    // the fused result stays bitwise identical to the separate BN pass.
    op.fuse_bn = true;
    const int c = bn->channels();
    op.bn.mean.resize(static_cast<size_t>(c));
    op.bn.inv_std.resize(static_cast<size_t>(c));
    for (int ch = 0; ch < c; ++ch) {
      op.bn.mean[static_cast<size_t>(ch)] = bn->running_mean()[ch];
      op.bn.inv_std[static_cast<size_t>(ch)] =
          1.f / std::sqrt(bn->running_var()[ch] + bn->eps());
    }
    op.bn.gamma = bn->gamma().value.data();
    op.bn.beta = bn->beta().value.data();
  }
  op.dense_macs = static_cast<int64_t>(conv->out_channels()) *
                  g.out_positions() * g.patch_rows();
  // The conv consuming a gate's output (possibly through a pool — see
  // max_pool) is the one the gate masks. Each gate masks exactly one conv.
  if (src == last_gate_output_) {
    op.prune_block = last_gate_block_;
    op.prune_spatial = last_gate_spatial_;
    last_gate_output_ = -1;
  }
  return op.output;
}

int PlanBuilder::gate(nn::Module* gate, int src, const std::string& name,
                      int block, bool spatially_aligned) {
  AD_CHECK(gate != nullptr);
  // Gate outputs are not placed by the planner: a gate's output is its
  // input buffer (masked in place, or passed through) or a tensor its
  // module returns.
  PlanOp& op =
      append(OpKind::kGate, src, shape_of(src), /*planned=*/false, name);
  op.gate = gate;
  op.attention = dynamic_cast<core::AttentionGate*>(gate);
  last_gate_output_ = op.output;
  last_gate_block_ = block;
  last_gate_spatial_ = spatially_aligned;
  return op.output;
}

int PlanBuilder::max_pool(nn::MaxPool2d* pool, int src,
                          const std::string& name) {
  AD_CHECK(pool != nullptr);
  const Shape& in = shape_of(src);
  AD_CHECK_EQ(in.size(), 3u);
  const int k = pool->kernel_size(), stride = pool->stride();
  // h < k would truncate (h - k) / stride toward zero and "pass" the
  // emptiness check while reading out of bounds.
  AD_CHECK(in[1] >= k && in[2] >= k)
      << " MaxPool window larger than its input at " << name;
  const int oh = (in[1] - k) / stride + 1;
  const int ow = (in[2] - k) / stride + 1;
  AD_CHECK(oh > 0 && ow > 0) << " MaxPool output empty at " << name;
  PlanOp& op = append(OpKind::kMaxPool, src, Shape{in[0], oh, ow},
                      /*planned=*/true, name);
  op.pool_k = k;
  op.pool_stride = stride;
  // In the VGG-style models a gate's consumer conv sits BEHIND the
  // unit's pool (gate_consumer = next unit's conv): channel masks still
  // reach it, so carry the pruning metadata through. Spatial skips never
  // survive a grid change.
  if (src == last_gate_output_) {
    last_gate_output_ = op.output;
    last_gate_spatial_ = false;
  }
  return op.output;
}

int PlanBuilder::global_avg_pool(int src, const std::string& name) {
  const Shape& in = shape_of(src);
  AD_CHECK_EQ(in.size(), 3u);
  PlanOp& op = append(OpKind::kGlobalAvgPool, src, Shape{in[0]},
                      /*planned=*/true, name);
  return op.output;
}

int PlanBuilder::linear(nn::Linear* fc, int src, const std::string& name) {
  AD_CHECK(fc != nullptr);
  const Shape& in = shape_of(src);
  AD_CHECK_EQ(in.size(), 1u) << " linear input must be flat";
  AD_CHECK_EQ(in[0], fc->in_features()) << " linear input features at "
                                        << name;
  PlanOp& op = append(OpKind::kLinear, src, Shape{fc->out_features()},
                      /*planned=*/true, name);
  op.linear = fc;
  op.dense_macs = static_cast<int64_t>(fc->out_features()) * fc->in_features();
  return op.output;
}

int PlanBuilder::shortcut(int src, int out_c, int stride,
                          const std::string& name) {
  const Shape& in = shape_of(src);
  AD_CHECK_EQ(in.size(), 3u);
  AD_CHECK_GE(out_c, in[0]);
  if (out_c == in[0] && stride == 1) return src;  // identity
  const int oh = (in[1] + stride - 1) / stride;
  const int ow = (in[2] + stride - 1) / stride;
  PlanOp& op = append(OpKind::kShortcut, src, Shape{out_c, oh, ow},
                      /*planned=*/true, name);
  op.shortcut_stride = stride;
  return op.output;
}

InferencePlan PlanBuilder::finish() {
  AD_CHECK(!plan_.ops_.empty()) << " empty plan";
  plan_.output_buffer_ = plan_.ops_.back().output;
  // The logits must stay readable after the last op.
  plan_.buffers_[static_cast<size_t>(plan_.output_buffer_)].last_use_op =
      static_cast<int>(plan_.ops_.size());

  // An AttentionGate masks its input in place and gets its attention from
  // the producing conv's epilogue, so that input must be a conv step's
  // output that nothing but the gate reads. Link the producer to it.
  for (size_t i = 0; i < plan_.ops_.size(); ++i) {
    PlanOp& op = plan_.ops_[i];
    if (op.kind != OpKind::kGate || op.attention == nullptr) continue;
    const PlanBuffer& in_buf = plan_.buffers_[static_cast<size_t>(op.input)];
    AD_CHECK(in_buf.def_op >= 0 &&
             plan_.ops_[static_cast<size_t>(in_buf.def_op)].kind ==
                 OpKind::kConv)
        << " AttentionGate " << op.name
        << " must read a conv step's output (it masks that buffer in place)";
    for (size_t j = 0; j < plan_.ops_.size(); ++j) {
      const PlanOp& other = plan_.ops_[j];
      AD_CHECK(j == i ||
               (other.input != op.input && other.residual != op.input))
          << " AttentionGate " << op.name << " masks its input in place, but "
          << other.name << " reads that buffer too";
    }
    plan_.ops_[static_cast<size_t>(in_buf.def_op)].attention = op.attention;
  }

  // A gate's output is its INPUT buffer when it masks in place or decides
  // to be an identity (zero ratios, disabled probe): the input must stay
  // live as long as anything reads the gate's output. Propagate in reverse
  // op order so gate chains extend all the way back.
  for (size_t i = plan_.ops_.size(); i-- > 0;) {
    const PlanOp& op = plan_.ops_[i];
    if (op.kind != OpKind::kGate) continue;
    PlanBuffer& in_buf = plan_.buffers_[static_cast<size_t>(op.input)];
    const PlanBuffer& out_buf =
        plan_.buffers_[static_cast<size_t>(op.output)];
    in_buf.last_use_op = std::max(in_buf.last_use_op, out_buf.last_use_op);
  }

  // --- buffer lifetime analysis + first-fit offset assignment ----------
  // A planned buffer is live from its defining op through its last use;
  // two buffers may share arena space iff their live ranges are disjoint.
  // First-fit over per-sample float offsets (every size is a multiple of
  // the arena alignment, so offsets scale with the batch size without
  // breaking alignment).
  struct Placed {
    int64_t begin, end;  // float range
    int def, last;       // live range
  };
  std::vector<Placed> placed;
  int64_t high_water = 0;
  for (size_t i = 0; i < plan_.buffers_.size(); ++i) {
    PlanBuffer& buf = plan_.buffers_[i];
    if (!buf.planned) continue;
    // Collect conflicting occupations, sorted by offset.
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (const Placed& p : placed) {
      if (p.def <= buf.last_use_op && buf.def_op <= p.last) {
        busy.emplace_back(p.begin, p.end);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t off = 0;
    for (const auto& [begin, end] : busy) {
      if (off + buf.per_sample_floats <= begin) break;
      off = std::max(off, end);
    }
    buf.offset_floats = off;
    placed.push_back(
        Placed{off, off + buf.per_sample_floats, buf.def_op, buf.last_use_op});
    high_water = std::max(high_water, off + buf.per_sample_floats);
  }
  plan_.act_floats_ = high_water;

  // --- grouped-execution state ------------------------------------------
  // Per-op kernel scratch is computed by arena_bytes() directly from the op
  // geometry (it depends on the batch size under grouped execution). The
  // plan's shared identity-index (iota) array, sized at the largest
  // channel count, is built once, so conv steps never rebuild index sets.
  int64_t max_dim = 0;
  for (const PlanOp& op : plan_.ops_) {
    if (op.kind != OpKind::kConv) continue;
    max_dim = std::max<int64_t>(max_dim, op.geom.in_c);
    max_dim = std::max<int64_t>(max_dim, op.out_shape[0]);
  }
  plan_.iota_.resize(static_cast<size_t>(max_dim));
  for (int64_t i = 0; i < max_dim; ++i) {
    plan_.iota_[static_cast<size_t>(i)] = static_cast<int>(i);
  }

  plan_.slots_.assign(plan_.buffers_.size(), Tensor());
  return std::move(plan_);
}

}  // namespace antidote::plan
