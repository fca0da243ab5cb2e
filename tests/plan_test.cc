// InferencePlan compiler + executor: BN-fold numerics against the unfused
// module walk (dense and masked, bitwise), exact ahead-of-time
// arena sizing (zero growths from the very first context forward, and a
// measured arena peak within arena_bytes(n)), masked
// execution through the fused conv steps for all three model families,
// compute-cap semantics, spatial tiling, plan invalidation, and the
// cost-model metadata the serving controller consumes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "baselines/fbs_gate.h"
#include "core/engine.h"
#include "core/gate.h"
#include "models/factory.h"
#include "models/small_cnn.h"
#include "nn/execution_context.h"
#include "plan/builder.h"
#include "plan/plan.h"
#include "tensor/tensor.h"

namespace antidote {
namespace {

struct Case {
  const char* model;
  int image;
  float width;
};
const Case kCases[] = {
    {"small_cnn", 16, 1.0f},
    {"resnet20", 16, 0.5f},
    {"vgg16", 32, 0.25f},  // five 2x2 pools: needs at least 32x32 input
};

std::unique_ptr<models::ConvNet> build(const Case& c, uint64_t seed = 11) {
  Rng rng(seed);
  auto net = models::make_model(c.model, 10, c.width, rng);
  net->set_training(false);
  return net;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(double(a[i]) - double(b[i])));
  }
  return worst;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(InferencePlan, FusedDenseBitwiseMatchesUnfusedModuleWalk) {
  for (const Case& c : kCases) {
    auto net = build(c);
    Rng rng(3);
    Tensor x = Tensor::randn({2, 3, c.image, c.image}, rng);
    const Tensor plain = net->forward(x);  // unfused conv -> BN -> ReLU

    nn::ExecutionContext ctx;
    ctx.begin_pass();
    const Tensor fused = net->forward(x, ctx);
    EXPECT_TRUE(bitwise_equal(plain, fused)) << c.model;

    // The fusion actually happened: the plan has no standalone BN/ReLU
    // steps, and every conv step folded its BatchNorm and activation.
    const plan::InferencePlan* plan = net->current_plan();
    ASSERT_NE(plan, nullptr) << c.model;
    for (const plan::PlanOp& op : plan->ops()) {
      if (op.kind == plan::OpKind::kConv) {
        EXPECT_TRUE(op.fuse_bn) << c.model << " " << op.name;
        EXPECT_TRUE(op.fuse_relu) << c.model << " " << op.name;
      }
    }
    EXPECT_EQ(plan->dense_macs_per_sample() * 2, net->last_macs())
        << c.model;
  }
}

// Gate configurations the plan must reproduce bit for bit. Hard top-k
// gates that mask run in place (epilogue attention, zeroing in the
// producer's buffer); soft, disabled and zero-ratio gates run their module
// forward.
struct GateVariant {
  const char* name;
  core::MaskOrder order = core::MaskOrder::kAttention;
  core::GateMode mode = core::GateMode::kHardTopK;
  float channel = 0.4f;
  float spatial = 0.3f;
  bool disable_first = false;  // gate 0 disabled, the rest masking
};
const GateVariant kGateVariants[] = {
    {"attention"},
    {"channel only", core::MaskOrder::kAttention, core::GateMode::kHardTopK,
     0.5f, 0.f},
    {"random", core::MaskOrder::kRandom},
    {"inverse", core::MaskOrder::kInverseAttention},
    {"soft", core::MaskOrder::kAttention, core::GateMode::kSoftSigmoid},
    {"disabled gate", core::MaskOrder::kAttention, core::GateMode::kHardTopK,
     0.4f, 0.3f, true},
    {"zero ratios", core::MaskOrder::kAttention, core::GateMode::kHardTopK,
     0.f, 0.f},
};

void expect_same_gate(const core::AttentionGate& walk,
                      const core::AttentionGate& plan,
                      const std::string& where) {
  const auto& wm = walk.last_masks();
  const auto& pm = plan.last_masks();
  ASSERT_EQ(wm.size(), pm.size()) << where;
  for (size_t i = 0; i < wm.size(); ++i) {
    EXPECT_EQ(wm[i].channels, pm[i].channels) << where << " sample " << i;
    EXPECT_EQ(wm[i].positions, pm[i].positions) << where << " sample " << i;
    EXPECT_EQ(wm[i].out_channels, pm[i].out_channels)
        << where << " sample " << i;
  }
  const auto& ws = walk.last_stats();
  const auto& ps = plan.last_stats();
  EXPECT_EQ(ws.samples, ps.samples) << where;
  EXPECT_EQ(ws.channels, ps.channels) << where;
  EXPECT_EQ(ws.positions, ps.positions) << where;
  EXPECT_EQ(ws.kept_channels, ps.kept_channels) << where;
  EXPECT_EQ(ws.kept_positions, ps.kept_positions) << where;
  // A half the gate never pruned holds no attention tensor at all.
  const auto same_attention = [](const Tensor& a, const Tensor& b) {
    return a.size() == 0 ? a.same_shape(b) : bitwise_equal(a, b);
  };
  EXPECT_TRUE(same_attention(walk.last_channel_attention(),
                             plan.last_channel_attention()))
      << where << " channel attention";
  EXPECT_TRUE(same_attention(walk.last_spatial_attention(),
                             plan.last_spatial_attention()))
      << where << " spatial attention";
}

TEST(InferencePlan, MaskedExecutionThroughFusedStepsMatchesModuleWalk) {
  // Two identically seeded nets: one walks its modules, the other runs the
  // plan, so kRandom gates draw the same masks on both.
  for (const Case& c : kCases) {
    for (const GateVariant& v : kGateVariants) {
      auto walk = build(c);
      auto planned = build(c);
      core::PruneSettings settings = core::PruneSettings::uniform(
          walk->num_blocks(), v.channel, v.spatial);
      settings.order = v.order;
      settings.mode = v.mode;
      core::DynamicPruningEngine walk_engine(*walk, settings);
      core::DynamicPruningEngine plan_engine(*planned, settings);
      if (v.disable_first) {
        walk_engine.gate(0)->set_enabled(false);
        plan_engine.gate(0)->set_enabled(false);
      }
      // Exact-identity contract below (same masks => same MAC count as
      // the module walk): pin union coarsening off, which deliberately
      // executes superset MACs (covered by tests/coarsen_test.cc).
      planned->set_coarsen_policy(plan::CoarsenMode::kOff);

      // The batch shrinks and grows back: the gates' storage only grows,
      // and must expose exactly the current batch's masks and attention.
      Rng rng(5);
      nn::ExecutionContext ctx;
      for (const int batch : {3, 2, 3}) {
        const std::string where = std::string(c.model) + " " + v.name +
                                  " batch " + std::to_string(batch);
        Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);
        const Tensor plain = walk->forward(x);
        const int64_t module_macs = walk->last_macs();

        ctx.begin_pass();
        const Tensor fused = planned->forward(x, ctx);
        // The exact-epilogue BN fold keeps masked outputs bitwise
        // identical to the unfused walk.
        EXPECT_TRUE(bitwise_equal(plain, fused))
            << where << " max |diff| " << max_abs_diff(plain, fused);
        // Dynamic pruning survives fusion: the same masks were executed,
        // so the measured MACs match the module walk.
        EXPECT_EQ(planned->last_macs(), module_macs) << where;
        for (size_t g = 0; g < walk_engine.gates().size(); ++g) {
          expect_same_gate(*walk_engine.gates()[g], *plan_engine.gates()[g],
                           where + " gate " + std::to_string(g));
        }
      }
      const plan::InferencePlan* plan = planned->current_plan();
      ASSERT_NE(plan, nullptr);
      if (v.mode == core::GateMode::kHardTopK && v.channel > 0.f &&
          !v.disable_first) {
        EXPECT_LT(planned->last_macs(), plan->dense_macs_per_sample() * 3)
            << c.model << " " << v.name;
      }
      walk_engine.remove();
      plan_engine.remove();
    }
  }
}

TEST(InferencePlan, AttentionGateMustBeItsConvInputsSoleReader) {
  // An AttentionGate masks its input in place with attention from the
  // producing conv's epilogue, so finish() rejects any other reader of
  // that buffer, and an input no conv step produced.
  nn::Conv2d conv0(3, 4, 3, 1, 1), conv1(4, 4, 3, 1, 1);
  nn::MaxPool2d pool(2);
  core::AttentionGate gate({.channel_drop = 0.5f}, &conv1, false);
  {
    plan::PlanBuilder b({3, 8, 8});
    const int t = b.conv(&conv0, nullptr, true, b.input(), -1, "conv0");
    b.conv(&conv1, nullptr, true, b.gate(&gate, t, "conv0.gate", 0, false),
           -1, "conv1");
    b.max_pool(&pool, t, "side");  // a second reader of the gate's input
    EXPECT_THROW(b.finish(), Error);
  }
  {
    plan::PlanBuilder b({4, 8, 8});
    const int t = b.conv(&conv1, nullptr, true, b.input(), -1, "conv1");
    const int g = b.gate(&gate, t, "conv1.gate", 0, false);
    // A residual read counts too.
    b.conv(&conv1, nullptr, true, g, /*residual=*/t, "conv2");
    EXPECT_THROW(b.finish(), Error);
  }
  {
    plan::PlanBuilder b({4, 8, 8});
    b.conv(&conv1, nullptr, true, b.gate(&gate, b.input(), "in.gate", 0, false),
           -1, "conv1");
    EXPECT_THROW(b.finish(), Error);  // the network input is no conv output
  }
  {
    plan::PlanBuilder b({3, 8, 8});
    const int t = b.conv(&conv0, nullptr, true, b.input(), -1, "conv0");
    b.conv(&conv1, nullptr, true, b.gate(&gate, t, "conv0.gate", 0, false),
           -1, "conv1");
    const plan::InferencePlan plan = b.finish();
    EXPECT_EQ(plan.ops()[0].attention, &gate);  // the producer feeds it
    EXPECT_EQ(plan.ops()[1].attention, &gate);
  }
}

TEST(InferencePlan, FbsGatedPlanBitwiseMatchesModuleWalk) {
  // FbsGate has no context overload: nn::Module's fallback to the plain
  // forward is its only route into a plan. Gate every site that has a
  // consumer, then hold the plan to the module walk bit for bit, on the
  // compiling pass and on a warm one.
  for (const Case& c : kCases) {
    auto net = build(c);
    int gated = 0;
    for (int s = 0; s < net->num_gate_sites(); ++s) {
      nn::Conv2d* consumer = net->gate_consumer(s);
      if (consumer == nullptr) continue;
      net->install_gate(s, std::make_unique<baselines::FbsGate>(
                               consumer->in_channels(), 0.5f, consumer,
                               /*seed=*/100 + s));
      ++gated;
    }
    ASSERT_GT(gated, 0) << c.model;
    Rng rng(9);
    Tensor x = Tensor::randn({3, 3, c.image, c.image}, rng);
    const Tensor plain = net->forward(x);

    nn::ExecutionContext ctx;
    for (int pass = 0; pass < 2; ++pass) {
      ctx.begin_pass();
      const Tensor fused = net->forward(x, ctx);
      EXPECT_TRUE(bitwise_equal(plain, fused))
          << c.model << " pass " << pass << " max |diff| "
          << max_abs_diff(plain, fused);
    }
    // The gates' channel masks reached the plan's conv steps.
    const plan::InferencePlan* plan = net->current_plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_GT(plan->last_mask_groups(), 0) << c.model;
    EXPECT_LT(net->last_macs(), plan->dense_macs_per_sample() * 3)
        << c.model;
  }
}

TEST(InferencePlan, ExactArenaSizingZeroGrowthsFromTheFirstForward) {
  for (const Case& c : kCases) {
    for (const bool pruned : {false, true}) {
      auto net = build(c);
      std::unique_ptr<core::DynamicPruningEngine> engine;
      if (pruned) {
        engine = std::make_unique<core::DynamicPruningEngine>(
            *net,
            core::PruneSettings::uniform(net->num_blocks(), 0.4f, 0.3f));
      }
      const int batch = 2;
      Rng rng(7);
      Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);

      // Compile + reserve ahead of time: the arena size is known exactly
      // before any forward has ever run.
      plan::InferencePlan& plan =
          net->inference_plan(3, c.image, c.image);
      nn::ExecutionContext ctx;
      plan.reserve(ctx.workspace(), batch);
      EXPECT_GT(plan.arena_bytes(batch), 0u);
      const int64_t grows = ctx.workspace().grow_count();

      for (int pass = 0; pass < 3; ++pass) {
        ctx.begin_pass();
        Tensor staged = ctx.alloc(x.shape());
        std::memcpy(staged.data(), x.data(),
                    static_cast<size_t>(x.size()) * sizeof(float));
        Tensor y = net->forward(staged, ctx);
        ASSERT_EQ(y.dim(0), batch);
        // Zero arena growths from the VERY FIRST pass onward.
        EXPECT_EQ(ctx.workspace().grow_count(), grows)
            << c.model << (pruned ? " pruned" : " dense") << " pass "
            << pass;
      }
      if (engine) engine->remove();
    }
  }
}

// Stacks `distinct` unique images cyclically into a `batch`-sample input,
// so every gate computes identical attention — and therefore identical
// masks — for duplicated samples and the executor's mask-grouping has
// at most `distinct` buckets to form.
Tensor duplicated_batch(int batch, int distinct, int image, Rng& rng) {
  Tensor uniq = Tensor::randn({distinct, 3, image, image}, rng);
  Tensor x({batch, 3, image, image});
  const int64_t sample = uniq.size() / distinct;
  for (int i = 0; i < batch; ++i) {
    std::memcpy(x.data() + i * sample, uniq.data() + (i % distinct) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }
  return x;
}

TEST(InferencePlan, MaskGroupedExecutionMatchesModuleWalk) {
  // Batch 8 quantized into <= 4 distinct kept sets: the executor buckets
  // the samples and runs compacted multi-sample GEMMs, and the result
  // must still match the per-sample module walk (same masks, same MACs).
  const int batch = 8, distinct = 4;
  for (const Case& c : kCases) {
    auto net = build(c);
    core::DynamicPruningEngine engine(
        *net, core::PruneSettings::uniform(net->num_blocks(), 0.4f, 0.3f));
    Rng rng(23);
    Tensor x = duplicated_batch(batch, distinct, c.image, rng);
    // Same-MACs assertion: exact-identity grouping only (see above).
    net->set_coarsen_policy(plan::CoarsenMode::kOff);

    const Tensor plain = net->forward(x);
    const int64_t module_macs = net->last_macs();

    nn::ExecutionContext ctx;
    ctx.begin_pass();
    const Tensor fused = net->forward(x, ctx);
    EXPECT_LE(max_abs_diff(plain, fused), 1e-5) << c.model;
    EXPECT_EQ(net->last_macs(), module_macs) << c.model;

    const plan::InferencePlan* plan = net->current_plan();
    ASSERT_NE(plan, nullptr) << c.model;
    // Duplicated inputs produce duplicated masks: the batch collapsed
    // into at most `distinct` compacted groups.
    EXPECT_GE(plan->last_mask_groups(), 1) << c.model;
    EXPECT_LE(plan->last_mask_groups(), distinct) << c.model;
    engine.remove();
  }
}

TEST(InferencePlan, GroupedArenaStaysExactWithZeroGrowthsFromFirstForward) {
  // arena_bytes(n) must stay exact under grouping: reserve ahead of time,
  // then run grouped masked batches (including the all-distinct worst
  // case) with zero arena growths starting from the very first pass.
  for (const Case& c : kCases) {
    auto net = build(c);
    core::DynamicPruningEngine engine(
        *net, core::PruneSettings::uniform(net->num_blocks(), 0.4f, 0.3f));
    const int batch = 6;
    plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
    nn::ExecutionContext ctx;
    plan.reserve(ctx.workspace(), batch);
    const int64_t grows = ctx.workspace().grow_count();

    Rng rng(29);
    // Pass 1: 3 distinct masks over 6 samples. Pass 2: all distinct.
    for (const int distinct : {3, batch}) {
      Tensor x = duplicated_batch(batch, distinct, c.image, rng);
      ctx.begin_pass();
      Tensor staged = ctx.alloc(x.shape());
      std::memcpy(staged.data(), x.data(),
                  static_cast<size_t>(x.size()) * sizeof(float));
      net->forward(staged, ctx);
      EXPECT_EQ(ctx.workspace().grow_count(), grows)
          << c.model << " distinct=" << distinct;
      EXPECT_LE(net->current_plan()->last_mask_groups(), distinct) << c.model;
    }
    engine.remove();
  }
}

TEST(InferencePlan, StaticFilterMasksFlowThroughFusedSteps) {
  // The static-pruning path installs ConvRuntimeMasks directly (no gate);
  // the plan's fused conv steps must consume them like Conv2d::forward.
  const Case c{"small_cnn", 16, 1.0f};
  auto net = build(c);
  Rng rng(9);
  Tensor x = Tensor::randn({2, 3, c.image, c.image}, rng);

  auto masks = [] {
    nn::ConvRuntimeMask m;
    m.out_channels = {0, 2, 5};
    return std::vector<nn::ConvRuntimeMask>(2, m);
  };
  auto* consumer = dynamic_cast<models::SmallCnn*>(net.get());
  ASSERT_NE(consumer, nullptr);

  consumer->conv(1)->set_runtime_masks(masks());
  const Tensor plain = net->forward(x);
  const int64_t module_macs = net->last_macs();

  consumer->conv(1)->set_runtime_masks(masks());
  nn::ExecutionContext ctx;
  ctx.begin_pass();
  const Tensor fused = net->forward(x, ctx);
  EXPECT_TRUE(bitwise_equal(plain, fused));
  EXPECT_EQ(net->last_macs(), module_macs);
}

TEST(InferencePlan, RecompilesWhenBatchNormStatisticsChange) {
  const Case c{"small_cnn", 16, 1.0f};
  auto net = build(c);
  Rng rng(13);
  Tensor x = Tensor::randn({2, 3, c.image, c.image}, rng);

  nn::ExecutionContext ctx;
  ctx.begin_pass();
  const Tensor before = net->forward(x, ctx).clone();
  ASSERT_NE(net->current_plan(), nullptr);

  // A training forward moves the BN running statistics; set_training must
  // drop the stale fold and the next context forward must match a fresh
  // module walk bitwise.
  net->set_training(true);
  EXPECT_EQ(net->current_plan(), nullptr);
  net->forward(x);
  net->set_training(false);

  const Tensor plain = net->forward(x);
  ctx.begin_pass();
  const Tensor fused = net->forward(x, ctx);
  EXPECT_TRUE(bitwise_equal(plain, fused));
  EXPECT_FALSE(bitwise_equal(before, fused));  // stats really moved
}

TEST(InferencePlan, RecompilesForNewInputShape) {
  const Case c{"small_cnn", 16, 1.0f};
  auto net = build(c);
  Rng rng(17);
  for (const int image : {16, 8, 16}) {
    Tensor x = Tensor::randn({1, 3, image, image}, rng);
    const Tensor plain = net->forward(x);
    nn::ExecutionContext ctx;
    ctx.begin_pass();
    EXPECT_TRUE(bitwise_equal(plain, net->forward(x, ctx))) << image;
  }
}

TEST(InferencePlan, CostSnapshotMarksGateConsumersWithTheirBlock) {
  const Case c{"resnet20", 16, 0.5f};
  auto net = build(c);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(net->num_blocks(), 0.2f, 0.1f));
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);

  int prunable = 0;
  for (const plan::OpCost& op : plan.cost_snapshot()) {
    if (op.prune_block >= 0) {
      ++prunable;
      EXPECT_EQ(op.kind, plan::OpKind::kConv);
      EXPECT_LT(op.prune_block, net->num_blocks());
      // ResNet gates are spatially aligned with their consumer.
      EXPECT_TRUE(op.prune_spatial);
    }
  }
  // One gated conv2 per basic block.
  EXPECT_EQ(prunable, net->num_gate_sites());
  engine.remove();
}

TEST(InferencePlan, CostSnapshotCarriesPruneMetadataAcrossPools) {
  // In VGG a gate's consumer conv sits behind the unit's MaxPool
  // (gate_consumer = next unit's conv): channel masks reach it, so its
  // cost-model entry must carry the gate's block — with spatial skipping
  // off, since the pool changed the grid.
  const Case c{"vgg16", 32, 0.25f};
  auto net = build(c);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(net->num_blocks(), 0.2f, 0.1f));
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);

  int prunable = 0, behind_pool = 0;
  for (const plan::OpCost& op : plan.cost_snapshot()) {
    if (op.prune_block < 0) continue;
    ++prunable;
    if (!op.prune_spatial) ++behind_pool;
  }
  // Every conv except the stem-most is fed by the previous unit's gate;
  // the last gate has no consumer.
  EXPECT_EQ(prunable, net->num_gate_sites() - 1);
  // VGG16 has five pools; the conv after each of the first four carries
  // channel-only metadata (the fifth pool feeds the classifier head).
  EXPECT_EQ(behind_pool, 4);
  engine.remove();
}

TEST(InferencePlan, ArenaBytesScaleWithBatchAndCoverEveryBatchSize) {
  const Case c{"vgg16", 32, 0.25f};
  auto net = build(c);
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
  EXPECT_LT(plan.arena_bytes(1), plan.arena_bytes(4));
  EXPECT_LT(plan.arena_bytes(4), plan.arena_bytes(16));

  // A batch the plan was never probed with still runs growth-free after
  // its reserve (offsets scale with N by construction).
  for (const int batch : {1, 3, 5}) {
    nn::ExecutionContext ctx;
    plan.reserve(ctx.workspace(), batch);
    const int64_t grows = ctx.workspace().grow_count();
    Rng rng(19);
    Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    net->forward(staged, ctx);
    EXPECT_EQ(ctx.workspace().grow_count(), grows) << "batch " << batch;
  }
}

TEST(InferencePlan, MeasuredArenaPeakStaysWithinArenaBytes) {
  // The arena's measured high-water against its ahead-of-time size, for
  // gated vgg16 w0.25 at 32x32 (drop 0.5/0.3). Its 2x2 convs lower four
  // columns per member: one member, or a group of three, is narrower than
  // one gemm_nn panel and runs the filter-lane kernel; a group of eight is
  // wider and runs gemm_nn. Distinct inputs give one group per sample
  // unless coarsening merges them; one repeated input gives one group of
  // the whole batch.
  const Case c{"vgg16", 32, 0.25f};
  for (const int batch : {1, 3, 8}) {
    for (const int distinct : {batch, 1}) {
      auto net = build(c);
      core::DynamicPruningEngine engine(
          *net, core::PruneSettings::uniform(net->num_blocks(), 0.5f, 0.3f));
      plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
      nn::ExecutionContext ctx;
      plan.reserve(ctx.workspace(), batch);
      Rng rng(37);
      const Tensor x = duplicated_batch(batch, distinct, c.image, rng);
      for (int pass = 0; pass < 2; ++pass) {
        ctx.begin_pass();
        Tensor staged = ctx.alloc(x.shape());
        std::memcpy(staged.data(), x.data(),
                    static_cast<size_t>(x.size()) * sizeof(float));
        net->forward(staged, ctx);
      }
      EXPECT_GT(ctx.workspace().peak_bytes(), 0u);
      EXPECT_LE(ctx.workspace().peak_bytes(), plan.arena_bytes(batch))
          << "batch " << batch << ", distinct " << distinct;
      engine.remove();
    }
  }
}

TEST(InferencePlan, ComputeCapBitwiseWhenSlackAndCapsEverySampleWhenBound) {
  // Channel-only drops of 0.3: every masked sample keeps about 0.7 of each
  // gated conv step's MACs, so a 0.9 cap never binds and a 0.4 cap always
  // does. A cap that binds no gate leaves every kept count as the drop
  // ratios set it, so the plan stays bitwise equal to the uncapped plan.
  const int batch = 4;
  const Case c{"small_cnn", 32, 0.25f};
  auto net = build(c, /*seed=*/9);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(net->num_blocks(), 0.3f, 0.f));
  Rng rng(33);
  Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
  nn::ExecutionContext ctx;
  plan.reserve(ctx.workspace(), batch);
  auto run_once = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };

  const Tensor uncapped = run_once().clone();
  EXPECT_EQ(plan.last_capped_samples(), 0);
  net->set_compute_cap(0.9);
  EXPECT_TRUE(bitwise_equal(uncapped, run_once())) << "cap 0.9";
  EXPECT_EQ(plan.last_capped_samples(), 0) << "cap 0.9";
  net->set_compute_cap(0.4);
  run_once();
  EXPECT_EQ(plan.last_capped_samples(), batch) << "cap 0.4";
  engine.remove();
}

// Sets each walk gate's drop ratios to ones whose kept counts are the
// counts its plan twin kept last pass (the compute cap lowers them per
// gate, not per sample). Returns whether the cap lowered some gate's
// positions below what the spatial drop keeps.
bool walk_at_plan_counts(core::DynamicPruningEngine& walk,
                         const core::DynamicPruningEngine& planned,
                         float spatial_drop) {
  bool positions_capped = false;
  for (size_t g = 0; g < planned.gates().size(); ++g) {
    const core::AttentionGate::Stats& s = planned.gates()[g]->last_stats();
    if (s.samples == 0) continue;
    const int k_ch = static_cast<int>(s.kept_channels / s.samples);
    const int k_pos = static_cast<int>(s.kept_positions / s.samples);
    const auto drop = [](int k, int domain) {
      const float ratio = static_cast<float>(domain - k) / domain;
      EXPECT_EQ(core::kept_count(domain, ratio), k);
      return ratio;
    };
    walk.gates()[g]->set_ratios(drop(k_ch, s.channels),
                                drop(k_pos, s.positions));
    positions_capped |= k_pos < core::kept_count(s.positions, spatial_drop);
  }
  return positions_capped;
}

TEST(InferencePlan, BindingCapMatchesModuleWalkAtTheCappedCounts) {
  // Drops 0.5/0.3 keep 0.35 of an aligned consumer's MACs and 0.5 of any
  // other, so the 0.05 floor cap binds at every gate. Each gate lowers its
  // kept counts and still ranks by attention, so the plan equals the
  // module walk run at drop ratios with those counts: same masks, same
  // MACs, same logits bit for bit. resnet20's 8-channel first stage keeps
  // one channel and is still over the cap, so its gates lower positions
  // too.
  const float channel_drop = 0.5f, spatial_drop = 0.3f;
  const int batch = 3;
  bool positions_capped = false;
  for (const Case& c : kCases) {
    auto walk = build(c);
    auto planned = build(c);
    const core::PruneSettings settings = core::PruneSettings::uniform(
        walk->num_blocks(), channel_drop, spatial_drop);
    core::DynamicPruningEngine walk_engine(*walk, settings);
    core::DynamicPruningEngine plan_engine(*planned, settings);
    // Same-MACs assertion: exact-identity grouping only.
    planned->set_coarsen_policy(plan::CoarsenMode::kOff);
    planned->set_compute_cap(plan::kMinComputeCap);
    Rng rng(37);
    Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);

    nn::ExecutionContext ctx;
    ctx.begin_pass();
    const Tensor fused = planned->forward(x, ctx);
    EXPECT_EQ(planned->current_plan()->last_capped_samples(), batch)
        << c.model;
    positions_capped |=
        walk_at_plan_counts(walk_engine, plan_engine, spatial_drop);
    const Tensor plain = walk->forward(x);
    EXPECT_TRUE(bitwise_equal(plain, fused))
        << c.model << " max |diff| " << max_abs_diff(plain, fused);
    EXPECT_EQ(planned->last_macs(), walk->last_macs()) << c.model;
    for (size_t g = 0; g < walk_engine.gates().size(); ++g) {
      expect_same_gate(*walk_engine.gates()[g], *plan_engine.gates()[g],
                       std::string(c.model) + " gate " + std::to_string(g));
    }
    walk_engine.remove();
    plan_engine.remove();
  }
  EXPECT_TRUE(positions_capped);
}

TEST(InferencePlan, CappedNearIdenticalBatchCoarsensAndStaysBitwise) {
  // Eight copies of one input, each with its own faint noise: the gates'
  // kept sets differ only in a few boundary entries, so exact-identity
  // bucketing sees up to eight groups (conv1 and conv3 do at 1 to 4
  // threads) and union coarsening merges them. The cap lowers the kept
  // counts and the gates zero every entry they drop, so a union's extra
  // entries are zero upstream and the coarsened capped pass still equals
  // the per-sample module walk at the capped counts.
  const Case c{"vgg16", 32, 0.25f};
  const float channel_drop = 0.5f, spatial_drop = 0.3f;
  const int batch = 8;
  auto walk = build(c);
  auto planned = build(c);
  const core::PruneSettings settings = core::PruneSettings::uniform(
      walk->num_blocks(), channel_drop, spatial_drop);
  core::DynamicPruningEngine walk_engine(*walk, settings);
  core::DynamicPruningEngine plan_engine(*planned, settings);
  planned->set_coarsen_policy(plan::CoarsenMode::kAuto);
  planned->set_compute_cap(0.2);
  Rng rng(41);
  Tensor x = duplicated_batch(batch, 1, c.image, rng);
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] += 1e-2f * static_cast<float>(rng.normal());
  }

  nn::ExecutionContext ctx;
  ctx.begin_pass();
  const Tensor fused = planned->forward(x, ctx);
  const plan::InferencePlan* plan = planned->current_plan();
  EXPECT_EQ(plan->last_capped_samples(), batch);
  EXPECT_GT(plan->last_mask_groups_raw(), 1);
  EXPECT_LT(plan->last_mask_groups(), plan->last_mask_groups_raw());
  EXPECT_GT(plan->last_coarsen_extra_macs(), 0);
  walk_at_plan_counts(walk_engine, plan_engine, spatial_drop);
  const Tensor plain = walk->forward(x);
  EXPECT_TRUE(bitwise_equal(plain, fused))
      << "max |diff| " << max_abs_diff(plain, fused);
  walk_engine.remove();
  plan_engine.remove();
}

// --- spatially-tiled lowering ------------------------------------------------

TEST(InferencePlan, TiledAt96BitwiseAndZeroGrowthsAcrossModels) {
  // At 96x96 each model's early convs have enough output positions for the
  // geometry rule to tile them, and no chosen width divides its op's
  // position count, so every tiled sweep ends in a ragged tail tile. In
  // both regimes, dense and with channel-pruning gates (mask groups), the
  // tile-aware arena sizing must stay exact from the first pass, and in
  // f32 the tiled plan must match the module walk (conv_sample_dense /
  // conv_sample_masked, no tile loop) bitwise. Tile-width invariance of
  // int8 output is checked at the kernel, in coarsen_test.
  const int image = 96, batch = 2;
  for (Case c : kCases) {
    c.image = image;
    for (const plan::NumericRegime regime :
         {plan::NumericRegime::kF32, plan::NumericRegime::kInt8}) {
      for (const bool pruned : {false, true}) {
        const std::string label = std::string(c.model) + " " +
                                  plan::regime_name(regime) +
                                  (pruned ? " pruned" : " dense");
        Rng rng(17);
        Tensor x = Tensor::randn({batch, 3, image, image}, rng);

        auto net = build(c);
        net->set_numeric_regime(regime);
        core::DynamicPruningEngine engine(
            *net, core::PruneSettings::uniform(net->num_blocks(),
                                               pruned ? 0.5f : 0.f, 0.f));
        plan::InferencePlan& plan = net->inference_plan(3, image, image);
        bool ragged = false;
        for (const plan::PlanOp& op : plan.ops()) {
          ragged |= op.tile_pos > 0 &&
                    op.geom.out_positions() % op.tile_pos != 0;
        }
        EXPECT_TRUE(ragged) << label << ": no tiled op with a ragged tile";
        nn::ExecutionContext ctx;
        plan.reserve(ctx.workspace(), batch);
        const int64_t grows = ctx.workspace().grow_count();
        std::vector<float> first;
        for (int pass = 0; pass < 3; ++pass) {
          ctx.begin_pass();
          Tensor staged = ctx.alloc(x.shape());
          std::memcpy(staged.data(), x.data(),
                      static_cast<size_t>(x.size()) * sizeof(float));
          const Tensor y = net->forward(staged, ctx);
          EXPECT_EQ(ctx.workspace().grow_count(), grows)
              << label << " pass " << pass;
          if (pass == 0) {
            first.assign(y.data(), y.data() + y.size());
            continue;
          }
          ASSERT_EQ(static_cast<size_t>(y.size()), first.size());
          EXPECT_EQ(std::memcmp(first.data(), y.data(),
                                first.size() * sizeof(float)),
                    0)
              << label << " pass " << pass << " vs pass 0";
        }
        if (regime == plan::NumericRegime::kF32) {
          const Tensor walk = net->forward(x);
          ASSERT_EQ(static_cast<size_t>(walk.size()), first.size());
          EXPECT_EQ(std::memcmp(walk.data(), first.data(),
                                first.size() * sizeof(float)),
                    0)
              << label << " tiled plan vs module walk";
        }
        engine.remove();
      }
    }
  }
}

TEST(InferencePlan, TiledArenaExactAt224InBothRegimes) {
  // The 224x224 workload class: tiling engages, the arena grows
  // sub-linearly in output positions, the sizing stays exact (reserve =>
  // zero growths from the first pass) in f32 AND int8, and in f32 the
  // tiled logits match the module walk bitwise, an oracle outside the
  // tile loop.
  const int image = 224, batch = 2;
  const Case c{"small_cnn", image, 1.0f};
  Rng rng(19);
  Tensor x = Tensor::randn({batch, 3, image, image}, rng);

  auto net = build(c);
  plan::InferencePlan& plan = net->inference_plan(3, image, image);
  bool tiled = false;
  for (const plan::PlanOp& op : plan.ops()) tiled |= op.tile_pos > 0;
  EXPECT_TRUE(tiled) << "tiling must engage at 224x224";
  // The tiled arena grows sub-linearly in output positions: from 32x32 to
  // 224x224 (49x the positions) it grows at most half as fast. What grows
  // is mostly the activations themselves.
  {
    auto low_res = build({"small_cnn", 32, 1.0f});
    const double arena_ratio =
        static_cast<double>(plan.arena_bytes(batch)) /
        static_cast<double>(
            low_res->inference_plan(3, 32, 32).arena_bytes(batch));
    EXPECT_LE(arena_ratio, 0.5 * (224.0 * 224.0) / (32.0 * 32.0))
        << "tiled arena 224 vs 32";
  }

  for (const plan::NumericRegime regime :
       {plan::NumericRegime::kF32, plan::NumericRegime::kInt8}) {
    const char* name = plan::regime_name(regime);
    net->set_numeric_regime(regime);
    nn::ExecutionContext ctx;
    plan.reserve(ctx.workspace(), batch);
    const int64_t grows = ctx.workspace().grow_count();
    std::vector<float> last;
    for (int pass = 0; pass < 2; ++pass) {
      ctx.begin_pass();
      Tensor staged = ctx.alloc(x.shape());
      std::memcpy(staged.data(), x.data(),
                  static_cast<size_t>(x.size()) * sizeof(float));
      const Tensor y = net->forward(staged, ctx);
      ASSERT_EQ(y.dim(0), batch);
      EXPECT_EQ(ctx.workspace().grow_count(), grows)
          << name << " pass " << pass;
      last.assign(y.data(), y.data() + y.size());
    }
    if (regime == plan::NumericRegime::kF32) {
      const Tensor walk = net->forward(x);
      ASSERT_EQ(static_cast<size_t>(walk.size()), last.size());
      EXPECT_EQ(std::memcmp(walk.data(), last.data(),
                            last.size() * sizeof(float)),
                0)
          << "tiled f32 plan must match the module walk bitwise";
    }
  }
}

}  // namespace
}  // namespace antidote
