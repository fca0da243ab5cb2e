// ANTIDOTE_THREADS=1 path: with a single compute thread (forced before
// the lazily created global pool can exist) the pool holds zero workers,
// every parallel_for runs inline, the nested-dispatch guard never
// engages, and the plan executor runs every mask group inline on the
// owner's arena — all regardless of the host's core count. Masked grouped
// output must still match the module walk bitwise.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "base/parallel.h"
#include "base/rng.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/execution_context.h"
#include "plan/plan.h"

namespace antidote {
namespace {

const bool kForcedSerial = [] {
  ::setenv("ANTIDOTE_THREADS", "1", /*overwrite=*/1);
  return true;
}();

TEST(SerialFallback, PoolIsEmptyAndLoopsRunInline) {
  ASSERT_TRUE(kForcedSerial);
  EXPECT_EQ(global_pool().size(), 0);
  EXPECT_FALSE(in_parallel_region());
  int chunks = 0;
  parallel_for(
      0, 1000,
      [&](int64_t b, int64_t e) {
        ++chunks;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 1000);
        // Inline execution never marks a parallel region.
        EXPECT_FALSE(in_parallel_region());
      },
      /*grain=*/1);
  EXPECT_EQ(chunks, 1);
}

TEST(SerialFallback, AllDistinctMaskedPlanMatchesModuleWalkBitwise) {
  Rng rng(9);
  auto net = models::make_model("small_cnn", 10, 0.25f, rng);
  net->set_training(false);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(net->num_blocks(), 0.4f, 0.3f));
  const int batch = 5, image = 16;
  Rng xrng(13);
  Tensor x = Tensor::randn({batch, 3, image, image}, xrng);
  const Tensor plain = net->forward(x);

  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, image, image);
  plan.reserve(ctx.workspace(), batch);
  const int64_t grows = ctx.workspace().grow_count();
  ctx.begin_pass();
  Tensor staged = ctx.alloc(x.shape());
  std::memcpy(staged.data(), x.data(),
              static_cast<size_t>(x.size()) * sizeof(float));
  const Tensor fused = net->forward(staged, ctx);
  EXPECT_EQ(std::memcmp(plain.data(), fused.data(),
                        static_cast<size_t>(plain.size()) * sizeof(float)),
            0);
  EXPECT_EQ(ctx.workspace().grow_count(), grows);
  EXPECT_GE(net->current_plan()->last_mask_groups(), 1);
  engine.remove();
}

}  // namespace
}  // namespace antidote
