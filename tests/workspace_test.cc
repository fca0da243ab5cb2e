// Workspace arena semantics plus the ExecutionContext contract: context
// forwards must be bitwise-identical to plain eval forwards, reproducible
// across passes, and the arena must stop growing after the first pass.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.h"
#include "models/small_cnn.h"
#include "nn/execution_context.h"
#include "nn/init.h"
#include "plan/plan.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace antidote {
namespace {

TEST(Workspace, AlignmentAndReuse) {
  Workspace ws;
  float* a = ws.alloc_floats(3);
  int* b = ws.alloc<int>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Workspace::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Workspace::kAlign, 0u);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
  const int64_t grows = ws.grow_count();
  ws.reset();
  float* a2 = ws.alloc_floats(3);
  EXPECT_EQ(a, a2);  // same block recycled
  EXPECT_EQ(ws.grow_count(), grows);
}

TEST(Workspace, MarkRewindIsLifo) {
  Workspace ws;
  float* keep = ws.alloc_floats(16);
  const Workspace::Mark m = ws.mark();
  float* scratch = ws.alloc_floats(64);
  ws.rewind(m);
  float* scratch2 = ws.alloc_floats(64);
  EXPECT_EQ(scratch, scratch2);  // rewound space reused
  EXPECT_NE(keep, scratch);
  keep[0] = 1.f;  // still writable
}

TEST(Workspace, CoalescesAfterOverflow) {
  Workspace ws;
  // Force a spill into a second block.
  ws.alloc_floats(1 << 18);
  ws.alloc_floats(1 << 20);
  EXPECT_GE(ws.block_count(), 2u);
  ws.reset();
  EXPECT_EQ(ws.block_count(), 1u);
  const int64_t grows = ws.grow_count();
  // The coalesced block covers the whole previous pass.
  ws.alloc_floats(1 << 18);
  ws.alloc_floats(1 << 20);
  EXPECT_EQ(ws.block_count(), 1u);
  EXPECT_EQ(ws.grow_count(), grows);
}

TEST(Tensor, BorrowSharesExternalMemory) {
  float buf[6] = {1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::borrow(buf, {2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.data(), buf);
  t.at({1, 2}) = 9.f;
  EXPECT_FLOAT_EQ(buf[5], 9.f);
  Tensor view = t.reshape({3, 2});
  EXPECT_EQ(view.data(), buf);
}

TEST(Shape, MimicsVectorInterface) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s, (std::vector<int>{2, 3, 4}));
  Shape t = s;
  EXPECT_EQ(s, t);
  t.push_back(5);
  EXPECT_NE(s, t);
  EXPECT_EQ(t.to_vector(), (std::vector<int>{2, 3, 4, 5}));
}

std::unique_ptr<models::SmallCnn> make_net(Rng& rng) {
  models::SmallCnnConfig cfg;
  cfg.num_classes = 7;
  cfg.widths = {8, 16, 16};
  auto net = std::make_unique<models::SmallCnn>(cfg);
  nn::init_module(*net, rng);
  net->set_training(false);
  return net;
}

TEST(ExecutionContext, DenseForwardBitwiseMatchesPlain) {
  Rng rng(5);
  auto net = make_net(rng);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng);

  Tensor plain = net->forward(x);
  nn::ExecutionContext ctx;
  ctx.begin_pass();
  Tensor with_ctx = net->forward(x, ctx);

  ASSERT_TRUE(plain.same_shape(with_ctx));
  EXPECT_EQ(std::memcmp(plain.data(), with_ctx.data(),
                        static_cast<size_t>(plain.size()) * sizeof(float)),
            0);
}

TEST(ExecutionContext, ConsecutivePassesBitwiseEqualAndArenaStopsGrowing) {
  Rng rng(6);
  auto net = make_net(rng);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);

  nn::ExecutionContext ctx;
  ctx.begin_pass();
  Tensor first = net->forward(x, ctx).clone();  // clone: survives begin_pass
  // Warm-up may grow (and reset() may coalesce) the arena; afterwards the
  // grow counter must go quiet.
  ctx.begin_pass();
  net->forward(x, ctx);
  const int64_t grows = ctx.workspace().grow_count();
  const size_t capacity = ctx.workspace().capacity_bytes();
  for (int pass = 0; pass < 3; ++pass) {
    ctx.begin_pass();
    Tensor again = net->forward(x, ctx);
    ASSERT_TRUE(first.same_shape(again));
    EXPECT_EQ(std::memcmp(first.data(), again.data(),
                          static_cast<size_t>(first.size()) * sizeof(float)),
              0);
  }
  EXPECT_EQ(ctx.workspace().grow_count(), grows);
  EXPECT_EQ(ctx.workspace().capacity_bytes(), capacity);
}

TEST(ExecutionContext, MaskedForwardBitwiseMatchesPlain) {
  Rng rng(7);
  auto net = make_net(rng);
  core::PruneSettings settings =
      core::PruneSettings::uniform(net->num_blocks(), 0.4f, 0.3f);
  core::DynamicPruningEngine engine(*net, settings);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  // This test pins the EXACT-identity contract (same masks executed =>
  // same MAC count as the module walk); union coarsening deliberately
  // executes superset MACs and has its own parity coverage in
  // tests/coarsen_test.cc.
  net->set_coarsen_policy(plan::CoarsenMode::kOff);

  Tensor plain = net->forward(x);
  const int64_t plain_macs = net->last_macs();

  nn::ExecutionContext ctx;
  ctx.begin_pass();
  Tensor with_ctx = net->forward(x, ctx);
  ASSERT_TRUE(plain.same_shape(with_ctx));
  EXPECT_EQ(std::memcmp(plain.data(), with_ctx.data(),
                        static_cast<size_t>(plain.size()) * sizeof(float)),
            0);
  EXPECT_EQ(net->last_macs(), plain_macs);

  // Steady state: repeat passes stay bitwise-stable and allocation-free.
  ctx.begin_pass();
  net->forward(x, ctx);
  const int64_t grows = ctx.workspace().grow_count();
  for (int pass = 0; pass < 3; ++pass) {
    ctx.begin_pass();
    Tensor again = net->forward(x, ctx);
    EXPECT_EQ(std::memcmp(plain.data(), again.data(),
                          static_cast<size_t>(plain.size()) * sizeof(float)),
              0);
  }
  EXPECT_EQ(ctx.workspace().grow_count(), grows);
  engine.remove();
}

// The blocked GEMM must preserve the naive kernel's per-element
// accumulation order exactly: same products, same addition sequence, so
// the result is bitwise-identical, independent of blocking.
TEST(GemmBlocked, BitwiseMatchesNaiveOrder) {
  Rng rng(8);
  const int m = 70, n = 130, k = 300;  // forces the blocked path + edges
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  gemm_nn(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());

  std::vector<float> ref(static_cast<size_t>(m) * n, 0.f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a.data()[static_cast<int64_t>(i) * k + p];
      for (int j = 0; j < n; ++j) {
        ref[static_cast<size_t>(i) * n + j] +=
            av * b.data()[static_cast<int64_t>(p) * n + j];
      }
    }
  }
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace antidote
