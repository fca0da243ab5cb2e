// Warm-pass heap allocations of the plan executor. A global operator new
// counter (this binary only) brackets each ConvNet context forward over
// inputs generated up front; from pass 2 on (counting from 0), a forward
// must make zero heap allocations and zero arena growths. Pass 0 sizes the
// arena and the plan's per-pass storage; pass 1 warms the second of the
// two mask vectors each Conv2d alternates between passes. Each case runs
// twice: unreserved, the way a serving replica drives its plan, and after
// an explicit InferencePlan::reserve(). The cases:
//   - f32 vgg16 w0.25 32x32, batch 8, channel/spatial drop 0.5/0.3, a
//     fresh input every sample of every pass: many mask groups, new kept
//     sets each pass, coarsening on;
//   - the same with one fresh input repeated across each batch: a single
//     mask group, whose kept-filter panels are packed in the owner's arena;
//   - int8 vgg16 w0.125 64x64, batch 4, channel drop 0.5, fresh inputs:
//     int8 panels, tiled steps, and a size that stays fast under ASan.
// CMakeLists.txt registers the binary at ANTIDOTE_THREADS=1 (groups run
// inline on the owner's arena) and 4 (groups run on per-worker slices).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/execution_context.h"
#include "plan/plan.h"
#include "tensor/tensor.h"

// --- global allocation counter (this binary only) --------------------------

namespace {
std::atomic<int64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace antidote {
namespace {

constexpr int kPasses = 24;
constexpr int kWarmupPasses = 2;

struct Case {
  const char* name;
  float width;
  int image;
  int batch;
  float channel_drop;
  float spatial_drop;
  plan::NumericRegime regime;
  bool shared;  // one input repeated across each batch
};

// Fresh inputs for every pass; with `shared`, every sample of a batch is
// the same image.
std::vector<Tensor> make_inputs(const Case& c) {
  Rng rng(23);
  std::vector<Tensor> inputs;
  for (int pass = 0; pass < kPasses; ++pass) {
    Tensor x = Tensor::randn({c.batch, 3, c.image, c.image}, rng);
    if (c.shared) {
      const int64_t sample = x.size() / c.batch;
      for (int b = 1; b < c.batch; ++b) {
        std::memcpy(x.data() + b * sample, x.data(),
                    static_cast<size_t>(sample) * sizeof(float));
      }
    }
    inputs.push_back(std::move(x));
  }
  return inputs;
}

void expect_warm_passes_allocate_nothing(const Case& c, bool reserve) {
  Rng rng(5);
  auto net = models::make_model("vgg16", 10, c.width, rng);
  net->set_training(false);
  net->set_numeric_regime(c.regime);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(5, c.channel_drop, c.spatial_drop));
  const std::vector<Tensor> inputs = make_inputs(c);
  const std::string label =
      std::string(c.name) + (reserve ? ", reserved" : ", unreserved");

  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
  if (reserve) plan.reserve(ctx.workspace(), c.batch);
  for (int pass = 0; pass < kPasses; ++pass) {
    const Tensor& x = inputs[static_cast<size_t>(pass)];
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    const int64_t allocs_before = g_heap_allocs.load();
    const int64_t grows_before = ctx.workspace().grow_count();
    const Tensor y = net->forward(staged, ctx);
    const int64_t allocs = g_heap_allocs.load() - allocs_before;
    const int64_t grows = ctx.workspace().grow_count() - grows_before;
    ASSERT_EQ(y.dim(0), c.batch) << label;
    if (pass < kWarmupPasses) continue;
    EXPECT_EQ(allocs, 0) << label << ", pass " << pass;
    EXPECT_EQ(grows, 0) << label << ", pass " << pass;
  }
  // The cases exercise the regimes they are named for.
  if (c.shared) {
    EXPECT_EQ(plan.last_mask_groups(), 1) << label;
  } else {
    EXPECT_GT(plan.last_mask_groups_raw(), 1) << label;
  }
  engine.remove();
}

const Case kCases[] = {
    {"f32 fresh", 0.25f, 32, 8, 0.5f, 0.3f, plan::NumericRegime::kF32, false},
    {"f32 shared", 0.25f, 32, 8, 0.5f, 0.3f, plan::NumericRegime::kF32, true},
    {"int8 fresh", 0.125f, 64, 4, 0.5f, 0.f, plan::NumericRegime::kInt8,
     false},
};

TEST(HeapAlloc, WarmPassesAllocateNothingUnreserved) {
  for (const Case& c : kCases) {
    expect_warm_passes_allocate_nothing(c, /*reserve=*/false);
  }
}

TEST(HeapAlloc, WarmPassesAllocateNothingReserved) {
  for (const Case& c : kCases) {
    expect_warm_passes_allocate_nothing(c, /*reserve=*/true);
  }
}

}  // namespace
}  // namespace antidote
