// Warm-pass heap allocations of the plan executor. A global operator new
// counter (this binary only) brackets each ConvNet context forward over
// inputs generated up front; once a case is warm, a forward must make zero
// heap allocations and zero arena growths. Each case runs twice: unreserved,
// the way a serving replica drives its plan, and after an explicit
// InferencePlan::reserve() for the case's largest batch. A case is warm:
//   - for a dense plan (no pruning engine) after reserve(): from pass 0;
//   - otherwise from pass 1 (counting from 0). Unreserved, pass 0 sizes the
//     arena and the plan's per-pass storage; gated, pass 0 sizes the gates'
//     and convs' mask storage, which only grows;
//   - with alternating batch sizes also from pass 1: pass 0 runs the larger
//     batch, and every smaller one fits the storage it left behind.
// The cases:
//   - dense vgg16, resnet20 and small_cnn (w0.25, 32x32);
//   - f32 vgg16 w0.25 32x32, batch 8, channel/spatial drop 0.5/0.3, a
//     fresh input every sample of every pass: many mask groups, new kept
//     sets each pass, coarsening on;
//   - the same with one fresh input repeated across each batch: a single
//     mask group, whose kept-filter panels are packed in the owner's arena;
//   - int8 vgg16 w0.125 64x64, batch 4, channel drop 0.5, fresh inputs:
//     int8 panels, tiled steps, and a size that stays fast under ASan;
//   - the f32 fresh case with the tracer armed (skipped when profiling is
//     compiled out);
//   - small_cnn with channel drop 0.3 under a binding 0.4 compute cap,
//     under which every gate lowers every sample's kept channels;
//   - the f32 fresh case with batches alternating between 8 and 4, the way
//     a serving replica sees them: the gates' and convs' per-batch storage
//     must keep its capacity when the batch shrinks.
// CMakeLists.txt registers the binary at ANTIDOTE_THREADS=1 (groups run
// inline on the owner's arena) and 4 (groups run on per-worker slices).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
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
#include "obs/trace.h"
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

struct Case {
  const char* name;
  const char* model = "vgg16";
  float width = 0.25f;
  int image = 32;
  int batch = 8;
  float channel_drop = 0.f;  // both drops 0: a dense plan, no engine
  float spatial_drop = 0.f;
  plan::NumericRegime regime = plan::NumericRegime::kF32;
  bool shared = false;  // one input repeated across each batch
  bool traced = false;
  double compute_cap = 1.0;
  int alternate_batch = 0;  // when set, odd passes run this batch size

  bool dense() const { return channel_drop == 0.f && spatial_drop == 0.f; }
  int pass_batch(int pass) const {
    return alternate_batch > 0 && pass % 2 == 1 ? alternate_batch : batch;
  }
};

// Fresh inputs for every pass; with `shared`, every sample of a batch is
// the same image.
std::vector<Tensor> make_inputs(const Case& c) {
  Rng rng(23);
  std::vector<Tensor> inputs;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int batch = c.pass_batch(pass);
    Tensor x = Tensor::randn({batch, 3, c.image, c.image}, rng);
    if (c.shared) {
      const int64_t sample = x.size() / batch;
      for (int b = 1; b < batch; ++b) {
        std::memcpy(x.data() + b * sample, x.data(),
                    static_cast<size_t>(sample) * sizeof(float));
      }
    }
    inputs.push_back(std::move(x));
  }
  return inputs;
}

void expect_warm_passes_allocate_nothing(const Case& c, bool reserve) {
  const std::string label =
      std::string(c.name) + (reserve ? ", reserved" : ", unreserved");
  obs::Tracer& tracer = obs::Tracer::instance();
  if (c.traced && !tracer.enable(size_t{1} << 14, /*with_counters=*/false)) {
    std::printf("skipping %s: profiling is compiled out\n", label.c_str());
    return;
  }
  Rng rng(5);
  auto net = models::make_model(c.model, 10, c.width, rng);
  net->set_training(false);
  net->set_numeric_regime(c.regime);
  net->set_compute_cap(c.compute_cap);
  std::unique_ptr<core::DynamicPruningEngine> engine;
  if (!c.dense()) {
    engine = std::make_unique<core::DynamicPruningEngine>(
        *net, core::PruneSettings::uniform(net->num_blocks(), c.channel_drop,
                                           c.spatial_drop));
  }
  const std::vector<Tensor> inputs = make_inputs(c);
  const int warmup = c.dense() && reserve ? 0 : 1;

  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, c.image, c.image);
  if (reserve) {
    plan.reserve(ctx.workspace(), std::max(c.batch, c.alternate_batch));
  }
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
    ASSERT_EQ(y.dim(0), x.dim(0)) << label;
    if (pass < warmup) continue;
    EXPECT_EQ(allocs, 0) << label << ", pass " << pass;
    EXPECT_EQ(grows, 0) << label << ", pass " << pass;
  }
  // The cases exercise the regimes they are named for.
  if (c.traced) {
    EXPECT_GT(tracer.total_events(), 0u) << label;
    tracer.disable();
  }
  if (c.compute_cap < 1.0) {
    EXPECT_EQ(plan.last_capped_samples(), c.pass_batch(kPasses - 1))
        << label;
  } else if (c.shared) {
    EXPECT_EQ(plan.last_mask_groups(), 1) << label;
  } else if (!c.dense()) {
    EXPECT_GT(plan.last_mask_groups_raw(), 1) << label;
  }
  if (engine) engine->remove();
}

const Case kCases[] = {
    {.name = "vgg16 dense", .batch = 4},
    {.name = "resnet20 dense", .model = "resnet20", .batch = 2},
    {.name = "small_cnn dense", .model = "small_cnn", .batch = 4},
    {.name = "f32 fresh", .channel_drop = 0.5f, .spatial_drop = 0.3f},
    {.name = "f32 shared",
     .channel_drop = 0.5f,
     .spatial_drop = 0.3f,
     .shared = true},
    {.name = "int8 fresh",
     .width = 0.125f,
     .image = 64,
     .batch = 4,
     .channel_drop = 0.5f,
     .regime = plan::NumericRegime::kInt8},
    {.name = "f32 fresh traced",
     .channel_drop = 0.5f,
     .spatial_drop = 0.3f,
     .traced = true},
    {.name = "small_cnn capped",
     .model = "small_cnn",
     .batch = 4,
     .channel_drop = 0.3f,
     .compute_cap = 0.4},
    {.name = "f32 fresh, batch 8/4",
     .channel_drop = 0.5f,
     .spatial_drop = 0.3f,
     .alternate_batch = 4},
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
