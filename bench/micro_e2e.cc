// End-to-end inference latency (google-benchmark): dense VGG16/ResNet56
// forward vs dynamically pruned forward at the paper's Table-I settings,
// plus serving-worker steady-state benchmarks running the allocation-free
// ExecutionContext hot path.
//
// Before the benchmarks run, main() executes a hard verification of the
// serving-path contract and exits non-zero on violation:
//   - context forwards are bitwise-identical to plain eval forwards
//     (dense AND masked), pass after pass;
//   - after warm-up, a serving-style pass (begin_pass + batch stage +
//     forward) performs ZERO heap allocations (global operator new/delete
//     are instrumented in this binary).
//
// Results are also written as machine-readable JSON (BENCH_e2e.json by
// default; pass --benchmark_out=... to override) so the perf trajectory is
// tracked across PRs. The verification block prints logits checksums that
// future PRs can diff against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/timer.h"
#include "bench_main.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/conv_kernels.h"
#include "nn/execution_context.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "serving/serving.h"

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

namespace {

using namespace antidote;

constexpr float kWidth = 0.25f;  // keep each iteration in the ms range

std::unique_ptr<models::ConvNet> build(const std::string& name) {
  Rng rng(9);
  auto net = models::make_model(name, 10, kWidth, rng);
  net->set_training(false);
  return net;
}

core::PruneSettings vgg_settings() {
  core::PruneSettings settings;
  settings.channel_drop = {0.2f, 0.2f, 0.6f, 0.9f, 0.9f};
  settings.spatial_drop = {0.3f, 0.3f, 0.3f, 0.3f, 0.3f};
  return settings;
}

// --- original single-sample latency benchmarks -----------------------------

void BM_Vgg16Dense(benchmark::State& state) {
  auto net = build("vgg16");
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}
BENCHMARK(BM_Vgg16Dense);

void BM_Vgg16DynamicPruned(benchmark::State& state) {
  auto net = build("vgg16");
  core::PruneSettings settings;
  settings.channel_drop = {0.2f, 0.2f, 0.6f, 0.9f, 0.9f};
  settings.spatial_drop = {0.f, 0.f, 0.f, 0.f, 0.f};
  core::DynamicPruningEngine engine(*net, settings);
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}
BENCHMARK(BM_Vgg16DynamicPruned);

void BM_Resnet56Dense(benchmark::State& state) {
  auto net = build("resnet56");
  Rng rng(2);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}
BENCHMARK(BM_Resnet56Dense);

void BM_Resnet56DynamicPruned(benchmark::State& state) {
  auto net = build("resnet56");
  core::PruneSettings settings;
  settings.channel_drop = {0.3f, 0.3f, 0.6f};
  settings.spatial_drop = {0.6f, 0.6f, 0.6f};
  core::DynamicPruningEngine engine(*net, settings);
  Rng rng(2);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}
BENCHMARK(BM_Resnet56DynamicPruned);

// --- serving-worker steady state: ExecutionContext hot path ----------------
//
// Mirrors BatchScheduler::run_batch: per pass, rewind the arena, stage the
// batch into it, run the context forward. heap_allocs_per_pass counts
// global operator new calls inside the timed loop — 0 once warm.

void serving_steady_state(benchmark::State& state,
                          const std::string& model_name, bool pruned) {
  const int batch = 8;
  auto net = build(model_name);
  std::unique_ptr<core::DynamicPruningEngine> engine;
  if (pruned) {
    engine = std::make_unique<core::DynamicPruningEngine>(*net,
                                                          vgg_settings());
  }
  Rng rng(3);
  std::vector<Tensor> requests;
  for (int i = 0; i < batch; ++i) {
    requests.push_back(Tensor::randn({3, 32, 32}, rng));
  }
  nn::ExecutionContext ctx;
  const int64_t sample = requests[0].size();
  auto run_pass = [&] {
    ctx.begin_pass();
    Tensor stacked = ctx.alloc({batch, 3, 32, 32});
    for (int i = 0; i < batch; ++i) {
      std::memcpy(stacked.data() + i * sample,
                  requests[static_cast<size_t>(i)].data(),
                  static_cast<size_t>(sample) * sizeof(float));
    }
    Tensor logits = net->forward(stacked, ctx);
    benchmark::DoNotOptimize(logits.data());
  };
  for (int i = 0; i < 3; ++i) run_pass();  // warm the arena + capacities

  const int64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) run_pass();
  const int64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["heap_allocs_per_pass"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(std::max<int64_t>(1, state.iterations())));
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}

void BM_ServingSteadyVgg16Dense(benchmark::State& state) {
  serving_steady_state(state, "vgg16", /*pruned=*/false);
}
BENCHMARK(BM_ServingSteadyVgg16Dense);

void BM_ServingSteadyVgg16Pruned(benchmark::State& state) {
  serving_steady_state(state, "vgg16", /*pruned=*/true);
}
BENCHMARK(BM_ServingSteadyVgg16Pruned);

// --- compiled-plan single-sample latency (vs the module-walk BM_*Dense) ----

void plan_single_sample(benchmark::State& state,
                        const std::string& model_name) {
  auto net = build(model_name);
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  nn::ExecutionContext ctx;
  net->inference_plan(3, 32, 32).reserve(ctx.workspace(), 1);
  for (auto _ : state) {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    Tensor y = net->forward(staged, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * net->last_macs());
}

void BM_PlanVgg16Dense(benchmark::State& state) {
  plan_single_sample(state, "vgg16");
}
BENCHMARK(BM_PlanVgg16Dense);

void BM_PlanResnet56Dense(benchmark::State& state) {
  plan_single_sample(state, "resnet56");
}
BENCHMARK(BM_PlanResnet56Dense);

// --- hard verification of the hot-path contract ----------------------------

double checksum(const Tensor& t) {
  double acc = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    acc += double(t.data()[i]) * ((i % 7) + 1);
  }
  return acc;
}

bool verify_path(const std::string& model_name, bool pruned, int batch) {
  auto net = build(model_name);
  std::unique_ptr<core::DynamicPruningEngine> engine;
  if (pruned) {
    engine = std::make_unique<core::DynamicPruningEngine>(*net,
                                                          vgg_settings());
  }
  Rng rng(4);
  Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);

  Tensor plain = net->forward(x);
  const double plain_checksum = checksum(plain);

  nn::ExecutionContext ctx;
  auto run_pass = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };

  bool ok = true;
  for (int i = 0; i < 3; ++i) {  // warm-up, checking outputs throughout
    Tensor y = run_pass();
    if (std::memcmp(plain.data(), y.data(),
                    static_cast<size_t>(plain.size()) * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FAIL [%s %s]: context forward output differs from plain "
                   "eval forward (pass %d)\n",
                   model_name.c_str(), pruned ? "pruned" : "dense", i);
      ok = false;
    }
  }
  const int64_t grows_before = ctx.workspace().grow_count();
  const int64_t allocs_before = g_heap_allocs.load();
  const int passes = 5;
  for (int i = 0; i < passes; ++i) {
    Tensor y = run_pass();
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t allocs = g_heap_allocs.load() - allocs_before;
  const int64_t grows = ctx.workspace().grow_count() - grows_before;
  std::printf(
      "serving-path %-8s %-6s: %2d passes, %3d heap allocs, %d arena "
      "growths, logits checksum %.6f\n",
      model_name.c_str(), pruned ? "pruned" : "dense", passes,
      static_cast<int>(allocs), static_cast<int>(grows), plain_checksum);
  if (allocs != 0 || grows != 0) {
    std::fprintf(stderr,
                 "FAIL [%s %s]: steady-state serving pass allocated "
                 "(allocs=%d growths=%d, expected 0)\n",
                 model_name.c_str(), pruned ? "pruned" : "dense",
                 static_cast<int>(allocs), static_cast<int>(grows));
    ok = false;
  }
  return ok;
}

bool run_verification() {
  std::printf("--- serving hot-path verification ---\n");
  bool ok = true;
  ok &= verify_path("vgg16", /*pruned=*/false, /*batch=*/4);
  ok &= verify_path("vgg16", /*pruned=*/true, /*batch=*/4);
  ok &= verify_path("resnet56", /*pruned=*/false, /*batch=*/2);
  std::printf("--- verification %s ---\n", ok ? "PASSED" : "FAILED");
  return ok;
}

// --- plan equivalence gate + BENCH_plan.json --------------------------------
//
// For every model family: the compiled InferencePlan must be
// dense-bitwise-identical to the module walk, masked-equal within 1e-5
// (bitwise in the current exact-epilogue fold), and must perform zero
// arena growths starting with the VERY FIRST forward after an explicit
// compile + reserve. The plan-vs-module timing comparison rides along and
// is reported (not gated — machines vary), so the fusion win is tracked
// across PRs in BENCH_plan.json.

core::PruneSettings settings_for(models::ConvNet& net) {
  if (net.model_name() == "vgg16") return vgg_settings();
  core::PruneSettings s;
  s.channel_drop.assign(static_cast<size_t>(net.num_blocks()), 0.3f);
  s.spatial_drop.assign(static_cast<size_t>(net.num_blocks()), 0.3f);
  return s;
}

struct PlanReport {
  std::string model;
  bool dense_bitwise = false;
  double masked_max_abs_diff = 0.0;
  int64_t first_pass_growths = -1;
  int64_t first_pass_heap_allocs = -1;  // dense plan path, reserved arena
  double module_walk_ms = 0.0;
  double plan_ms = 0.0;
  bool pass = false;
};

PlanReport verify_plan(const std::string& model_name, int batch) {
  PlanReport r;
  r.model = model_name;
  Rng rng(6);
  Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);

  // 1) Dense: bitwise identity + zero growths/allocs from the first pass.
  {
    auto net = build(model_name);
    const Tensor plain = net->forward(x);
    nn::ExecutionContext ctx;
    plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
    plan.reserve(ctx.workspace(), batch);
    const int64_t grows_before = ctx.workspace().grow_count();
    const int64_t allocs_before = g_heap_allocs.load();
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    const Tensor fused = net->forward(staged, ctx);
    r.first_pass_heap_allocs = g_heap_allocs.load() - allocs_before;
    r.first_pass_growths = ctx.workspace().grow_count() - grows_before;
    r.dense_bitwise =
        plain.same_shape(fused) &&
        std::memcmp(plain.data(), fused.data(),
                    static_cast<size_t>(plain.size()) * sizeof(float)) == 0;

    // Timing: module walk (plain eval forward) vs compiled plan.
    const int reps = 6;
    for (int i = 0; i < 2; ++i) net->forward(x);  // warm
    WallTimer module_timer;
    for (int i = 0; i < reps; ++i) {
      Tensor y = net->forward(x);
      benchmark::DoNotOptimize(y.data());
    }
    r.module_walk_ms = module_timer.millis() / reps;
    for (int i = 0; i < 2; ++i) {
      ctx.begin_pass();
      Tensor y = net->forward(x, ctx);
      benchmark::DoNotOptimize(y.data());
    }
    WallTimer plan_timer;
    for (int i = 0; i < reps; ++i) {
      ctx.begin_pass();
      Tensor y = net->forward(x, ctx);
      benchmark::DoNotOptimize(y.data());
    }
    r.plan_ms = plan_timer.millis() / reps;
  }

  // 2) Masked: dynamic pruning through the fused steps, within 1e-5.
  {
    auto net = build(model_name);
    core::DynamicPruningEngine engine(*net, settings_for(*net));
    const Tensor plain = net->forward(x);
    nn::ExecutionContext ctx;
    ctx.begin_pass();
    const Tensor fused = net->forward(x, ctx);
    for (int64_t i = 0; i < plain.size(); ++i) {
      r.masked_max_abs_diff =
          std::max(r.masked_max_abs_diff,
                   std::abs(double(plain.data()[i]) - fused.data()[i]));
    }
    engine.remove();
  }

  r.pass = r.dense_bitwise && r.masked_max_abs_diff <= 1e-5 &&
           r.first_pass_growths == 0 && r.first_pass_heap_allocs == 0;
  std::printf(
      "plan %-8s: dense %s, masked |diff| %.2e, first pass %lld growths / "
      "%lld allocs, module %.3f ms vs plan %.3f ms (%.2fx)%s\n",
      r.model.c_str(), r.dense_bitwise ? "bitwise" : "DIFFERS",
      r.masked_max_abs_diff, static_cast<long long>(r.first_pass_growths),
      static_cast<long long>(r.first_pass_heap_allocs), r.module_walk_ms,
      r.plan_ms, r.plan_ms > 0 ? r.module_walk_ms / r.plan_ms : 0.0,
      r.pass ? "" : "  <-- FAIL");
  return r;
}

// --- grouped-vs-per-sample masked comparison --------------------------------
//
// Batch 8 built from 4 unique images duplicated twice: every gate computes
// identical attention — hence identical masks — for duplicated samples, so
// the batch quantizes into <= 4 distinct kept sets. The mask-grouped plan
// executor buckets them into compacted multi-sample GEMMs; the baseline is
// the module walk's per-sample masked kernels (per-sample weight
// gathering, per-sample GEMM dispatch — the pre-grouping execution
// strategy). Correctness is gated (<= 1e-5 vs the module walk and the
// grouping must actually trigger); the timing is reported in
// BENCH_plan.json so the grouped win is tracked across PRs.

struct GroupedReport {
  std::string model;
  int batch = 8;
  int distinct = 4;
  int observed_groups = 0;
  double max_abs_diff = 0.0;
  double per_sample_ms = 0.0;  // masked module walk
  double grouped_ms = 0.0;     // masked mask-grouped plan
  bool pass = false;
};

GroupedReport verify_grouped(const std::string& model_name, int distinct) {
  GroupedReport r;
  r.model = model_name;
  r.distinct = distinct;
  auto net = build(model_name);
  core::DynamicPruningEngine engine(*net, settings_for(*net));
  Rng rng(8);
  Tensor uniq = Tensor::randn({r.distinct, 3, 32, 32}, rng);
  Tensor x({r.batch, 3, 32, 32});
  const int64_t sample = uniq.size() / r.distinct;
  for (int i = 0; i < r.batch; ++i) {
    std::memcpy(x.data() + i * sample,
                uniq.data() + (i % r.distinct) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }

  const Tensor plain = net->forward(x);
  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
  plan.reserve(ctx.workspace(), r.batch);
  auto run_plan = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };
  const Tensor fused = run_plan();
  for (int64_t i = 0; i < plain.size(); ++i) {
    r.max_abs_diff = std::max(
        r.max_abs_diff, std::abs(double(plain.data()[i]) - fused.data()[i]));
  }
  r.observed_groups = plan.last_mask_groups();

  // Interleaved repetitions: alternating the two paths spreads load
  // spikes across both measurements instead of biasing one.
  const int reps = 10;
  for (int i = 0; i < 3; ++i) {
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
    run_plan();
  }
  double per_sample_total = 0.0, grouped_total = 0.0;
  for (int i = 0; i < reps; ++i) {
    WallTimer per_sample_timer;
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(y.data());
    per_sample_total += per_sample_timer.millis();
    WallTimer grouped_timer;
    Tensor z = run_plan();
    benchmark::DoNotOptimize(z.data());
    grouped_total += grouped_timer.millis();
  }
  r.per_sample_ms = per_sample_total / reps;
  r.grouped_ms = grouped_total / reps;

  r.pass = r.max_abs_diff <= 1e-5 && r.observed_groups >= 1 &&
           r.observed_groups <= r.distinct;
  std::printf(
      "grouped %-8s: batch %d, %d distinct masks -> %d groups, |diff| "
      "%.2e, per-sample %.3f ms vs grouped %.3f ms (%.2fx)%s\n",
      r.model.c_str(), r.batch, r.distinct, r.observed_groups,
      r.max_abs_diff, r.per_sample_ms, r.grouped_ms,
      r.grouped_ms > 0 ? r.per_sample_ms / r.grouped_ms : 0.0,
      r.pass ? "" : "  <-- FAIL");
  engine.remove();
  return r;
}

// --- similar-mask union coarsening gate --------------------------------------
//
// High-entropy batch: one base image plus small per-sample noise. The
// attention gates then emit pairwise-distinct but heavily overlapping
// kept sets — the exact-identity bucketing worst case (all-singleton
// groups) that union coarsening exists to collapse. Gated:
//   * the coarsened grouped pass stays BITWISE identical to the
//     per-sample module walk (union supersets only insert products of
//     explicitly zeroed activations);
//   * on a real pool (>= 4 threads on >= 4 physical cores) the
//     coarsened schedule beats exact-identity grouping by >= 1.25x;
//   * the 4-distinct batch (genuinely dissimilar masks) shows no
//     regression under auto — the cost model must decline merges it
//     predicts as losses. Timing gates self-skip on small or
//     oversubscribed hosts; parity and bookkeeping always run.
constexpr double kMaskUnionSpeedupFloor = 1.25;
constexpr double kMaskUnionNoRegressionBudget = 1.10;

struct MaskUnionReport {
  int batch = 8;
  int raw_groups = 0;        // exact-identity buckets
  int coarsened_groups = 0;  // clusters actually executed under auto
  double extra_mac_frac = 0.0;
  bool bitwise = false;
  int64_t steady_growths = 0;
  double off_ms = 0.0;   // exact-identity grouping (coarsen off)
  double auto_ms = 0.0;  // latency-aware union coarsening
  double speedup = 0.0;  // off_ms / auto_ms on the near-identical batch
  double distinct4_off_ms = 0.0;
  double distinct4_auto_ms = 0.0;
  double distinct4_ratio = 0.0;  // auto / off: must not regress
  bool gate_enforced = false;
  bool pass = false;
};

MaskUnionReport verify_mask_union() {
  MaskUnionReport r;
  auto net = build("vgg16");
  core::DynamicPruningEngine engine(*net, settings_for(*net));
  Rng rng(41);
  Tensor base = Tensor::randn({1, 3, 32, 32}, rng);
  Tensor noise = Tensor::randn({r.batch, 3, 32, 32}, rng);
  Tensor x({r.batch, 3, 32, 32});
  const int64_t sample = base.size();
  for (int i = 0; i < r.batch; ++i) {
    for (int64_t j = 0; j < sample; ++j) {
      x.data()[i * sample + j] =
          base.data()[j] + 0.02f * noise.data()[i * sample + j];
    }
  }

  // Per-sample module walk: the bitwise reference for BOTH policies.
  const Tensor plain = net->forward(x);

  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
  plan.reserve(ctx.workspace(), r.batch);
  auto run_plan = [&](const Tensor& in) {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(in.shape());
    std::memcpy(staged.data(), in.data(),
                static_cast<size_t>(in.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };

  net->set_coarsen_policy({plan::CoarsenMode::kAuto, 1.0});
  const Tensor fused = run_plan(x);
  r.bitwise = plain.same_shape(fused) &&
              std::memcmp(plain.data(), fused.data(),
                          static_cast<size_t>(plain.size()) *
                              sizeof(float)) == 0;
  r.raw_groups = plan.last_mask_groups_raw();
  r.coarsened_groups = plan.last_mask_groups();
  r.extra_mac_frac = plan.last_coarsen_extra_mac_frac();

  // Timed in separate blocks (not interleaved): the two policies carry
  // different weight-panel working sets, and alternating them would
  // thrash the CPU caches in a way neither production path sees.
  const int reps = 10;
  auto time_policy = [&](plan::CoarsenMode mode, const Tensor& in) {
    net->set_coarsen_policy({mode, 1.0});
    for (int i = 0; i < 3; ++i) run_plan(in);  // warm-up passes
    const int64_t grows = ctx.workspace().grow_count();
    double total = 0.0;
    for (int i = 0; i < reps; ++i) {
      WallTimer timer;
      Tensor y = run_plan(in);
      benchmark::DoNotOptimize(y.data());
      total += timer.millis();
    }
    r.steady_growths += ctx.workspace().grow_count() - grows;
    return total / reps;
  };
  r.off_ms = time_policy(plan::CoarsenMode::kOff, x);
  r.auto_ms = time_policy(plan::CoarsenMode::kAuto, x);
  r.speedup = r.auto_ms > 0.0 ? r.off_ms / r.auto_ms : 0.0;

  // No-regression batch: 4 genuinely distinct images duplicated to
  // batch 8. Dissimilar kept sets make most merges cost-model losses;
  // auto must track off within noise.
  Tensor uniq = Tensor::randn({4, 3, 32, 32}, rng);
  Tensor x4({r.batch, 3, 32, 32});
  for (int i = 0; i < r.batch; ++i) {
    std::memcpy(x4.data() + i * sample, uniq.data() + (i % 4) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }
  r.distinct4_off_ms = time_policy(plan::CoarsenMode::kOff, x4);
  r.distinct4_auto_ms = time_policy(plan::CoarsenMode::kAuto, x4);
  r.distinct4_ratio = r.distinct4_off_ms > 0.0
                          ? r.distinct4_auto_ms / r.distinct4_off_ms
                          : 0.0;

  const int threads = 1 + antidote::global_pool().size();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  r.gate_enforced = threads >= 4 && cores >= threads;
  const bool timing_ok =
      !r.gate_enforced ||
      (r.speedup >= kMaskUnionSpeedupFloor &&
       r.distinct4_ratio <= kMaskUnionNoRegressionBudget);
  r.pass = r.bitwise && r.steady_growths == 0 && r.raw_groups >= 2 &&
           r.coarsened_groups >= 1 &&
           r.coarsened_groups <= r.raw_groups && timing_ok;
  std::printf(
      "mask union   vgg16: batch %d, %d raw -> %d coarsened groups "
      "(+%.1f%% MACs), bitwise %s, off %.3f ms vs auto %.3f ms (%.2fx, "
      "floor %.2f), 4-distinct auto/off %.3f (budget %.2f)%s -> %s\n",
      r.batch, r.raw_groups, r.coarsened_groups, 100.0 * r.extra_mac_frac,
      r.bitwise ? "yes" : "NO", r.off_ms, r.auto_ms, r.speedup,
      kMaskUnionSpeedupFloor, r.distinct4_ratio,
      kMaskUnionNoRegressionBudget,
      r.gate_enforced ? "" : " (timing skipped: <4 threads or oversubscribed)",
      r.pass ? "PASSED" : "FAILED");
  engine.remove();
  return r;
}

// --- int8 regime gates -------------------------------------------------------
//
// Accuracy gate: the int8 regime's dense logits vs the f32 reference on
// every tier-1 model (max logit deviation + top-1 agreement). The
// deviation is measured RELATIVE to the largest f32 logit magnitude —
// logit scale varies by orders of magnitude across the tier-1 models
// (random-init resnet56's residual stacking produces ~1e4-scale logits
// where vgg16 sits near 1), so an absolute budget cannot cover all three.
// Measured: <= 1.2e-2 relative deviation on every tier-1 model, top-1
// agreement 15/16..16/16 (the flips are sub-percent near-ties of a
// random-init head). The budgets carry ~4x headroom; a real int8 kernel
// defect (wrong accumulator quad, bad wsum correction) lands orders of
// magnitude outside them and near-chance agreement.
constexpr double kInt8MaxRelLogitDiff = 0.05;
constexpr double kInt8MinTop1Agreement = 0.85;

struct Int8AccuracyReport {
  std::string model;
  int batch = 16;
  double max_abs_diff = 0.0;
  double max_rel_diff = 0.0;  // max |diff| / max |f32 logit|
  double top1_agreement = 0.0;
  bool pass = false;
};

Int8AccuracyReport verify_int8_accuracy(const std::string& model_name) {
  Int8AccuracyReport r;
  r.model = model_name;
  auto net = build(model_name);
  Rng rng(14);
  Tensor x = Tensor::randn({r.batch, 3, 32, 32}, rng);
  nn::ExecutionContext ctx;
  auto run_plan = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };
  // The returned logits borrow arena memory the int8 pass will reuse:
  // copy the f32 reference out before switching regimes.
  const Tensor f32_logits = run_plan();
  std::vector<float> ref(f32_logits.data(),
                         f32_logits.data() + f32_logits.size());
  const int classes = f32_logits.dim(1);
  net->set_numeric_regime(plan::NumericRegime::kInt8);
  const Tensor q_logits = run_plan();
  int agree = 0;
  double max_ref = 0.0;
  for (int b = 0; b < r.batch; ++b) {
    const float* fr = ref.data() + static_cast<int64_t>(b) * classes;
    const float* qr = q_logits.data() + static_cast<int64_t>(b) * classes;
    int f_arg = 0, q_arg = 0;
    for (int c = 0; c < classes; ++c) {
      r.max_abs_diff =
          std::max(r.max_abs_diff, std::abs(double(fr[c]) - qr[c]));
      max_ref = std::max(max_ref, std::abs(double(fr[c])));
      if (fr[c] > fr[f_arg]) f_arg = c;
      if (qr[c] > qr[q_arg]) q_arg = c;
    }
    agree += f_arg == q_arg ? 1 : 0;
  }
  r.max_rel_diff = r.max_abs_diff / std::max(1e-12, max_ref);
  r.top1_agreement = static_cast<double>(agree) / r.batch;
  r.pass = std::isfinite(r.max_abs_diff) &&
           r.max_rel_diff <= kInt8MaxRelLogitDiff &&
           r.top1_agreement >= kInt8MinTop1Agreement;
  std::printf(
      "int8 accuracy %-8s: batch %d, max |logit diff| %.3e (%.3e relative, "
      "budget %.2e), top-1 agreement %.2f (floor %.2f)%s\n",
      r.model.c_str(), r.batch, r.max_abs_diff, r.max_rel_diff,
      kInt8MaxRelLogitDiff, r.top1_agreement, kInt8MinTop1Agreement,
      r.pass ? "" : "  <-- FAIL");
  return r;
}

// Int8 grouped-masked gate: the tentpole's end-to-end claim. vgg16 batch 8
// under 4 distinct CHANNEL-only masks (spatial drops would route groups to
// the f32 shift-GEMM fallback and measure the wrong thing): the int8
// grouped path must preserve the zero-alloc/zero-growth steady state and
// — when the igemm dispatch lands on AVX-512 VNNI — beat the f32 grouped
// path by >= 1.3x. Without VNNI the speedup is reported but not enforced
// (the AVX2 dpbusd emulation spends 4 multiplies per quad where vpdpbusd
// spends 1, so the floor is a VNNI property).
constexpr double kInt8MaskedSpeedupFloor = 1.3;

// Numerics budget for the masked gate is ABSOLUTE, not relative: with 90%
// of late-block channels dropped the surviving logits sit near zero
// (max |logit| ~0.1 on random init), so any relative metric explodes on
// noise. Real accuracy is gated by the dense int8 accuracy checks above;
// this bound (measured max |diff| ~2.1e-1) only catches gross breakage
// like a wrong scale or a misrouted group.
constexpr double kInt8MaskedAbsDiffBudget = 1.0;

struct Int8MaskedReport {
  std::string model = "vgg16";
  int batch = 8;
  int distinct = 4;
  int observed_groups = 0;
  double max_abs_diff = 0.0;  // int8 grouped vs f32 grouped logits
  double max_rel_diff = 0.0;  // relative to the largest f32 logit
  double f32_ms = 0.0;
  double int8_ms = 0.0;
  int64_t int8_allocs = -1;
  int64_t int8_growths = -1;
  bool vnni = false;
  bool gate_enforced = false;
  bool pass = false;
};

Int8MaskedReport verify_int8_grouped(int distinct) {
  Int8MaskedReport r;
  r.distinct = distinct;
  auto net = build(r.model);
  core::PruneSettings settings;
  settings.channel_drop = {0.2f, 0.2f, 0.6f, 0.9f, 0.9f};
  settings.spatial_drop = {0.f, 0.f, 0.f, 0.f, 0.f};
  core::DynamicPruningEngine engine(*net, settings);
  Rng rng(15);
  Tensor uniq = Tensor::randn({r.distinct, 3, 32, 32}, rng);
  Tensor x({r.batch, 3, 32, 32});
  const int64_t sample = uniq.size() / r.distinct;
  for (int i = 0; i < r.batch; ++i) {
    std::memcpy(x.data() + i * sample,
                uniq.data() + (i % r.distinct) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }
  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
  plan.reserve(ctx.workspace(), r.batch);
  auto run_plan = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    return net->forward(staged, ctx);
  };
  const int reps = 10;
  for (int i = 0; i < 3; ++i) run_plan();  // warm f32 caches + arena
  const Tensor f32_logits = run_plan();
  std::vector<float> ref(f32_logits.data(),
                         f32_logits.data() + f32_logits.size());
  WallTimer f32_timer;
  for (int i = 0; i < reps; ++i) {
    Tensor y = run_plan();
    benchmark::DoNotOptimize(y.data());
  }
  r.f32_ms = f32_timer.millis() / reps;

  // Regime switch mid-flight: the same plan re-reserves for the int8
  // scratch (quantized column panels and int8 weight panels); the steady
  // state after that must be as allocation-free as f32's.
  net->set_numeric_regime(plan::NumericRegime::kInt8);
  plan.reserve(ctx.workspace(), r.batch);
  for (int i = 0; i < 3; ++i) run_plan();  // warm-up passes
  const Tensor q_logits = run_plan();
  double max_ref = 0.0;
  for (int64_t i = 0; i < q_logits.size(); ++i) {
    r.max_abs_diff = std::max(
        r.max_abs_diff, std::abs(double(ref[static_cast<size_t>(i)]) -
                                 q_logits.data()[i]));
    max_ref =
        std::max(max_ref, std::abs(double(ref[static_cast<size_t>(i)])));
  }
  r.max_rel_diff = r.max_abs_diff / std::max(1e-12, max_ref);
  r.observed_groups = plan.last_mask_groups();
  const int64_t grows_before = ctx.workspace().grow_count();
  const int64_t allocs_before = g_heap_allocs.load();
  WallTimer int8_timer;
  for (int i = 0; i < reps; ++i) {
    Tensor y = run_plan();
    benchmark::DoNotOptimize(y.data());
  }
  r.int8_ms = int8_timer.millis() / reps;
  r.int8_allocs = g_heap_allocs.load() - allocs_before;
  r.int8_growths = ctx.workspace().grow_count() - grows_before;

  r.vnni = nn::cpu_supports_vnni();
  r.gate_enforced = r.vnni;
  const double speedup = r.int8_ms > 0.0 ? r.f32_ms / r.int8_ms : 0.0;
  const bool numerics_ok = std::isfinite(r.max_abs_diff) &&
                           r.max_abs_diff <= kInt8MaskedAbsDiffBudget;
  const bool steady_ok = r.int8_allocs == 0 && r.int8_growths == 0;
  const bool groups_ok =
      r.observed_groups >= 1 && r.observed_groups <= r.distinct;
  const bool speed_ok =
      !r.gate_enforced || speedup >= kInt8MaskedSpeedupFloor;
  r.pass = numerics_ok && steady_ok && groups_ok && speed_ok;
  std::printf(
      "int8 masked %-8s: batch %d, %d distinct channel masks -> %d groups, "
      "|diff| %.3e (rel %.3e), f32 %.3f ms vs int8 %.3f ms "
      "(%.2fx, floor %.2f %s), steady %lld allocs / %lld growths%s\n",
      r.model.c_str(), r.batch, r.distinct, r.observed_groups,
      r.max_abs_diff, r.max_rel_diff, r.f32_ms, r.int8_ms, speedup,
      kInt8MaskedSpeedupFloor,
      r.gate_enforced ? "enforced" : "report-only: no VNNI",
      static_cast<long long>(r.int8_allocs),
      static_cast<long long>(r.int8_growths), r.pass ? "" : "  <-- FAIL");
  engine.remove();
  return r;
}

// --- tracing-enabled hot-path gate ------------------------------------------
//
// The obs tracer's core promise: the serving hot path stays allocation-
// and growth-free WITH tracing armed. Rings are preallocated by enable()
// and thread slots are claimed with a lock-free fetch_add, so warmed
// passes must stay at zero even while every phase span is being recorded.
// Also checks that the recorded timeline actually shows cross-worker
// group execution (>= 2 trace slots carrying kGroup spans) when the pool
// is wide enough for the parallel group regime.

struct TracingReport {
  bool compiled_in = false;
  int64_t traced_pass_allocs = -1;
  int64_t traced_pass_growths = -1;
  uint64_t events = 0;
  uint64_t dropped = 0;
  int slots_with_groups = 0;
  bool spread_gated = false;  // only with >= 4 threads (parallel regime)
  bool pass = true;
};

TracingReport verify_tracing() {
  TracingReport r;
  obs::Tracer& tracer = obs::Tracer::instance();
  r.compiled_in = tracer.enable(size_t{1} << 14, /*with_counters=*/false);
  if (!r.compiled_in) {
    std::printf(
        "tracing gate: profiling compiled out (ANTIDOTE_PROFILE=0); "
        "skipped\n");
    return r;
  }
  const int batch = 8, distinct = 4;
  auto net = build("vgg16");
  core::DynamicPruningEngine engine(*net, settings_for(*net));
  Rng rng(12);
  Tensor uniq = Tensor::randn({distinct, 3, 32, 32}, rng);
  Tensor x({batch, 3, 32, 32});
  const int64_t sample = uniq.size() / distinct;
  for (int i = 0; i < batch; ++i) {
    std::memcpy(x.data() + i * sample, uniq.data() + (i % distinct) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }
  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
  plan.reserve(ctx.workspace(), batch);
  auto run_pass = [&] {
    ctx.begin_pass();
    Tensor staged = ctx.alloc(x.shape());
    std::memcpy(staged.data(), x.data(),
                static_cast<size_t>(x.size()) * sizeof(float));
    Tensor y = net->forward(staged, ctx);
    benchmark::DoNotOptimize(y.data());
  };
  for (int i = 0; i < 3; ++i) run_pass();  // warm arena, claim trace slots
  tracer.clear();                          // keep slots, drop warmup spans
  const int64_t grows_before = ctx.workspace().grow_count();
  const int64_t allocs_before = g_heap_allocs.load();
  const int passes = 5;
  for (int i = 0; i < passes; ++i) run_pass();
  r.traced_pass_allocs = g_heap_allocs.load() - allocs_before;
  r.traced_pass_growths = ctx.workspace().grow_count() - grows_before;
  r.events = tracer.total_events();
  r.dropped = tracer.dropped_events();
  for (int s = 0; s < tracer.slots_in_use(); ++s) {
    const obs::TraceRing& ring = tracer.ring(s);
    for (size_t i = 0; i < ring.size(); ++i) {
      if (ring.chronological(i).phase ==
          static_cast<uint8_t>(obs::Phase::kGroup)) {
        ++r.slots_with_groups;
        break;
      }
    }
  }
  tracer.disable();
  engine.remove();

  const int threads = 1 + antidote::global_pool().size();
  r.spread_gated = threads >= 4;
  const bool alloc_ok =
      r.traced_pass_allocs == 0 && r.traced_pass_growths == 0;
  const bool spread_ok = !r.spread_gated || r.slots_with_groups >= 2;
  r.pass = alloc_ok && spread_ok && r.events > 0;
  std::printf(
      "tracing gate: %d traced passes, %lld heap allocs / %lld growths "
      "(want 0/0), %llu spans (%llu dropped), %d worker lanes with group "
      "spans%s -> %s\n",
      passes, static_cast<long long>(r.traced_pass_allocs),
      static_cast<long long>(r.traced_pass_growths),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.dropped), r.slots_with_groups,
      r.spread_gated ? " (>= 2 required)" : " (spread check skipped: <4 threads)",
      r.pass ? "PASSED" : "FAILED");
  return r;
}

// --- resolution sweep: spatially-tiled lowering gate -------------------------
//
// small_cnn forwards at 32..224 px (batch 2), --tile=auto vs --tile=off.
// Gated:
//   * tiled f32 logits stay BITWISE identical to untiled at every
//     resolution — tiling splits independent output columns only, and
//     each column's accumulation order is unchanged;
//   * warm tiled passes perform zero arena growths (the tile-aware
//     arena_bytes sizing is exact at 224x224 too);
//   * the tiled arena grows SUB-LINEARLY in output positions: the
//     32->224 arena ratio must stay under half the position ratio
//     (49x positions; measured ~13x arena, the residual being the
//     activations themselves);
//   * on a real pool (>= 4 threads on >= 4 physical cores) tiled beats
//     untiled at 224 by >= 1.2x — cache-resident column panels instead
//     of a ~30 MB im2col round trip — and costs <= 1.05x at 32, where
//     auto declines to tile and the code path is identical (the budget
//     only covers timer noise). Timing gates self-skip on small or
//     oversubscribed hosts; parity, growth and arena gates always run.
constexpr double kTiledSpeedupFloor = 1.2;
constexpr double kTiledLowResBudget = 1.05;
constexpr double kTiledSublinearFactor = 0.5;

struct ResolutionPoint {
  int resolution = 0;
  int64_t positions = 0;  // resolution^2: small_cnn convs preserve the grid
  size_t tiled_arena = 0;
  size_t untiled_arena = 0;
  int64_t max_tile = 0;    // widest tile chosen by auto (0 = declined)
  double tiled_ms = 0.0;   // 0 when the point is untimed
  double untiled_ms = 0.0;
  int64_t warm_growths = 0;
  bool bitwise = false;
};

ResolutionPoint measure_resolution(int res, bool timed) {
  ResolutionPoint p;
  p.resolution = res;
  p.positions = static_cast<int64_t>(res) * res;
  const int batch = 2;
  const int reps = res >= 128 ? 5 : 20;
  Rng rng(21);
  Tensor x = Tensor::randn({batch, 3, res, res}, rng);

  // Min-of-reps: robust against scheduler noise, which matters for the
  // tight 1.05x no-regression budget at 32 px.
  auto min_ms = [&](auto&& run) {
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
      WallTimer timer;
      run();
      const double ms = timer.millis();
      if (i == 0 || ms < best) best = ms;
    }
    return best;
  };

  std::vector<float> ref;
  {
    auto net = build("small_cnn");
    net->set_tile_policy({plan::TileMode::kOff, 0});
    nn::ExecutionContext ctx;
    plan::InferencePlan& plan = net->inference_plan(3, res, res);
    p.untiled_arena = plan.arena_bytes(batch);
    plan.reserve(ctx.workspace(), batch);
    auto run_pass = [&] {
      ctx.begin_pass();
      Tensor staged = ctx.alloc(x.shape());
      std::memcpy(staged.data(), x.data(),
                  static_cast<size_t>(x.size()) * sizeof(float));
      return net->forward(staged, ctx);
    };
    Tensor y = run_pass();
    ref.assign(y.data(), y.data() + y.size());
    if (timed) {
      run_pass();  // warm
      p.untiled_ms = min_ms([&] {
        Tensor z = run_pass();
        benchmark::DoNotOptimize(z.data());
      });
    }
  }
  {
    auto net = build("small_cnn");
    net->set_tile_policy({plan::TileMode::kAuto, 0});
    nn::ExecutionContext ctx;
    plan::InferencePlan& plan = net->inference_plan(3, res, res);
    p.tiled_arena = plan.arena_bytes(batch);
    for (const plan::PlanOp& op : plan.ops()) {
      p.max_tile = std::max<int64_t>(p.max_tile, op.tile_pos);
    }
    plan.reserve(ctx.workspace(), batch);
    auto run_pass = [&] {
      ctx.begin_pass();
      Tensor staged = ctx.alloc(x.shape());
      std::memcpy(staged.data(), x.data(),
                  static_cast<size_t>(x.size()) * sizeof(float));
      return net->forward(staged, ctx);
    };
    Tensor y = run_pass();
    p.bitwise = static_cast<size_t>(y.size()) == ref.size() &&
                std::memcmp(ref.data(), y.data(),
                            ref.size() * sizeof(float)) == 0;
    run_pass();  // warm
    const int64_t grows = ctx.workspace().grow_count();
    if (timed) {
      p.tiled_ms = min_ms([&] {
        Tensor z = run_pass();
        benchmark::DoNotOptimize(z.data());
      });
    } else {
      run_pass();
    }
    p.warm_growths = ctx.workspace().grow_count() - grows;
  }
  return p;
}

struct ResolutionSweepReport {
  std::vector<ResolutionPoint> points;
  double position_ratio = 0.0;  // 224 vs 32
  double arena_ratio = 0.0;     // tiled arena, 224 vs 32
  double speedup_224 = 0.0;     // untiled / tiled
  double low_res_ratio = 0.0;   // tiled / untiled at 32
  bool gate_enforced = false;
  bool pass = false;
};

ResolutionSweepReport verify_resolution_sweep() {
  ResolutionSweepReport r;
  for (int res : {32, 64, 128, 224}) {
    r.points.push_back(measure_resolution(res, res == 32 || res == 224));
  }
  const ResolutionPoint& lo = r.points.front();
  const ResolutionPoint& hi = r.points.back();
  r.position_ratio =
      static_cast<double>(hi.positions) / static_cast<double>(lo.positions);
  r.arena_ratio = static_cast<double>(hi.tiled_arena) /
                  static_cast<double>(std::max<size_t>(1, lo.tiled_arena));
  r.speedup_224 = hi.tiled_ms > 0.0 ? hi.untiled_ms / hi.tiled_ms : 0.0;
  r.low_res_ratio = lo.untiled_ms > 0.0 ? lo.tiled_ms / lo.untiled_ms : 0.0;

  bool bitwise = true;
  int64_t growths = 0;
  for (const ResolutionPoint& p : r.points) {
    bitwise &= p.bitwise;
    growths += p.warm_growths;
    std::printf(
        "resolution %3d: arena tiled %zu B vs untiled %zu B, max tile "
        "%lld, bitwise %s, warm growths %lld%s\n",
        p.resolution, p.tiled_arena, p.untiled_arena,
        static_cast<long long>(p.max_tile), p.bitwise ? "yes" : "NO",
        static_cast<long long>(p.warm_growths),
        p.tiled_ms > 0.0
            ? (", untiled " + std::to_string(p.untiled_ms) + " ms vs tiled " +
               std::to_string(p.tiled_ms) + " ms")
                  .c_str()
            : "");
  }
  const bool tiled_at_224 = hi.max_tile > 0;
  const bool sublinear =
      r.arena_ratio <= kTiledSublinearFactor * r.position_ratio;
  const int threads = 1 + antidote::global_pool().size();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  r.gate_enforced = threads >= 4 && cores >= threads;
  const bool timing_ok = !r.gate_enforced ||
                         (r.speedup_224 >= kTiledSpeedupFloor &&
                          r.low_res_ratio <= kTiledLowResBudget);
  r.pass = bitwise && growths == 0 && tiled_at_224 && sublinear && timing_ok;
  std::printf(
      "resolution sweep small_cnn: 32->224 positions %.0fx, tiled arena "
      "%.1fx (sub-linear budget %.1fx), 224 speedup %.2fx (floor %.2f), "
      "32 ratio %.3f (budget %.2f)%s -> %s\n",
      r.position_ratio, r.arena_ratio,
      kTiledSublinearFactor * r.position_ratio, r.speedup_224,
      kTiledSpeedupFloor, r.low_res_ratio, kTiledLowResBudget,
      r.gate_enforced ? "" : " (timing skipped: <4 threads or oversubscribed)",
      r.pass ? "PASSED" : "FAILED");
  return r;
}

// --- adversarial-load hardening gate -----------------------------------------
//
// The serving stack under hostile traffic (serving/adversarial.h). Gated:
//   * per-request compute-cap semantics, deterministically: a NON-binding
//     cap is bitwise identical to the uncapped plan (the executor returns
//     the original masks untouched) and counts zero capped samples; a
//     binding cap clamps every masked sample and stays zero-alloc /
//     zero-growth across warm passes (capped_masks are pre-sized by
//     reserve());
//   * under a mixed-profile attack at sustained overload against a server
//     running cost-aware admission control plus the cap, the hardening
//     actually fires: shed > 0 and capped > 0;
//   * on a real pool (>= 4 threads on >= 4 physical cores) the admitted
//     requests' e2e p99 under attack stays within 3x the friendly
//     closed-loop p99 — admission keeps the queue drainable instead of
//     letting hostile load poison every admitted request. The timing
//     ratio self-skips like the other gates; cap semantics and counter
//     checks always run.
constexpr double kAdversarialP99Factor = 3.0;

struct AdversarialReport {
  bool cap_noop_bitwise = false;
  int cap_noop_samples = -1;    // must be 0: the 0.9 cap never binds
  int cap_binding_samples = 0;  // must cover the batch: 0.4 always binds
  int64_t cap_warm_allocs = -1;
  int64_t cap_warm_growths = -1;
  double friendly_p99_ms = 0.0;
  uint64_t attack_offered = 0;
  uint64_t attack_completed = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  uint64_t capped = 0;
  uint64_t expired = 0;
  double attack_p99_ms = 0.0;
  double attack_queue_p99_ms = 0.0;
  double attack_forward_p99_ms = 0.0;
  double p99_ratio = 0.0;
  bool gate_enforced = false;
  bool pass = false;
};

AdversarialReport verify_adversarial() {
  AdversarialReport r;
  const int batch = 4;

  // 1) Cap semantics on the plan executor (deterministic, no serving).
  // Channel-only drops of 0.3: every masked sample demands keep 0.7 of
  // some conv step, so a 0.9 ceiling never binds and a 0.4 always does.
  {
    auto net = build("small_cnn");
    core::PruneSettings s;
    s.channel_drop.assign(static_cast<size_t>(net->num_blocks()), 0.3f);
    s.spatial_drop.assign(static_cast<size_t>(net->num_blocks()), 0.f);
    core::DynamicPruningEngine engine(*net, s);
    Rng rng(33);
    Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
    nn::ExecutionContext ctx;
    plan::InferencePlan& plan = net->inference_plan(3, 32, 32);
    plan.reserve(ctx.workspace(), batch);
    auto run_pass = [&] {
      ctx.begin_pass();
      Tensor staged = ctx.alloc(x.shape());
      std::memcpy(staged.data(), x.data(),
                  static_cast<size_t>(x.size()) * sizeof(float));
      return net->forward(staged, ctx);
    };
    const Tensor uncapped = run_pass();
    std::vector<float> ref(uncapped.data(),
                           uncapped.data() + uncapped.size());
    net->set_compute_cap(0.9);
    const Tensor noop = run_pass();
    r.cap_noop_bitwise =
        static_cast<size_t>(noop.size()) == ref.size() &&
        std::memcmp(ref.data(), noop.data(),
                    ref.size() * sizeof(float)) == 0;
    r.cap_noop_samples = plan.last_capped_samples();
    net->set_compute_cap(0.4);
    for (int i = 0; i < 3; ++i) run_pass();  // warm the capped path
    r.cap_binding_samples = plan.last_capped_samples();
    const int64_t grows_before = ctx.workspace().grow_count();
    const int64_t allocs_before = g_heap_allocs.load();
    for (int i = 0; i < 5; ++i) {
      Tensor y = run_pass();
      benchmark::DoNotOptimize(y.data());
    }
    r.cap_warm_allocs = g_heap_allocs.load() - allocs_before;
    r.cap_warm_growths = ctx.workspace().grow_count() - grows_before;
    engine.remove();
  }

  // Shared serving pieces: channel-only pruning so the compute cap has a
  // well-defined per-request kept fraction to clamp.
  auto make_prune = [] {
    auto probe = build("small_cnn");
    core::PruneSettings s;
    s.channel_drop.assign(static_cast<size_t>(probe->num_blocks()), 0.3f);
    s.spatial_drop.assign(static_cast<size_t>(probe->num_blocks()), 0.f);
    return s;
  };
  auto closed_loop = [](serving::InferenceServer& server, int clients,
                        int per_client, uint64_t seed0) {
    std::vector<std::thread> ts;
    ts.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      ts.emplace_back([&server, per_client, seed0, c] {
        Rng rng(seed0 + static_cast<uint64_t>(c));
        for (int i = 0; i < per_client; ++i) {
          auto f = server.submit(Tensor::randn({3, 32, 32}, rng));
          if (!f.valid()) return;
          f.get();
        }
      });
    }
    for (std::thread& t : ts) t.join();
  };

  // 2) Friendly baseline: closed-loop clients against a plain pruned
  // server fix the reference p99.
  {
    serving::ServerConfig config;
    config.policy.max_batch = 8;
    config.policy.max_wait = std::chrono::microseconds(500);
    config.policy.num_workers = 2;
    config.prune = make_prune();
    serving::InferenceServer server(
        [](int) { return build("small_cnn"); }, config);
    closed_loop(server, 4, 8, 55);  // warm-up
    server.stats().reset();
    closed_loop(server, 4, 24, 56);
    r.friendly_p99_ms = server.stats().snapshot().e2e_p99_ms;
    server.shutdown();
  }

  // 3) Mixed attack against the hardened server. The generous latency
  // budget keeps the controller relaxed — i.e. near keep-everything, the
  // worst case the cap exists for — while the tight admission budget
  // prices the burst volleys out of the queue.
  {
    serving::ServerConfig config;
    config.policy.max_batch = 8;
    config.policy.max_wait = std::chrono::microseconds(500);
    config.policy.num_workers = 2;
    config.queue_capacity = 64;
    config.prune = make_prune();
    serving::LatencyController::Config lc;
    lc.target_p95_ms = 20.0;
    config.latency = lc;
    config.admission.enabled = true;
    config.admission.max_queue_ms = 0.1;
    config.compute_cap = 0.5;
    serving::InferenceServer server(
        [](int) { return build("small_cnn"); }, config);
    // Friendly warm-up first: the controller needs a latency window
    // before the admission cost estimate is live.
    closed_loop(server, 4, 8, 57);
    server.stats().reset();

    constexpr int kAttackers = 4;
    constexpr int kPerAttacker = 128;
    std::vector<std::thread> attackers;
    attackers.reserve(kAttackers);
    for (int c = 0; c < kAttackers; ++c) {
      attackers.emplace_back([&server, c] {
        serving::AdversarialGenerator gen(
            3, 32, 32, serving::AdversarialProfile::kMixed,
            77 + static_cast<uint64_t>(c));
        std::vector<std::future<serving::InferenceResult>> volley;
        for (int i = 0; i < kPerAttacker;) {
          const serving::AdversarialPacing pacing =
              gen.pacing(server.queue().capacity());
          const int n =
              pacing.open_loop
                  ? std::min(pacing.burst, kPerAttacker - i)
                  : 1;
          for (int b = 0; b < n; ++b) {
            const auto deadline =
                serving::Clock::now() + std::chrono::milliseconds(50);
            auto f = pacing.open_loop
                         ? server.try_submit(gen.next_input(), deadline)
                         : server.submit(gen.next_input(), deadline);
            if (f.valid()) volley.push_back(std::move(f));
          }
          i += n;
          for (auto& f : volley) f.get();
          volley.clear();
          if (pacing.gap.count() > 0) {
            std::this_thread::sleep_for(pacing.gap);
          }
        }
      });
    }
    for (std::thread& t : attackers) t.join();
    const serving::ServerStats::Snapshot s = server.stats().snapshot();
    server.shutdown();
    r.attack_offered = s.offered_requests;
    r.attack_completed = s.completed_requests;
    r.shed = s.shed;
    r.rejected = s.rejected;
    r.capped = s.capped_requests;
    r.expired = s.expired_unexecuted;
    r.attack_p99_ms = s.e2e_p99_ms;
    r.attack_queue_p99_ms = s.queue_wait_p99_ms;
    r.attack_forward_p99_ms = s.forward_p99_ms;
  }
  r.p99_ratio = r.friendly_p99_ms > 0.0
                    ? r.attack_p99_ms / r.friendly_p99_ms
                    : 0.0;

  const int threads = 1 + antidote::global_pool().size();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  r.gate_enforced = threads >= 4 && cores >= threads;
  const bool cap_ok = r.cap_noop_bitwise && r.cap_noop_samples == 0 &&
                      r.cap_binding_samples == batch &&
                      r.cap_warm_allocs == 0 && r.cap_warm_growths == 0;
  const bool fired_ok = r.shed > 0 && r.capped > 0;
  const bool timing_ok =
      !r.gate_enforced || r.p99_ratio <= kAdversarialP99Factor;
  r.pass = cap_ok && fired_ok && timing_ok;
  std::printf(
      "adversarial small_cnn: cap noop bitwise %s (%d capped), binding cap "
      "%d/%d samples, warm %lld allocs / %lld growths; mixed attack "
      "%llu offered -> %llu completed, shed %llu, rejected %llu, capped "
      "%llu, expired %llu; p99 %.3f ms (queue %.3f, forward %.3f) vs "
      "friendly %.3f ms (%.2fx, budget %.1f)%s -> %s\n",
      r.cap_noop_bitwise ? "yes" : "NO", r.cap_noop_samples,
      r.cap_binding_samples, batch,
      static_cast<long long>(r.cap_warm_allocs),
      static_cast<long long>(r.cap_warm_growths),
      static_cast<unsigned long long>(r.attack_offered),
      static_cast<unsigned long long>(r.attack_completed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.capped),
      static_cast<unsigned long long>(r.expired), r.attack_p99_ms,
      r.attack_queue_p99_ms, r.attack_forward_p99_ms, r.friendly_p99_ms,
      r.p99_ratio, kAdversarialP99Factor,
      r.gate_enforced ? "" : " (timing skipped: <4 threads or oversubscribed)",
      r.pass ? "PASSED" : "FAILED");
  return r;
}

// --- serving latency-distribution smoke -------------------------------------
//
// A small in-process InferenceServer run whose percentile snapshot rides
// into BENCH_e2e.json (top-level "serving_smoke"), so queue-wait/e2e
// tails are tracked across PRs next to the forward-latency curves.
// Reported, not gated: absolute latencies are machine-dependent.
std::string serving_percentile_smoke() {
  serving::ServerConfig config;
  config.policy.max_batch = 8;
  config.policy.max_wait = std::chrono::microseconds(500);
  config.policy.num_workers = 2;
  config.prune = settings_for(*build("small_cnn"));
  serving::InferenceServer server(
      [](int) { return build("small_cnn"); }, config);
  Rng rng(13);
  const int warmup = 16, measured = 96;
  std::vector<std::future<serving::InferenceResult>> futures;
  futures.reserve(static_cast<size_t>(warmup + measured));
  for (int i = 0; i < warmup; ++i) {
    futures.push_back(server.submit(Tensor::randn({3, 32, 32}, rng)));
  }
  for (auto& f : futures) f.get();
  futures.clear();
  server.stats().reset();
  for (int i = 0; i < measured; ++i) {
    futures.push_back(server.submit(Tensor::randn({3, 32, 32}, rng)));
  }
  for (auto& f : futures) f.get();
  const serving::ServerStats::Snapshot s = server.stats().snapshot();
  server.shutdown();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"serving_smoke\": {\"model\": \"small_cnn\", \"requests\": %llu, "
      "\"queue_wait_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f}, "
      "\"e2e_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f}, "
      "\"deadline_miss_rate_pct\": %.2f}",
      static_cast<unsigned long long>(s.completed_requests),
      s.queue_wait_p50_ms, s.queue_wait_p95_ms, s.queue_wait_p99_ms,
      s.e2e_p50_ms, s.e2e_p95_ms, s.e2e_p99_ms, s.deadline_miss_rate_pct);
  std::printf(
      "serving smoke: %llu requests, e2e p50/p95/p99 %.3f/%.3f/%.3f ms\n",
      static_cast<unsigned long long>(s.completed_requests), s.e2e_p50_ms,
      s.e2e_p95_ms, s.e2e_p99_ms);
  return buf;
}

bool run_plan_verification(const char* json_path) {
  std::printf("--- plan equivalence gate ---\n");
  std::vector<PlanReport> reports;
  reports.push_back(verify_plan("vgg16", /*batch=*/4));
  reports.push_back(verify_plan("resnet56", /*batch=*/2));
  reports.push_back(verify_plan("small_cnn", /*batch=*/4));
  std::printf("--- grouped masked execution ---\n");
  std::vector<GroupedReport> grouped;
  grouped.push_back(verify_grouped("vgg16", /*distinct=*/2));
  grouped.push_back(verify_grouped("vgg16", /*distinct=*/4));
  grouped.push_back(verify_grouped("vgg16", /*distinct=*/8));  // all-distinct
  grouped.push_back(verify_grouped("resnet56", /*distinct=*/4));
  bool ok = true;
  for (const PlanReport& r : reports) ok &= r.pass;
  for (const GroupedReport& r : grouped) ok &= r.pass;

  // Cross-group parallelism gate: with a real pool, the batch-8
  // all-distinct case (8 singleton groups, the former serialize-per-
  // sample worst case) must be no slower than the 4-group case by more
  // than 1.15x — concurrent groups, not serial dispatch. Skipped below 4
  // compute threads (groups necessarily serialize) and on oversubscribed
  // pools (more threads than cores: concurrency without parallelism only
  // adds dispatch work, which is not what the gate measures).
  const int threads = 1 + antidote::global_pool().size();
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  double ms4 = 0.0, ms8 = 0.0;
  for (const GroupedReport& r : grouped) {
    if (r.model != "vgg16") continue;
    if (r.distinct == 4) ms4 = r.grouped_ms;
    if (r.distinct == 8) ms8 = r.grouped_ms;
  }
  const double ratio = ms4 > 0.0 ? ms8 / ms4 : 0.0;
  const bool gate_active =
      threads >= 4 && cores >= threads && ms4 > 0.0 && ms8 > 0.0;
  const bool all_distinct_ok = !gate_active || ratio <= 1.15;
  ok &= all_distinct_ok;
  std::printf(
      "all-distinct gate: %d threads, simd %d-lane (%s), 8-group %.3f ms "
      "vs 4-group %.3f ms (ratio %.3f, budget 1.15) -> %s\n",
      threads, antidote::nn::simd_lane_width(),
      antidote::nn::simd_isa_name(), ms8, ms4, ratio,
      !gate_active ? "SKIPPED (<4 threads or oversubscribed)"
                   : (all_distinct_ok ? "PASSED" : "FAILED"));

  std::printf("--- similar-mask union coarsening ---\n");
  const MaskUnionReport mask_union = verify_mask_union();
  ok &= mask_union.pass;

  std::printf("--- int8 regime ---\n");
  std::vector<Int8AccuracyReport> int8_acc;
  int8_acc.push_back(verify_int8_accuracy("vgg16"));
  int8_acc.push_back(verify_int8_accuracy("resnet56"));
  int8_acc.push_back(verify_int8_accuracy("small_cnn"));
  for (const Int8AccuracyReport& r : int8_acc) ok &= r.pass;
  const Int8MaskedReport int8_masked = verify_int8_grouped(/*distinct=*/4);
  ok &= int8_masked.pass;

  std::printf("--- tracing-enabled hot path ---\n");
  const TracingReport tracing = verify_tracing();
  ok &= tracing.pass;

  std::printf("--- resolution sweep (spatially-tiled lowering) ---\n");
  const ResolutionSweepReport sweep = verify_resolution_sweep();
  ok &= sweep.pass;

  std::printf("--- adversarial-load hardening ---\n");
  const AdversarialReport adversarial = verify_adversarial();
  ok &= adversarial.pass;

  // Written to a temp file and published atomically: the tracked
  // BENCH_plan.json must never be observable empty or half-written.
  const std::string tmp_path = std::string(json_path) + ".tmp";
  if (FILE* f = std::fopen(tmp_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"meta\": %s,\n  \"plan_equivalence\": [\n",
                 antidote::bench::bench_meta_json().c_str());
    for (size_t i = 0; i < reports.size(); ++i) {
      const PlanReport& r = reports[i];
      std::fprintf(
          f,
          "    {\"model\": \"%s\", \"dense_bitwise\": %s, "
          "\"masked_max_abs_diff\": %.3e, \"first_pass_arena_growths\": %lld, "
          "\"first_pass_heap_allocs\": %lld, \"module_walk_ms\": %.4f, "
          "\"plan_ms\": %.4f, \"speedup\": %.3f, \"pass\": %s}%s\n",
          r.model.c_str(), r.dense_bitwise ? "true" : "false",
          r.masked_max_abs_diff, static_cast<long long>(r.first_pass_growths),
          static_cast<long long>(r.first_pass_heap_allocs), r.module_walk_ms,
          r.plan_ms, r.plan_ms > 0 ? r.module_walk_ms / r.plan_ms : 0.0,
          r.pass ? "true" : "false", i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"masked_grouped\": [\n");
    for (size_t i = 0; i < grouped.size(); ++i) {
      const GroupedReport& r = grouped[i];
      std::fprintf(
          f,
          "    {\"model\": \"%s\", \"batch\": %d, \"distinct_masks\": %d, "
          "\"observed_groups\": %d, \"max_abs_diff\": %.3e, "
          "\"per_sample_masked_ms\": %.4f, \"grouped_masked_ms\": %.4f, "
          "\"speedup\": %.3f, \"pass\": %s}%s\n",
          r.model.c_str(), r.batch, r.distinct, r.observed_groups,
          r.max_abs_diff, r.per_sample_ms, r.grouped_ms,
          r.grouped_ms > 0 ? r.per_sample_ms / r.grouped_ms : 0.0,
          r.pass ? "true" : "false", i + 1 < grouped.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"all_distinct\": {\"threads\": %d, \"simd_lanes\": %d, "
        "\"isa\": \"%s\", \"grouped8_ms\": %.4f, \"grouped4_ms\": %.4f, "
        "\"ratio\": %.3f, \"budget\": 1.15, \"gated\": %s, \"pass\": %s},\n",
        threads, antidote::nn::simd_lane_width(),
        antidote::nn::simd_isa_name(), ms8, ms4, ratio,
        gate_active ? "true" : "false", all_distinct_ok ? "true" : "false");
    std::fprintf(
        f,
        "  \"mask_union\": {\"model\": \"vgg16\", \"batch\": %d, "
        "\"raw_groups\": %d, \"coarsened_groups\": %d, "
        "\"extra_mac_frac\": %.4f, \"bitwise\": %s, "
        "\"steady_arena_growths\": %lld, \"off_ms\": %.4f, "
        "\"auto_ms\": %.4f, \"speedup\": %.3f, \"speedup_floor\": %.2f, "
        "\"distinct4_off_ms\": %.4f, \"distinct4_auto_ms\": %.4f, "
        "\"distinct4_ratio\": %.3f, \"distinct4_budget\": %.2f, "
        "\"gate_enforced\": %s, \"pass\": %s},\n",
        mask_union.batch, mask_union.raw_groups,
        mask_union.coarsened_groups, mask_union.extra_mac_frac,
        mask_union.bitwise ? "true" : "false",
        static_cast<long long>(mask_union.steady_growths),
        mask_union.off_ms, mask_union.auto_ms, mask_union.speedup,
        kMaskUnionSpeedupFloor, mask_union.distinct4_off_ms,
        mask_union.distinct4_auto_ms, mask_union.distinct4_ratio,
        kMaskUnionNoRegressionBudget,
        mask_union.gate_enforced ? "true" : "false",
        mask_union.pass ? "true" : "false");
    std::fprintf(f, "  \"int8_accuracy\": [\n");
    for (size_t i = 0; i < int8_acc.size(); ++i) {
      const Int8AccuracyReport& r = int8_acc[i];
      std::fprintf(
          f,
          "    {\"model\": \"%s\", \"batch\": %d, \"max_logit_diff\": "
          "%.3e, \"max_rel_diff\": %.3e, \"rel_budget\": %.3e, "
          "\"top1_agreement\": %.3f, "
          "\"agreement_floor\": %.2f, \"pass\": %s}%s\n",
          r.model.c_str(), r.batch, r.max_abs_diff, r.max_rel_diff,
          kInt8MaxRelLogitDiff,
          r.top1_agreement, kInt8MinTop1Agreement, r.pass ? "true" : "false",
          i + 1 < int8_acc.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"int8_masked\": {\"model\": \"%s\", \"batch\": %d, "
        "\"distinct_masks\": %d, \"observed_groups\": %d, "
        "\"max_abs_diff\": %.3e, \"abs_diff_budget\": %.3e, "
        "\"f32_grouped_ms\": %.4f, "
        "\"int8_grouped_ms\": %.4f, \"speedup\": %.3f, "
        "\"speedup_floor\": %.2f, \"steady_heap_allocs\": %lld, "
        "\"steady_arena_growths\": %lld, \"avx512_vnni\": %s, "
        "\"gate_enforced\": %s, \"pass\": %s},\n",
        int8_masked.model.c_str(), int8_masked.batch, int8_masked.distinct,
        int8_masked.observed_groups, int8_masked.max_abs_diff,
        kInt8MaskedAbsDiffBudget,
        int8_masked.f32_ms, int8_masked.int8_ms,
        int8_masked.int8_ms > 0.0 ? int8_masked.f32_ms / int8_masked.int8_ms
                                  : 0.0,
        kInt8MaskedSpeedupFloor,
        static_cast<long long>(int8_masked.int8_allocs),
        static_cast<long long>(int8_masked.int8_growths),
        int8_masked.vnni ? "true" : "false",
        int8_masked.gate_enforced ? "true" : "false",
        int8_masked.pass ? "true" : "false");
    std::fprintf(
        f,
        "  \"tracing\": {\"compiled_in\": %s, \"traced_pass_heap_allocs\": "
        "%lld, \"traced_pass_arena_growths\": %lld, \"events\": %llu, "
        "\"dropped\": %llu, \"slots_with_group_spans\": %d, "
        "\"spread_gated\": %s, \"pass\": %s},\n",
        tracing.compiled_in ? "true" : "false",
        static_cast<long long>(tracing.traced_pass_allocs),
        static_cast<long long>(tracing.traced_pass_growths),
        static_cast<unsigned long long>(tracing.events),
        static_cast<unsigned long long>(tracing.dropped),
        tracing.slots_with_groups, tracing.spread_gated ? "true" : "false",
        tracing.pass ? "true" : "false");
    std::fprintf(f, "  \"resolution_sweep\": {\"model\": \"small_cnn\", "
                    "\"batch\": 2, \"points\": [\n");
    for (size_t i = 0; i < sweep.points.size(); ++i) {
      const ResolutionPoint& p = sweep.points[i];
      std::fprintf(
          f,
          "    {\"resolution\": %d, \"positions\": %lld, "
          "\"tiled_arena_bytes\": %zu, \"untiled_arena_bytes\": %zu, "
          "\"max_tile\": %lld, \"tiled_ms\": %.4f, \"untiled_ms\": %.4f, "
          "\"warm_arena_growths\": %lld, \"bitwise\": %s}%s\n",
          p.resolution, static_cast<long long>(p.positions), p.tiled_arena,
          p.untiled_arena, static_cast<long long>(p.max_tile), p.tiled_ms,
          p.untiled_ms, static_cast<long long>(p.warm_growths),
          p.bitwise ? "true" : "false",
          i + 1 < sweep.points.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ], \"position_ratio\": %.1f, \"tiled_arena_ratio\": %.2f, "
        "\"sublinear_factor\": %.2f, \"speedup_224\": %.3f, "
        "\"speedup_floor\": %.2f, \"low_res_ratio\": %.3f, "
        "\"low_res_budget\": %.2f, \"gate_enforced\": %s, \"pass\": %s},\n",
        sweep.position_ratio, sweep.arena_ratio, kTiledSublinearFactor,
        sweep.speedup_224, kTiledSpeedupFloor, sweep.low_res_ratio,
        kTiledLowResBudget, sweep.gate_enforced ? "true" : "false",
        sweep.pass ? "true" : "false");
    std::fprintf(
        f,
        "  \"adversarial\": {\"model\": \"small_cnn\", "
        "\"cap_noop_bitwise\": %s, \"cap_noop_samples\": %d, "
        "\"cap_binding_samples\": %d, \"cap_warm_heap_allocs\": %lld, "
        "\"cap_warm_arena_growths\": %lld, \"attack_offered\": %llu, "
        "\"attack_completed\": %llu, \"shed\": %llu, \"rejected\": %llu, "
        "\"capped\": %llu, \"expired_unexecuted\": %llu, "
        "\"friendly_p99_ms\": %.4f, \"attack_p99_ms\": %.4f, "
        "\"p99_ratio\": %.3f, \"p99_budget\": %.1f, \"gate_enforced\": %s, "
        "\"pass\": %s},\n",
        adversarial.cap_noop_bitwise ? "true" : "false",
        adversarial.cap_noop_samples, adversarial.cap_binding_samples,
        static_cast<long long>(adversarial.cap_warm_allocs),
        static_cast<long long>(adversarial.cap_warm_growths),
        static_cast<unsigned long long>(adversarial.attack_offered),
        static_cast<unsigned long long>(adversarial.attack_completed),
        static_cast<unsigned long long>(adversarial.shed),
        static_cast<unsigned long long>(adversarial.rejected),
        static_cast<unsigned long long>(adversarial.capped),
        static_cast<unsigned long long>(adversarial.expired),
        adversarial.friendly_p99_ms, adversarial.attack_p99_ms,
        adversarial.p99_ratio, kAdversarialP99Factor,
        adversarial.gate_enforced ? "true" : "false",
        adversarial.pass ? "true" : "false");
    std::fprintf(f, "  \"gate\": \"%s\"\n}\n",
                 ok ? "PASSED" : "FAILED");
    std::fclose(f);
  }
  ok &= antidote::bench::publish_json_atomically(tmp_path, json_path);
  std::printf("--- plan gate %s (%s written) ---\n",
              ok ? "PASSED" : "FAILED", json_path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool skip_verify =
      std::getenv("ANTIDOTE_SKIP_VERIFY") != nullptr;
  if (!skip_verify && !run_verification()) return 1;
  if (!skip_verify && !run_plan_verification("BENCH_plan.json")) return 1;
  const std::string serving_fragment =
      skip_verify ? std::string() : serving_percentile_smoke();
  return antidote::bench::run_benchmarks(argc, argv, "BENCH_e2e.json",
                                         serving_fragment);
}
