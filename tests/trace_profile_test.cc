// Executor-level tracing under a forced 4-thread pool: with the tracer
// ARMED, reserved grouped plan passes must stay arena-growth-free (rings
// are preallocated, slot claims are lock-free), the recorded timeline must
// show mask-group spans on >= 2 worker lanes (the parallel group regime is
// actually traced, not just the driving thread), and the per-(op, phase)
// aggregation must carry the GEMM phase the masked conv steps record.
// Compiled-out builds (ANTIDOTE_PROFILE=0) skip: enable() returns false.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "base/parallel.h"
#include "base/rng.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/execution_context.h"
#include "obs/trace.h"
#include "plan/plan.h"

namespace antidote {
namespace {

// Must run before any antidote code touches the pool (see
// parallel_groups_test.cc). 4 compute threads = caller + 3 workers.
const bool kForcedThreads = [] {
  ::setenv("ANTIDOTE_THREADS", "4", /*overwrite=*/1);
  return true;
}();

class TracedRun {
 public:
  explicit TracedRun(int distinct, size_t events_per_worker = 1 << 12)
      : distinct_(distinct) {
    EXPECT_TRUE(kForcedThreads);
    enabled_ = obs::Tracer::instance().enable(events_per_worker,
                                              /*with_counters=*/false);
    if (!enabled_) return;
    Rng rng(5);
    net_ = models::make_model("vgg16", 10, /*width=*/0.25f, rng);
    net_->set_training(false);
    core::PruneSettings settings;
    settings.channel_drop = {0.2f, 0.2f, 0.6f, 0.9f, 0.9f};
    settings.spatial_drop = {0.3f, 0.3f, 0.3f, 0.3f, 0.3f};
    engine_ = std::make_unique<core::DynamicPruningEngine>(*net_, settings);
    Rng data_rng(17);
    Tensor uniq = Tensor::randn({distinct_, 3, 32, 32}, data_rng);
    x_ = Tensor({kBatch, 3, 32, 32});
    const int64_t sample = uniq.size() / distinct_;
    for (int i = 0; i < kBatch; ++i) {
      std::memcpy(x_.data() + i * sample,
                  uniq.data() + (i % distinct_) * sample,
                  static_cast<size_t>(sample) * sizeof(float));
    }
    // These tests assert multi-lane STRUCTURE (group spans on >= 2 worker
    // lanes, >= 2 exported tids); union coarsening merging similar masks
    // below 2 groups would collapse the lanes, so pin it off here.
    net_->set_coarsen_policy(plan::CoarsenMode::kOff);
    plan_ = &net_->inference_plan(3, 32, 32);
    plan_->reserve(ctx_.workspace(), kBatch);
  }

  ~TracedRun() {
    if (engine_) engine_->remove();
    obs::Tracer::instance().disable();
  }

  bool enabled() const { return enabled_; }
  plan::InferencePlan& plan() { return *plan_; }
  nn::ExecutionContext& ctx() { return ctx_; }

  void run_pass() {
    ctx_.begin_pass();
    Tensor staged = ctx_.alloc(x_.shape());
    std::memcpy(staged.data(), x_.data(),
                static_cast<size_t>(x_.size()) * sizeof(float));
    net_->forward(staged, ctx_);
  }

  static constexpr int kBatch = 8;

 private:
  int distinct_;
  bool enabled_ = false;
  std::unique_ptr<models::ConvNet> net_;
  std::unique_ptr<core::DynamicPruningEngine> engine_;
  Tensor x_;
  nn::ExecutionContext ctx_;
  plan::InferencePlan* plan_ = nullptr;
};

int slots_with_phase(obs::Phase phase) {
  const obs::Tracer& tracer = obs::Tracer::instance();
  int slots = 0;
  for (int s = 0; s < tracer.slots_in_use(); ++s) {
    const obs::TraceRing& ring = tracer.ring(s);
    for (size_t i = 0; i < ring.size(); ++i) {
      if (ring.chronological(i).phase == static_cast<uint8_t>(phase)) {
        ++slots;
        break;
      }
    }
  }
  return slots;
}

TEST(TraceProfile, ArmedTracingKeepsReservedPassesGrowthFree) {
  TracedRun run(/*distinct=*/4);
  if (!run.enabled()) GTEST_SKIP() << "ANTIDOTE_PROFILE=0 build";
  for (int i = 0; i < 2; ++i) run.run_pass();  // warm + claim slots
  obs::Tracer::instance().clear();
  const int64_t grows_before = run.ctx().workspace().grow_count();
  for (int i = 0; i < 4; ++i) run.run_pass();
  EXPECT_EQ(run.ctx().workspace().grow_count() - grows_before, 0)
      << "tracing must not re-introduce arena growth on reserved passes";
  EXPECT_GE(run.plan().last_mask_groups(), 2);
  EXPECT_LE(run.plan().last_mask_groups(), 4);
  EXPECT_GT(obs::Tracer::instance().total_events(), 0u);
}

TEST(TraceProfile, GroupSpansLandOnMultipleWorkerLanes) {
  TracedRun run(/*distinct=*/4);
  if (!run.enabled()) GTEST_SKIP() << "ANTIDOTE_PROFILE=0 build";
  for (int i = 0; i < 3; ++i) run.run_pass();
  // 4 distinct mask groups on a caller + 3 workers pool: the parallel
  // group regime must have executed groups on at least two lanes.
  EXPECT_GE(slots_with_phase(obs::Phase::kGroup), 2);
  EXPECT_GE(slots_with_phase(obs::Phase::kGemm), 2);
}

TEST(TraceProfile, AggregateCarriesPerOpPhases) {
  TracedRun run(/*distinct=*/4);
  if (!run.enabled()) GTEST_SKIP() << "ANTIDOTE_PROFILE=0 build";
  run.run_pass();
  const std::vector<obs::PhaseStat> stats =
      obs::Tracer::instance().aggregate();
  bool saw_step = false, saw_gemm = false, saw_group = false;
  for (const obs::PhaseStat& s : stats) {
    EXPECT_GT(s.calls, 0u);
    EXPECT_GE(s.total_ms, 0.0);
    if (s.phase == obs::Phase::kStep && s.op >= 0) saw_step = true;
    if (s.phase == obs::Phase::kGemm && s.op >= 0) saw_gemm = true;
    if (s.phase == obs::Phase::kGroup && s.op >= 0) saw_group = true;
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_gemm);
  EXPECT_TRUE(saw_group);
}

TEST(TraceProfile, RingWraparoundDropsOldestAndCountsIt) {
  // A tiny ring forces wraparound under a real traced run; the tracer
  // reports the loss in dropped_events() instead of growing.
  TracedRun run(/*distinct=*/4, /*events_per_worker=*/16);
  if (!run.enabled()) GTEST_SKIP() << "ANTIDOTE_PROFILE=0 build";
  for (int i = 0; i < 3; ++i) run.run_pass();
  const obs::Tracer& tracer = obs::Tracer::instance();
  EXPECT_GT(tracer.dropped_events(), 0u);
  for (int s = 0; s < tracer.slots_in_use(); ++s) {
    EXPECT_LE(tracer.ring(s).size(), 16u);
    EXPECT_EQ(tracer.ring(s).capacity(), 16u);
  }
}

TEST(TraceProfile, ChromeTraceExportContainsConcurrentLanes) {
  TracedRun run(/*distinct=*/4);
  if (!run.enabled()) GTEST_SKIP() << "ANTIDOTE_PROFILE=0 build";
  for (int i = 0; i < 2; ++i) run.run_pass();
  const std::string path = ::testing::TempDir() + "/antidote_trace_test.json";
  ASSERT_TRUE(obs::Tracer::instance().write_chrome_trace(path, [&](int op) {
    return run.plan().ops()[static_cast<size_t>(op)].name;
  }));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    doc.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find(":gemm\""), std::string::npos);
  // At least two distinct thread lanes in the export.
  EXPECT_NE(doc.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
}

}  // namespace
}  // namespace antidote
