// Serving runtime: queue backpressure and shutdown, micro-batch coalescing
// under the max-wait policy (and holding only while arrivals can fill a
// batch), latency-controller convergence onto a budget, and batched results
// matching the unbatched ConvNet forward exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/mpmc_queue.h"
#include "base/rng.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/execution_context.h"
#include "plan/plan.h"
#include "serving/serving.h"

namespace antidote::serving {
namespace {

using namespace std::chrono_literals;

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  int out = 0;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, PushBlocksUntilSpaceFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load());
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));      // no admission after close
  EXPECT_FALSE(q.try_push(3));
  int out = 0;
  EXPECT_TRUE(q.pop(out));      // pending items stay poppable
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));     // drained + closed = shutdown signal
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));  // blocks, then close() wakes it
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, PopUntilTimesOut) {
  BoundedQueue<int> q(1);
  int out = 0;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(out, before + 30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - before, 25ms);
}

// --- RequestQueue -----------------------------------------------------------

Tensor make_input(uint64_t seed, int image = 8) {
  Rng rng(seed);
  return Tensor::randn({3, image, image}, rng);
}

TEST(RequestQueue, TicketsAndBackpressureCounters) {
  RequestQueue q(2);
  auto f1 = q.try_submit(make_input(1));
  auto f2 = q.try_submit(make_input(2));
  EXPECT_TRUE(f1.valid());
  EXPECT_TRUE(f2.valid());
  auto f3 = q.try_submit(make_input(3));  // full -> shed
  EXPECT_FALSE(f3.valid());
  EXPECT_EQ(q.submitted(), 2u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.depth(), 2u);

  InferenceRequest req;
  ASSERT_TRUE(q.pop(req));
  ASSERT_TRUE(q.pop(req));
  EXPECT_EQ(req.ticket, 1u);  // tickets count up from 0

  q.close();
  EXPECT_FALSE(q.submit(make_input(4)).valid());
}

TEST(RequestQueue, RejectsBatchedInputs) {
  RequestQueue q(2);
  Rng rng(1);
  Tensor batched = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_THROW(q.submit(std::move(batched)), Error);
}

TEST(RequestQueue, ConcurrentTrySubmitAccountingIsExact) {
  // Open-loop producers hammering a small queue: every attempt is either
  // admitted or counted rejected, with nothing lost or double-counted
  // across threads.
  RequestQueue q(8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::atomic<uint64_t> valid_futures{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto f = q.try_submit(
            make_input(static_cast<uint64_t>(t) * 1000 + i));
        if (f.valid()) valid_futures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(q.submitted(), valid_futures.load());
  EXPECT_EQ(q.submitted() + q.rejected(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Nothing consumed the queue, so every admitted request is still there.
  EXPECT_EQ(q.depth(), q.submitted());
  EXPECT_LE(q.depth(), q.capacity());
}

TEST(RequestQueue, AdmissionShedsAtThePredictedCostBoundary) {
  RequestQueue q(8);
  AdmissionConfig ac;
  ac.enabled = true;
  ac.max_queue_ms = 25.0;
  q.configure_admission(ac, [] { return 10.0; });

  SubmitStatus status = SubmitStatus::kClosed;
  auto f1 = q.try_submit(make_input(1), std::nullopt, &status);
  EXPECT_TRUE(f1.valid());  // (0+1)*10 <= 25
  EXPECT_EQ(status, SubmitStatus::kAccepted);
  auto f2 = q.try_submit(make_input(2), std::nullopt, &status);
  EXPECT_TRUE(f2.valid());  // (1+1)*10 <= 25
  // Blocking submit sheds too — admission is a policy refusal, not
  // backpressure, so it must not block waiting for space.
  auto f3 = q.submit(make_input(3), std::nullopt, &status);
  EXPECT_FALSE(f3.valid());  // (2+1)*10 > 25
  EXPECT_EQ(status, SubmitStatus::kShed);
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.rejected(), 0u);  // distinct from queue-full rejection

  // Draining one slot re-admits: the gate prices depth, not history.
  InferenceRequest req;
  ASSERT_TRUE(q.pop(req));
  auto f4 = q.try_submit(make_input(4), std::nullopt, &status);
  EXPECT_TRUE(f4.valid());
  EXPECT_EQ(status, SubmitStatus::kAccepted);
}

TEST(RequestQueue, AdmissionExactBudgetAdmitsAndZeroCostDisarms) {
  RequestQueue q(4);
  AdmissionConfig ac;
  ac.enabled = true;
  ac.max_queue_ms = 20.0;
  q.configure_admission(ac, [] { return 10.0; });
  SubmitStatus status = SubmitStatus::kClosed;
  EXPECT_TRUE(q.try_submit(make_input(1), std::nullopt, &status).valid());
  // (1+1)*10 == 20: the shed condition is strictly greater-than.
  EXPECT_TRUE(q.try_submit(make_input(2), std::nullopt, &status).valid());
  EXPECT_FALSE(q.try_submit(make_input(3), std::nullopt, &status).valid());
  EXPECT_EQ(status, SubmitStatus::kShed);

  // A zero-cost estimate (no latency signal yet) admits unconditionally.
  q.configure_admission(ac, [] { return 0.0; });
  EXPECT_TRUE(q.try_submit(make_input(4), std::nullopt, &status).valid());
  EXPECT_EQ(status, SubmitStatus::kAccepted);
}

TEST(RequestQueue, QueueFullReportsRejectedNotShed) {
  RequestQueue q(2);
  SubmitStatus status = SubmitStatus::kClosed;
  EXPECT_TRUE(q.try_submit(make_input(1), std::nullopt, &status).valid());
  EXPECT_TRUE(q.try_submit(make_input(2), std::nullopt, &status).valid());
  EXPECT_FALSE(q.try_submit(make_input(3), std::nullopt, &status).valid());
  EXPECT_EQ(status, SubmitStatus::kRejected);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.shed(), 0u);
}

// --- ServerStats ------------------------------------------------------------

TEST(ServerStats, AggregatesAndResets) {
  ServerStats stats(4);
  stats.record_batch(4, 1.0, 0.1, 2.0, 0.1);
  stats.record_batch(2, 3.0, 0.1, 1.0, 0.1);
  stats.record_deadline_miss(1);
  stats.record_rejected(2);
  stats.record_queue_depth(6);

  const ServerStats::Snapshot s = stats.snapshot();
  EXPECT_EQ(s.completed_requests, 6u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 3.0);
  EXPECT_EQ(s.batch_size_histogram[3], 1u);  // one batch of 4
  EXPECT_EQ(s.batch_size_histogram[1], 1u);  // one batch of 2
  // Queue wait is request-weighted: (1.0 * 4 + 3.0 * 2) / 6.
  EXPECT_NEAR(s.mean_queue_wait_ms, 10.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.mean_forward_ms, 1.5);
  EXPECT_EQ(s.deadline_misses, 1u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_GT(stats.to_table().num_rows(), 10u);

  stats.reset();
  const ServerStats::Snapshot zero = stats.snapshot();
  EXPECT_EQ(zero.completed_requests, 0u);
  EXPECT_EQ(zero.batches, 0u);
  EXPECT_EQ(zero.batch_size_histogram[3], 0u);
}

TEST(ServerStats, CountsHoldsAndTheHoldsThatCaughtARequest) {
  ServerStats stats(4);
  stats.record_batch(1, 0.0, 0.0, 1.0, 0.0);
  stats.record_batch(1, 2.0, 0.0, 1.0, 0.0, BatchHold::kHeld);
  stats.record_batch(3, 1.0, 0.0, 1.0, 0.0, BatchHold::kHeldFilled);
  const ServerStats::Snapshot s = stats.snapshot();
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.held_batches, 2u);
  EXPECT_EQ(s.held_batches_filled, 1u);
  const Table t = stats.to_table();
  std::string rows;
  for (const auto& row : t.rows()) rows += row[0] + "=" + row[1] + "\n";
  EXPECT_NE(rows.find("held batches=2\n"), std::string::npos) << rows;
  EXPECT_NE(rows.find("held batches filled=1\n"), std::string::npos) << rows;

  stats.reset();
  EXPECT_EQ(stats.snapshot().held_batches, 0u);
  EXPECT_EQ(stats.snapshot().held_batches_filled, 0u);
}

TEST(ServerStats, RejectsOverMaxBatch) {
  ServerStats stats(2);
  EXPECT_THROW(stats.record_batch(3, 0, 0, 0, 0), Error);
}

TEST(ServerStats, RequestPercentilesAreExactBucketRepresentatives) {
  // 100 per-request records: 95 fast, 5 slow (octave-separated, so they
  // can never share a log bucket). The snapshot percentiles must equal
  // the histogram's representatives EXACTLY — same math as obs_test, but
  // through the ServerStats recording and snapshot plumbing.
  ServerStats stats(4);
  for (int i = 0; i < 95; ++i) stats.record_request(0.5, 2.0);
  for (int i = 0; i < 5; ++i) stats.record_request(4.0, 32.0);
  const ServerStats::Snapshot s = stats.snapshot();
  EXPECT_EQ(s.queue_wait_p50_ms, obs::LatencyHistogram::bucket_representative(0.5));
  EXPECT_EQ(s.queue_wait_p95_ms, obs::LatencyHistogram::bucket_representative(0.5));
  EXPECT_EQ(s.queue_wait_p99_ms, obs::LatencyHistogram::bucket_representative(4.0));
  EXPECT_EQ(s.e2e_p50_ms, obs::LatencyHistogram::bucket_representative(2.0));
  EXPECT_EQ(s.e2e_p95_ms, obs::LatencyHistogram::bucket_representative(2.0));
  EXPECT_EQ(s.e2e_p99_ms, obs::LatencyHistogram::bucket_representative(32.0));

  stats.reset();
  EXPECT_EQ(stats.snapshot().e2e_p50_ms, 0.0);
}

TEST(ServerStats, ForwardPercentilesComeFromBatchRecords) {
  ServerStats stats(4);
  for (int i = 0; i < 9; ++i) stats.record_batch(1, 0.0, 0.0, 1.0, 0.0);
  stats.record_batch(1, 0.0, 0.0, 16.0, 0.0);
  const ServerStats::Snapshot s = stats.snapshot();
  EXPECT_EQ(s.forward_p50_ms, obs::LatencyHistogram::bucket_representative(1.0));
  EXPECT_EQ(s.forward_p99_ms, obs::LatencyHistogram::bucket_representative(16.0));
}

TEST(ServerStats, DeadlineMissRateIsAPercentage) {
  ServerStats stats(4);
  stats.record_batch(4, 0.0, 0.0, 1.0, 0.0);  // 4 completed
  stats.record_deadline_miss(1);
  const ServerStats::Snapshot s = stats.snapshot();
  EXPECT_DOUBLE_EQ(s.deadline_miss_rate_pct, 25.0);
}

TEST(ServerStats, TableReportsDistributionsNotJustMeans) {
  ServerStats stats(4);
  stats.record_batch(2, 1.0, 0.1, 2.0, 0.1);
  stats.record_request(1.0, 3.0);
  stats.record_request(1.0, 3.0);
  const Table t = stats.to_table();
  std::string all;
  for (const auto& row : t.rows()) all += row[0] + "\n";
  EXPECT_NE(all.find("queue wait p50/p95/p99"), std::string::npos);
  EXPECT_NE(all.find("forward p50/p95/p99"), std::string::npos);
  EXPECT_NE(all.find("e2e p50/p95/p99"), std::string::npos);
  EXPECT_NE(all.find("deadline miss rate"), std::string::npos);
  // The misleading mean-only forward row is gone.
  EXPECT_EQ(all.find("mean forward"), std::string::npos);
}

// --- engine settings mailbox ------------------------------------------------

TEST(EngineMailbox, PostFromOtherThreadAppliesOnOwner) {
  Rng rng(7);
  auto net = models::make_model("small_cnn", 4, 1.0f, rng);
  core::DynamicPruningEngine engine(
      *net, core::PruneSettings::uniform(net->num_blocks(), 0.1f, 0.f));

  EXPECT_FALSE(engine.apply_pending_settings());  // nothing posted yet

  std::thread poster([&] {
    engine.post_settings(
        core::PruneSettings::uniform(net->num_blocks(), 0.3f, 0.f));
    engine.post_settings(
        core::PruneSettings::uniform(net->num_blocks(), 0.6f, 0.2f));
  });
  poster.join();

  EXPECT_TRUE(engine.apply_pending_settings());  // newest post wins
  EXPECT_FLOAT_EQ(engine.settings().channel_drop[0], 0.6f);
  EXPECT_FLOAT_EQ(engine.settings().spatial_drop[0], 0.2f);
  EXPECT_FALSE(engine.apply_pending_settings());  // mailbox now empty
  engine.remove();
}

// --- LatencyController ------------------------------------------------------

constexpr core::DynamicPruningEngine::KeepStats kKeep{0.5, 0.75};

// Synthetic plant: latency falls linearly as the controller prunes harder.
double plant_latency_ms(float offset) { return 20.0 * (1.0 - 0.9 * offset); }

TEST(LatencyController, ConvergesOntoTheBudget) {
  LatencyController::Config cfg;
  cfg.target_p95_ms = 10.0;  // plant reaches it at offset ~0.55
  cfg.window = 4;
  cfg.step = 0.1f;
  LatencyController lc(core::PruneSettings::uniform(2, 0.1f, 0.1f), cfg);

  for (int i = 0; i < 400; ++i) {
    lc.record_batch(plant_latency_ms(lc.offset()), kKeep, 4);
  }
  EXPECT_NEAR(lc.smoothed_p95_ms(), cfg.target_p95_ms,
              0.25 * cfg.target_p95_ms);
  EXPECT_GT(lc.offset(), 0.35f);
  EXPECT_LT(lc.offset(), 0.75f);

  // The shipped settings carry base + offset, clamped to [0, max_drop].
  const core::PruneSettings s = lc.settings();
  EXPECT_NEAR(s.channel_drop[0], 0.1f + lc.offset(), 1e-5);
  EXPECT_LE(s.channel_drop[0], cfg.max_drop);

  const auto keep = lc.keep_summary();
  EXPECT_DOUBLE_EQ(keep.mean_channel_keep, 0.5);
  EXPECT_DOUBLE_EQ(keep.mean_spatial_keep, 0.75);
  EXPECT_EQ(keep.samples, 400u * 4u);
}

TEST(LatencyController, UnreachableBudgetSaturatesAtMaxOffset) {
  LatencyController::Config cfg;
  cfg.target_p95_ms = 0.5;  // plant floor is 20 * 0.19 = 3.8 ms
  cfg.window = 2;
  cfg.step = 0.2f;
  cfg.max_offset = 0.8f;
  LatencyController lc(core::PruneSettings::uniform(2, 0.f, 0.f), cfg);
  for (int i = 0; i < 40; ++i) {
    lc.record_batch(plant_latency_ms(lc.offset()), kKeep, 1);
  }
  EXPECT_FLOAT_EQ(lc.offset(), 0.8f);
}

TEST(LatencyController, LooseBudgetRelaxesTowardMinOffset) {
  LatencyController::Config cfg;
  cfg.target_p95_ms = 500.0;  // plant never gets near the budget
  cfg.window = 2;
  cfg.step = 0.2f;
  LatencyController lc(core::PruneSettings::uniform(2, 0.5f, 0.5f), cfg);
  for (int i = 0; i < 40; ++i) {
    lc.record_batch(plant_latency_ms(lc.offset()), kKeep, 1);
  }
  EXPECT_FLOAT_EQ(lc.offset(), cfg.min_offset);
  // Negative offset prunes *less* than base; clamped at 0, never negative.
  EXPECT_FLOAT_EQ(lc.settings().channel_drop[0], 0.f);
}

TEST(LatencyController, CostModelInversionConvergesInOneWindow) {
  // Plant: 4 ms fixed overhead + a 16 ms prunable op scaled by the keep
  // ratio (base channel drop 0.1). Budget 10 ms -> keep = 6/16 = 0.375 ->
  // offset = 0.9 - 0.1 - 0.375 ... i.e. 1 - (0.1 + o) = 0.375 -> o = 0.525.
  LatencyController::Config cfg;
  cfg.target_p95_ms = 10.0;
  cfg.window = 2;
  cfg.step = 0.02f;  // tiny step: the EWMA walk alone would crawl
  LatencyController lc(core::PruneSettings::uniform(1, 0.1f, 0.f), cfg);

  lc.set_cost_model({{.ewma_ms = 4.0, .prune_block = -1},
                     {.ewma_ms = 16.0, .prune_block = 0}});
  ASSERT_TRUE(lc.has_cost_model());
  EXPECT_NEAR(lc.predict_ms(0.f), 4.0 + 16.0 * 0.9, 1e-6);

  auto plant = [&] {
    float drop = 0.1f + lc.offset();
    if (drop > 0.9f) drop = 0.9f;
    return 4.0 + 16.0 * (1.0 - drop);
  };
  // First window: model inversion jumps straight to the solving offset.
  lc.record_batch(plant(), kKeep, 1);
  lc.record_batch(plant(), kKeep, 1);
  EXPECT_NEAR(lc.offset(), 0.525f, 0.01f);
  // Second window sits on the budget: the controller holds still.
  const float settled = lc.offset();
  lc.record_batch(plant(), kKeep, 1);
  lc.record_batch(plant(), kKeep, 1);
  EXPECT_FLOAT_EQ(lc.offset(), settled);
  EXPECT_NEAR(lc.p95_ms(), cfg.target_p95_ms, 0.2);
}

TEST(LatencyController, CostModelScalesWithMaskGroupFraction) {
  // Mask-grouped execution: a masked op's predicted cost scales with
  // distinct-mask count x compacted size. The same op observed collapsing
  // a batch into a quarter of the masks predicts 4x cheaper, and the keep
  // ratio still multiplies on top.
  LatencyController::Config cfg;
  cfg.target_p95_ms = 10.0;
  LatencyController lc(core::PruneSettings::uniform(1, 0.f, 0.f), cfg);
  lc.set_cost_model({{.ewma_ms = 8.0, .prune_block = -1},
                     {.ewma_ms = 16.0, .group_frac = 0.25, .prune_block = 0}});
  EXPECT_NEAR(lc.predict_ms(0.f), 8.0 + 16.0 * 0.25, 1e-6);
  EXPECT_NEAR(lc.predict_ms(0.5f), 8.0 + 16.0 * 0.5 * 0.25, 1e-6);
}

TEST(LatencyController, CostModelUnreachableBudgetSaturates) {
  LatencyController::Config cfg;
  cfg.target_p95_ms = 1.0;  // below the 4 ms fixed floor
  cfg.window = 1;
  LatencyController lc(core::PruneSettings::uniform(1, 0.f, 0.f), cfg);
  lc.set_cost_model(
      {{.ewma_ms = 4.0, .prune_block = -1},
       {.ewma_ms = 16.0, .prune_block = 0, .prune_spatial = true}});
  lc.record_batch(20.0, kKeep, 1);
  EXPECT_FLOAT_EQ(lc.offset(), cfg.max_offset);
}

TEST(LatencyController, PricesARealPlanSnapshotLikePredictBatchMs) {
  // The controller keeps no cost model of its own: fed a real plan's
  // snapshot under uniform drops, its prediction is the plan's.
  Rng rng(21);
  auto net = models::make_model("vgg16", 10, 0.25f, rng);
  net->set_training(false);
  const float ch = 0.4f, sp = 0.3f;
  const auto base = core::PruneSettings::uniform(net->num_blocks(), ch, sp);
  core::DynamicPruningEngine engine(*net, base);
  Tensor x = Tensor::randn({4, 3, 32, 32}, rng);
  nn::ExecutionContext ctx;
  for (int pass = 0; pass < 3; ++pass) {
    ctx.begin_pass();
    net->forward(x, ctx);
  }
  const std::vector<plan::OpCost> snapshot =
      net->inference_plan(3, 32, 32).cost_snapshot();
  int timed_prunable = 0, spatial = 0;
  for (const plan::OpCost& op : snapshot) {
    if (op.prune_block < 0 || op.ewma_ms <= 0.0) continue;
    ++timed_prunable;
    if (op.prune_spatial) ++spatial;
  }
  ASSERT_GT(timed_prunable, 0);
  ASSERT_GT(spatial, 0);
  ASSERT_LT(spatial, timed_prunable);

  LatencyController lc(base, LatencyController::Config{});
  lc.set_cost_model(snapshot);
  const double want = plan::predict_batch_ms(snapshot, 1.0 - ch, 1.0 - sp);
  EXPECT_GT(want, 0.0);
  EXPECT_DOUBLE_EQ(lc.predict_ms(0.f), want);
  engine.remove();
}

TEST(LatencyController, HoldsStillInsideTheBand) {
  LatencyController::Config cfg;
  cfg.target_p95_ms = 10.0;
  cfg.low_watermark = 0.8;
  cfg.window = 2;
  LatencyController lc(core::PruneSettings::uniform(2, 0.2f, 0.f), cfg);
  for (int i = 0; i < 20; ++i) {
    lc.record_batch(9.0, kKeep, 1);  // inside [8, 10]: no adjustment
  }
  EXPECT_FLOAT_EQ(lc.offset(), 0.f);
}

TEST(LatencyController, ShedFreezesTighteningAndRecoveryGlides) {
  // Anti-windup: while admission control sheds, realized p95 reflects a
  // saturated queue, not a slow model — the integrator must not wind up.
  LatencyController::Config cfg;
  cfg.target_p95_ms = 10.0;
  cfg.low_watermark = 0.8;
  cfg.window = 1;
  cfg.step = 0.2f;
  cfg.recovery_decay = 0.5;
  LatencyController lc(core::PruneSettings::uniform(2, 0.1f, 0.f), cfg);

  // 2x over budget for five windows, every window shedding: without the
  // anti-windup clamp the offset would ratchet up 0.2 per window.
  for (int i = 0; i < 5; ++i) {
    lc.note_shed();
    lc.record_batch(20.0, kKeep, 1);
    EXPECT_FLOAT_EQ(lc.offset(), 0.f);
  }
  EXPECT_TRUE(lc.shedding_active());

  // Attack over but still over budget: glide at recovery_decay * step
  // instead of jumping, and stay in recovery until p95 re-enters the band.
  lc.record_batch(20.0, kKeep, 1);
  EXPECT_NEAR(lc.offset(), 0.5f * 0.2f, 1e-6f);
  EXPECT_TRUE(lc.shedding_active());

  // Inside the band: recovery completes...
  lc.record_batch(9.0, kKeep, 1);
  EXPECT_FALSE(lc.shedding_active());
  const float settled = lc.offset();
  // ...and the next over-budget window takes a full-speed step again.
  lc.record_batch(20.0, kKeep, 1);
  EXPECT_NEAR(lc.offset(), settled + 0.2f, 1e-6f);
}

// --- InferenceServer --------------------------------------------------------

ServerConfig small_config(int max_batch, std::chrono::microseconds max_wait,
                          int workers = 1) {
  ServerConfig config;
  config.policy.max_batch = max_batch;
  config.policy.max_wait = max_wait;
  config.policy.num_workers = workers;
  config.queue_capacity = 32;
  return config;
}

InferenceServer::ReplicaFactory small_cnn_factory(uint64_t seed = 7) {
  return [seed](int) {
    Rng rng(seed);
    return models::make_model("small_cnn", 4, 1.0f, rng);
  };
}

TEST(InferenceServer, CoalescesConcurrentRequestsUnderMaxWait) {
  InferenceServer server(small_cnn_factory(),
                         small_config(4, 200ms));
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(make_input(10 + i)));
  }
  // All three arrive well inside the 200ms hold window of the first batch.
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(f.get().batch_size, 3);
  }
  const ServerStats::Snapshot s = server.stats().snapshot();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_size_histogram[2], 1u);
}

TEST(InferenceServer, DispatchesLoneRequestAfterMaxWait) {
  InferenceServer server(small_cnn_factory(),
                         small_config(8, 30ms));
  auto future = server.submit(make_input(42));
  ASSERT_TRUE(future.valid());
  const InferenceResult r = future.get();
  EXPECT_EQ(r.batch_size, 1);  // max-wait expired; dispatched under-full
  EXPECT_GE(r.queue_ms + r.batch_ms, 0.0);
}

TEST(InferenceServer, DispatchesAtOnceAfterAQuietSpell) {
  InferenceServer server(small_cnn_factory(), small_config(8, 500ms));
  // A fresh worker holds its first batch for the whole max_wait.
  ASSERT_EQ(server.submit(make_input(42)).get().batch_size, 1);
  // 600 ms of quiet is longer than max_wait: no batch-mate is on its way,
  // so the next lone request is dispatched without waiting out a hold.
  std::this_thread::sleep_for(600ms);
  const InferenceResult r = server.submit(make_input(43)).get();
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_LT(r.queue_ms, 250.0);
}

TEST(InferenceServer, CoalescesCloseArrivalsAfterAQuietSpell) {
  InferenceServer server(small_cnn_factory(), small_config(2, 500ms));
  server.submit(make_input(42)).get();
  std::this_thread::sleep_for(600ms);
  // Three requests 10 ms apart: the first follows the quiet spell and rides
  // alone; the second follows it closely, so its batch holds and fills
  // with the third long before max_wait.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) std::this_thread::sleep_for(10ms);
    futures.push_back(server.submit(make_input(50 + i)));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  EXPECT_EQ(results[0].batch_size, 1);
  EXPECT_LT(results[0].queue_ms, 250.0);
  EXPECT_EQ(results[1].batch_size, 2);
  EXPECT_EQ(results[2].batch_size, 2);
  EXPECT_LT(results[1].queue_ms, 250.0);
}

TEST(InferenceServer, HoldCountersFollowTheArrivalGaps) {
  InferenceServer server(small_cnn_factory(), small_config(2, 300ms));
  // Fresh worker: held, and nothing arrives while it waits.
  server.submit(make_input(1)).get();
  std::this_thread::sleep_for(400ms);
  // After the quiet spell: dispatched at once, no hold.
  EXPECT_EQ(server.submit(make_input(2)).get().batch_size, 1);
  // Close behind it: held, and the wait catches the next request.
  auto a = server.submit(make_input(3));
  std::this_thread::sleep_for(50ms);
  auto b = server.submit(make_input(4));
  EXPECT_EQ(a.get().batch_size, 2);
  EXPECT_EQ(b.get().batch_size, 2);
  const ServerStats::Snapshot s = server.stats().snapshot();
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.held_batches, 2u);
  EXPECT_EQ(s.held_batches_filled, 1u);
}

TEST(InferenceServer, BatchedResultsMatchUnbatchedForward) {
  // Reference: the same architecture and weights, driven one sample at a
  // time without the serving stack.
  Rng ref_rng(7);
  auto reference = models::make_model("small_cnn", 4, 1.0f, ref_rng);
  reference->set_training(false);

  InferenceServer server(small_cnn_factory(/*seed=*/7),
                         small_config(4, 100ms));
  constexpr int kRequests = 6;
  std::vector<Tensor> inputs;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(make_input(100 + static_cast<uint64_t>(i)));
    futures.push_back(server.submit(inputs.back().clone()));
  }
  for (int i = 0; i < kRequests; ++i) {
    const InferenceResult r = futures[static_cast<size_t>(i)].get();
    // Reference forward of the same sample, batch dimension 1.
    std::vector<int> shape = {1};
    for (int d : inputs[static_cast<size_t>(i)].shape()) shape.push_back(d);
    Tensor single(shape);
    std::copy(inputs[static_cast<size_t>(i)].data(),
              inputs[static_cast<size_t>(i)].data() +
                  inputs[static_cast<size_t>(i)].size(),
              single.data());
    const Tensor expected = reference->forward(single);
    ASSERT_EQ(r.logits.size(), expected.size());
    for (int64_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(r.logits[k], expected[k], 1e-4f)
          << "request " << i << " logit " << k;
    }
  }
}

TEST(InferenceServer, PrunedBatchedResultsMatchUnbatchedPrunedForward) {
  Rng ref_rng(7);
  auto reference = models::make_model("small_cnn", 4, 1.0f, ref_rng);
  const core::PruneSettings settings =
      core::PruneSettings::uniform(reference->num_blocks(), 0.4f, 0.f);
  core::DynamicPruningEngine ref_engine(*reference, settings);
  reference->set_training(false);

  ServerConfig config = small_config(4, 100ms);
  config.prune = settings;
  InferenceServer server(small_cnn_factory(/*seed=*/7), config);

  constexpr int kRequests = 5;
  std::vector<Tensor> inputs;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(make_input(300 + static_cast<uint64_t>(i)));
    futures.push_back(server.submit(inputs.back().clone()));
  }
  for (int i = 0; i < kRequests; ++i) {
    const InferenceResult r = futures[static_cast<size_t>(i)].get();
    std::vector<int> shape = {1};
    for (int d : inputs[static_cast<size_t>(i)].shape()) shape.push_back(d);
    Tensor single(shape);
    std::copy(inputs[static_cast<size_t>(i)].data(),
              inputs[static_cast<size_t>(i)].data() +
                  inputs[static_cast<size_t>(i)].size(),
              single.data());
    const Tensor expected = reference->forward(single);
    for (int64_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(r.logits[k], expected[k], 1e-4f)
          << "request " << i << " logit " << k;
    }
  }
  ref_engine.remove();
}

TEST(InferenceServer, MismatchedShapesFailTheBatchNotTheServer) {
  InferenceServer server(small_cnn_factory(), small_config(4, 500ms));
  // Both land in one batch (500ms hold); stacking rejects the mix, the
  // batch's promises carry the exception, and the worker keeps serving.
  auto f1 = server.submit(make_input(1, 8));
  auto f2 = server.submit(make_input(2, 10));
  EXPECT_THROW(f1.get(), Error);
  EXPECT_THROW(f2.get(), Error);
  auto f3 = server.submit(make_input(3, 8));
  ASSERT_TRUE(f3.valid());
  EXPECT_EQ(f3.get().batch_size, 1);  // server survived the bad batch
}

TEST(InferenceServer, ConcurrentShutdownIsSafe) {
  InferenceServer server(small_cnn_factory(), small_config(2, 5ms));
  server.submit(make_input(4)).get();
  std::thread a([&] { server.shutdown(); });
  std::thread b([&] { server.shutdown(); });
  a.join();
  b.join();
  EXPECT_FALSE(server.submit(make_input(5)).valid());
}

TEST(InferenceServer, ShutdownRejectsNewWorkAndIsIdempotent) {
  InferenceServer server(small_cnn_factory(), small_config(2, 5ms));
  auto before = server.submit(make_input(1));
  ASSERT_TRUE(before.valid());
  before.get();
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_FALSE(server.submit(make_input(2)).valid());
  EXPECT_FALSE(server.try_submit(make_input(3)).valid());
}

TEST(InferenceServer, DeadlineMissesAreFlaggedAndCounted) {
  InferenceServer server(small_cnn_factory(), small_config(2, 5ms));
  // A deadline in the past is guaranteed missed but still answered.
  auto f = server.submit(make_input(9), Clock::now() - 1ms);
  const InferenceResult r = f.get();
  EXPECT_TRUE(r.deadline_missed);
  EXPECT_EQ(server.stats().snapshot().deadline_misses, 1u);
}

TEST(InferenceServer, ExpiredAtDequeueAnsweredUnexecuted) {
  InferenceServer server(small_cnn_factory(), small_config(2, 5ms));
  // Dead on arrival: the worker answers it at dequeue without running it.
  auto f = server.submit(make_input(9), Clock::now() - 1ms);
  const InferenceResult r = f.get();
  EXPECT_TRUE(r.deadline_missed);
  EXPECT_TRUE(r.expired_unexecuted);
  EXPECT_EQ(r.predicted, -1);
  EXPECT_EQ(r.batch_size, 0);
  const ServerStats::Snapshot s = server.stats().snapshot();
  EXPECT_EQ(s.expired_unexecuted, 1u);
  EXPECT_EQ(s.deadline_misses, 1u);  // expired is a subset of missed
}

TEST(InferenceServer, ComputeCapClampsMasksAndCountsCappedRequests) {
  Rng probe_rng(7);
  const int blocks =
      models::make_model("small_cnn", 4, 1.0f, probe_rng)->num_blocks();
  ServerConfig config = small_config(4, 50ms);
  config.prune = core::PruneSettings::uniform(blocks, 0.3f, 0.f);
  // Keep 0.7 per masked conv exceeds the 0.4 ceiling, so every masked
  // request's masks clamp; capped requests still execute and answer.
  config.compute_cap = 0.4;
  InferenceServer server(small_cnn_factory(), config);
  for (int i = 0; i < 6; ++i) {
    const InferenceResult r = server.submit(make_input(70 + i)).get();
    EXPECT_GE(r.predicted, 0);
  }
  EXPECT_GT(server.stats().snapshot().capped_requests, 0u);
}

TEST(InferenceServer, AdmissionControlRequiresLatencyController) {
  // Admission prices requests with the controller's cost model; enabling
  // it without a latency budget is a configuration error.
  ServerConfig config = small_config(2, 5ms);
  config.admission.enabled = true;
  EXPECT_THROW(InferenceServer(small_cnn_factory(), config), Error);
}

TEST(InferenceServer, LatencyControllerRequiresPruneSettings) {
  ServerConfig config = small_config(2, 5ms);
  config.latency = LatencyController::Config{};
  EXPECT_THROW(InferenceServer(small_cnn_factory(), config), Error);
}

TEST(InferenceServer, ControllerDecisionsReachTheReplicas) {
  ServerConfig config = small_config(2, 1ms);
  Rng probe_rng(7);
  const int blocks =
      models::make_model("small_cnn", 4, 1.0f, probe_rng)->num_blocks();
  config.prune = core::PruneSettings::uniform(blocks, 0.1f, 0.f);
  LatencyController::Config lc;
  lc.target_p95_ms = 1e-6;  // unreachably tight: every window tightens
  lc.window = 1;
  lc.step = 0.2f;
  config.latency = lc;
  InferenceServer server(small_cnn_factory(), config);

  for (int i = 0; i < 12; ++i) server.submit(make_input(50 + i)).get();
  ASSERT_NE(server.controller(), nullptr);
  EXPECT_GT(server.controller()->offset(), 0.2f);
  EXPECT_GT(server.controller()->p95_ms(), 0.0);
  // The posted ratios took effect: keep stats show harder pruning than the
  // 0.1-drop base settings alone would produce.
  const auto keep = server.controller()->keep_summary();
  EXPECT_LT(keep.mean_channel_keep, 0.9);
}

}  // namespace
}  // namespace antidote::serving
