#include "serving/batch_scheduler.h"

#include <cstring>
#include <utility>

#include "base/error.h"
#include "base/timer.h"
#include "plan/plan.h"

namespace antidote::serving {

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

int argmax_row(const float* row, int n) {
  int best = 0;
  for (int i = 1; i < n; ++i) {
    if (row[i] > row[best]) best = i;
  }
  return best;
}

}  // namespace

ModelReplica::ModelReplica(std::unique_ptr<models::ConvNet> net,
                           const std::optional<core::PruneSettings>& prune)
    : net_(std::move(net)) {
  AD_CHECK(net_ != nullptr) << " replica needs a model";
  net_->set_training(false);
  if (prune.has_value()) {
    engine_ = std::make_unique<core::DynamicPruningEngine>(*net_, *prune);
  }
}

ModelReplica::~ModelReplica() {
  if (engine_) engine_->remove();
}

BatchScheduler::BatchScheduler(
    RequestQueue& queue, BatchPolicy policy,
    std::vector<std::unique_ptr<ModelReplica>> replicas, ServerStats& stats,
    LatencyController* controller, std::function<void()> on_settings_changed)
    : queue_(&queue),
      policy_(policy),
      replicas_(std::move(replicas)),
      stats_(&stats),
      controller_(controller),
      on_settings_changed_(std::move(on_settings_changed)) {
  AD_CHECK_GT(policy_.max_batch, 0);
  AD_CHECK_GT(policy_.num_workers, 0);
  AD_CHECK_EQ(static_cast<int>(replicas_.size()), policy_.num_workers)
      << " one replica per worker";
  if (controller_ != nullptr) {
    for (auto& r : replicas_) {
      AD_CHECK(r->engine() != nullptr)
          << " latency control needs pruning engines on every replica";
    }
  }
}

BatchScheduler::~BatchScheduler() {
  queue_->close();
  join();
}

void BatchScheduler::start() {
  AD_CHECK(!started_) << " scheduler already started";
  started_ = true;
  workers_.reserve(replicas_.size());
  for (int i = 0; i < static_cast<int>(replicas_.size()); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void BatchScheduler::join() {
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void BatchScheduler::worker_loop(int worker_index) {
  ModelReplica& replica = *replicas_[static_cast<size_t>(worker_index)];
  std::vector<InferenceRequest> batch;
  batch.reserve(static_cast<size_t>(policy_.max_batch));
  // Arrival time of the last request this worker popped; empty until its
  // first pop, so a fresh worker holds its first batch.
  std::optional<Clock::time_point> last_arrival;
  while (true) {
    InferenceRequest first;
    if (!queue_->pop(first)) break;  // closed and drained
    stats_->record_queue_depth(queue_->depth());
    // Hold an under-full batch only while arrivals can fill it: the first
    // request came less than max_wait after the previous one. After a
    // longer gap a hold would only delay the lone request by max_wait.
    const bool hold = !last_arrival.has_value() ||
                      first.enqueue_time - *last_arrival < policy_.max_wait;
    last_arrival = first.enqueue_time;
    // Dead on arrival at the worker: a request whose deadline passed while
    // it sat in the queue would only burn a batch slot producing an answer
    // nobody can use — answer it unexecuted and move on. Under a burst
    // attack this is what keeps stale backlog from starving live traffic.
    if (expire_if_dead(first)) continue;
    const Clock::time_point hold_until = Clock::now() + policy_.max_wait;
    batch.clear();
    batch.push_back(std::move(first));
    // Batch size when the worker first found the queue empty mid-hold;
    // 0 while it has not.
    size_t held_at = 0;
    while (static_cast<int>(batch.size()) < policy_.max_batch) {
      InferenceRequest next;
      if (!queue_->try_pop(next)) {
        if (!hold) break;
        if (held_at == 0) held_at = batch.size();
        if (!queue_->pop_until(next, hold_until)) break;
      }
      last_arrival = next.enqueue_time;
      if (expire_if_dead(next)) continue;
      batch.push_back(std::move(next));
    }
    const BatchHold held = held_at == 0              ? BatchHold::kNone
                           : batch.size() > held_at ? BatchHold::kHeldFilled
                                                    : BatchHold::kHeld;
    try {
      run_batch(worker_index, replica, batch, held);
    } catch (...) {
      // A bad batch (e.g. mismatched input shapes) must not take the
      // worker down: fail that batch's promises and keep serving.
      // run_batch fulfills promises only as its last step, so on any
      // throw every promise in the batch is still unsatisfied.
      for (InferenceRequest& req : batch) {
        req.promise.set_exception(std::current_exception());
      }
    }
  }
}

bool BatchScheduler::expire_if_dead(InferenceRequest& req) {
  const Clock::time_point now = Clock::now();
  if (!req.deadline.has_value() || now <= *req.deadline) return false;
  InferenceResult result;
  result.predicted = -1;
  result.ticket = req.ticket;
  result.batch_size = 0;
  result.queue_ms = ms_between(req.enqueue_time, now);
  result.deadline_missed = true;
  result.expired_unexecuted = true;
  // An expired request is both a deadline miss (the caller-visible flag)
  // and, distinctly, never executed.
  stats_->record_deadline_miss(1);
  stats_->record_expired_unexecuted(1);
  req.promise.set_value(std::move(result));
  return true;
}

void BatchScheduler::run_batch(int worker_index, ModelReplica& replica,
                               std::vector<InferenceRequest>& batch,
                               BatchHold hold) {
  const int n = static_cast<int>(batch.size());
  const Clock::time_point dispatch = Clock::now();

  // Pick up any controller decision posted since the last batch.
  if (replica.engine() != nullptr) {
    replica.engine()->apply_pending_settings();
  }
  WallTimer assemble_timer;
  const Shape& sample_shape = batch[0].input.shape();
  Shape batch_shape;
  batch_shape.push_back(n);
  for (int d : sample_shape) batch_shape.push_back(d);
  // The batch tensor, every layer intermediate and the logits all live in
  // the worker's arena; begin_pass() recycles it wholesale, so a warm
  // worker serves without touching the heap. The logits are copied into
  // per-request results below, before the next pass invalidates them.
  nn::ExecutionContext& ctx = replica.context();
  if (replica.plan() == nullptr) {
    // First batch: compile the plan for this input shape and reserve the
    // arena at max_batch, so its size does not depend on the order in which
    // batch sizes arrive.
    replica.net()
        .inference_plan(sample_shape[0], sample_shape[1], sample_shape[2])
        .reserve(ctx.workspace(), policy_.max_batch);
  }
  ctx.begin_pass();
  Tensor stacked = ctx.alloc(batch_shape);
  const int64_t sample_size = batch[0].input.size();
  for (int i = 0; i < n; ++i) {
    AD_CHECK(batch[static_cast<size_t>(i)].input.same_shape(batch[0].input))
        << " all requests in a batch must share the input shape";
    std::memcpy(stacked.data() + i * sample_size,
                batch[static_cast<size_t>(i)].input.data(),
                static_cast<size_t>(sample_size) * sizeof(float));
  }
  const double assemble_ms = assemble_timer.millis();

  WallTimer forward_timer;
  Tensor logits = replica.net().forward(stacked, ctx);
  const double forward_ms = forward_timer.millis();
  AD_CHECK_EQ(logits.dim(0), n) << " model output batch dimension";
  const int num_classes = static_cast<int>(logits.size() / n);

  core::DynamicPruningEngine::KeepStats keep;
  if (replica.engine() != nullptr) {
    keep = replica.engine()->last_keep_stats();
  }

  WallTimer scatter_timer;
  const Clock::time_point done = Clock::now();
  std::vector<InferenceResult> results(static_cast<size_t>(n));
  double queue_wait_sum_ms = 0.0;
  int misses = 0;
  for (int i = 0; i < n; ++i) {
    const InferenceRequest& req = batch[static_cast<size_t>(i)];
    InferenceResult& result = results[static_cast<size_t>(i)];
    result.logits = Tensor({num_classes});
    std::memcpy(result.logits.data(), logits.data() + i * num_classes,
                static_cast<size_t>(num_classes) * sizeof(float));
    result.predicted = argmax_row(result.logits.data(), num_classes);
    result.ticket = req.ticket;
    result.batch_size = n;
    result.queue_ms = ms_between(req.enqueue_time, dispatch);
    result.batch_ms = ms_between(dispatch, done);
    result.deadline_missed = req.deadline.has_value() && done > *req.deadline;
    queue_wait_sum_ms += result.queue_ms;
    // Per-request latency distributions (lock-free histogram buckets):
    // e2e is everything from enqueue to batch completion.
    stats_->record_request(result.queue_ms,
                           result.queue_ms + result.batch_ms);
    if (result.deadline_missed) ++misses;
  }
  const double scatter_ms = scatter_timer.millis();

  stats_->record_batch(n, queue_wait_sum_ms / n, assemble_ms, forward_ms,
                       scatter_ms, hold);
  // Arena high-water mark after the pass: on a warm replica this is flat
  // batch over batch (zero growths), and under tiled lowering it stays
  // bounded even at 224x224 inputs — the snapshot surfaces both.
  stats_->record_arena_bytes(worker_index,
                             replica.context().workspace().capacity_bytes());
  if (misses > 0) stats_->record_deadline_miss(misses);
  if (const plan::InferencePlan* plan = replica.plan()) {
    // Requests whose masks the executor clamped to the compute cap this
    // pass (max over ops: a request capped anywhere counts once).
    if (const int capped = plan->last_capped_samples(); capped > 0) {
      stats_->record_capped(capped);
    }
    // Distinct-mask group count of the pass (how many compacted GEMM
    // problems the dynamic masks quantized into) — the grouping win the
    // batch actually realized.
    if (const int groups = plan->last_mask_groups(); groups > 0) {
      stats_->record_mask_groups(groups, n);
      // Coarsening outcome of the same pass: how many exact-identity
      // buckets the union merges collapsed, and the extra-MAC overhead
      // the merged schedule accepted for it.
      stats_->record_coarsen(plan->last_mask_groups_raw(), groups,
                             plan->last_coarsen_extra_mac_frac());
    }
  }

  if (controller_ != nullptr) {
    // Periodically refresh the controller's latency model with the plan's
    // measured per-op timings. The controller only consumes it when a
    // control window closes and the timings are EWMA-smoothed anyway, so
    // a per-worker cadence (seeded on the first batch) keeps the
    // snapshot+lock cost off the per-batch path.
    thread_local int64_t batches_since_refresh = 0;
    if (batches_since_refresh++ % 8 == 0) {
      if (const plan::InferencePlan* plan = replica.plan()) {
        controller_->set_cost_model(plan->cost_snapshot());
      }
    }
    const double batch_latency_ms = assemble_ms + forward_ms + scatter_ms;
    if (controller_->record_batch(batch_latency_ms, keep, n) &&
        on_settings_changed_) {
      on_settings_changed_();
    }
  }

  // Fulfill promises last: a ready future therefore implies the batch is
  // already visible in stats and controller state.
  for (int i = 0; i < n; ++i) {
    batch[static_cast<size_t>(i)].promise.set_value(
        std::move(results[static_cast<size_t>(i)]));
  }
}

}  // namespace antidote::serving
