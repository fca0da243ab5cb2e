// BatchScheduler — micro-batching worker pool of the serving runtime.
//
// Each worker owns a ModelReplica (a ConvNet plus, when pruning is on, a
// DynamicPruningEngine) so forward passes never share mutable model state
// and need no locking. The batching policy is a max-batch / max-wait pair:
// a worker blocks for the first request and takes whatever is already
// queued behind it, up to max_batch. It holds an under-full batch open only
// while arrivals can fill it: when the first request arrived less than
// max_wait after the previous request this worker popped (and on the
// worker's very first batch). A hold lasts until the batch is full or
// max_wait has passed since the first pickup. After a longer quiet spell
// the worker dispatches at once, so a lone request does not wait out
// max_wait for a batch-mate that is not coming. The worker then stacks the
// inputs into one [N,C,H,W] forward and scatters the logits back through
// the per-request promises.
//
// Between batches the worker applies any settings the LatencyController
// posted (DynamicPruningEngine::apply_pending_settings), which is how the
// controller's drop-ratio decisions reach the replicas without stopping
// the world.
//
// Each replica serves through its model's compiled InferencePlan (the
// ConvNet context forward): conv+BN+ReLU run as fused steps out of the
// replica's arena, and the plan's measured per-op timings are distilled
// into the LatencyController's cost model after every batch, giving the
// controller a real latency model instead of a blind EWMA.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "models/convnet.h"
#include "serving/latency_controller.h"
#include "serving/request_queue.h"
#include "serving/server_stats.h"

namespace antidote::serving {

struct BatchPolicy {
  int max_batch = 8;
  // The longest a worker holds an under-full batch open after the first
  // pickup, and the arrival gap below which it holds at all: a batch whose
  // first request came max_wait or more after the previous one this worker
  // popped is dispatched with what is already queued.
  std::chrono::microseconds max_wait{2000};
  int num_workers = 1;
};

// A worker's private model. The replica puts the net in eval mode (serving
// never trains) and installs the pruning engine when settings are given.
// It also owns the worker's ExecutionContext: forward passes run out of
// the replica's workspace arena. On the replica's first batch the
// scheduler compiles its plan for that input shape and reserves the arena
// and the plan's per-pass storage at BatchPolicy::max_batch, so the arena
// is one block of the exact size whatever order batch sizes arrive in, and
// steady-state serving performs zero heap allocations per pass. The
// context is single-threaded by contract — exactly one worker drives a
// replica.
class ModelReplica {
 public:
  ModelReplica(std::unique_ptr<models::ConvNet> net,
               const std::optional<core::PruneSettings>& prune);
  ~ModelReplica();

  models::ConvNet& net() { return *net_; }
  // Null when the replica serves densely (no pruning engine installed).
  core::DynamicPruningEngine* engine() { return engine_.get(); }
  nn::ExecutionContext& context() { return context_; }
  // The replica's compiled plan (null until the first batch fixes the
  // input shape and triggers compilation).
  plan::InferencePlan* plan() { return net_->current_plan(); }

 private:
  std::unique_ptr<models::ConvNet> net_;
  std::unique_ptr<core::DynamicPruningEngine> engine_;
  nn::ExecutionContext context_;
};

class BatchScheduler {
 public:
  // `on_settings_changed` fires on the worker thread whose batch closed a
  // control window that moved the drop offset; the server uses it to post
  // the new settings to every replica. `controller` and the callback may
  // be null (fixed-ratio serving).
  BatchScheduler(RequestQueue& queue, BatchPolicy policy,
                 std::vector<std::unique_ptr<ModelReplica>> replicas,
                 ServerStats& stats, LatencyController* controller,
                 std::function<void()> on_settings_changed);
  ~BatchScheduler();

  // Spawns one thread per replica. Workers exit when the queue is closed
  // and drained.
  void start();
  // Blocks until every worker has exited (close the queue first).
  void join();

  const BatchPolicy& policy() const { return policy_; }
  std::vector<std::unique_ptr<ModelReplica>>& replicas() { return replicas_; }

 private:
  void worker_loop(int worker_index);
  // If the request's deadline already passed, answers it with a flagged
  // unexecuted result (no logits, predicted == -1) and returns true; the
  // caller must then not add it to a batch.
  bool expire_if_dead(InferenceRequest& req);
  void run_batch(int worker_index, ModelReplica& replica,
                 std::vector<InferenceRequest>& batch, BatchHold hold);

  RequestQueue* queue_;
  const BatchPolicy policy_;
  std::vector<std::unique_ptr<ModelReplica>> replicas_;
  ServerStats* stats_;
  LatencyController* controller_;
  std::function<void()> on_settings_changed_;
  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace antidote::serving
