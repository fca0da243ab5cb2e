// RequestQueue — the admission edge of the serving runtime.
//
// Clients wrap a single input image into an InferenceRequest and submit it;
// they get back a std::future for the InferenceResult that a batch worker
// will eventually fulfill. The queue is a bounded MPMC queue (see
// base/mpmc_queue.h): when it is full, submit() blocks (closed-loop
// clients) and try_submit() fails fast (open-loop clients shed load). Every
// request carries a monotonically increasing ticket and an optional
// deadline; expired requests are still answered but flagged, so callers
// can distinguish "late" from "wrong".
//
// On top of the depth bound, the queue can run COST-AWARE admission
// control: given a per-request cost estimate (the server wires in the
// latency controller's cost-model prediction), a submit is shed when the
// predicted time to drain the queue including the new request exceeds the
// configured budget. Depth-only backpressure is blind to compute — under
// a hostile mix, one queue slot can hide 10x the work of another — while
// the cost gate keeps the admitted queue drainable within the budget no
// matter what the requests look like.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>

#include "base/mpmc_queue.h"
#include "tensor/tensor.h"

namespace antidote::serving {

using Clock = std::chrono::steady_clock;

// What a batch worker hands back for one request.
struct InferenceResult {
  Tensor logits;           // [num_classes]
  int predicted = -1;      // argmax of logits
  uint64_t ticket = 0;
  int batch_size = 0;      // size of the batch this request rode in
  double queue_ms = 0.0;   // submit -> picked up by a worker
  double batch_ms = 0.0;   // batch assembly + forward + scatter
  bool deadline_missed = false;
  // True when the deadline had already passed at dequeue and the request
  // was answered without running (logits empty, predicted == -1).
  bool expired_unexecuted = false;
};

struct InferenceRequest {
  Tensor input;  // [C, H, W] single sample
  uint64_t ticket = 0;
  Clock::time_point enqueue_time{};
  // No deadline when unset; the scheduler then never flags the request.
  std::optional<Clock::time_point> deadline;
  std::promise<InferenceResult> promise;
};

// Why an invalid future came back. kShed (admission control) and
// kRejected (queue full) are counted separately: shedding is a policy
// decision about predicted cost, rejection is raw backpressure.
enum class SubmitStatus { kAccepted, kShed, kRejected, kClosed };

// Cost-aware admission. Disabled by default: with enabled == false (or no
// cost function installed) the queue behaves exactly as before.
struct AdmissionConfig {
  bool enabled = false;
  // Shed when (depth + 1) * predicted_request_cost_ms > max_queue_ms.
  double max_queue_ms = 50.0;
};

class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity);

  // Installs/replaces the admission policy. `cost_ms` predicts the service
  // cost of one queued request in milliseconds; returning 0 (e.g. before
  // any latency signal exists) admits unconditionally. Thread-safe, but
  // intended to be called once at server construction.
  void configure_admission(AdmissionConfig config,
                           std::function<double()> cost_ms);

  // Blocking submit (closed-loop backpressure). Returns an invalid future
  // (valid() == false) once the queue is closed or the request is shed;
  // `status` (when non-null) says which.
  std::future<InferenceResult> submit(
      Tensor input, std::optional<Clock::time_point> deadline = std::nullopt,
      SubmitStatus* status = nullptr);

  // Non-blocking submit (open-loop load shedding). Invalid future when the
  // queue is full, shed, or closed; the outcome is counted and reported
  // through `status` when non-null.
  std::future<InferenceResult> try_submit(
      Tensor input, std::optional<Clock::time_point> deadline = std::nullopt,
      SubmitStatus* status = nullptr);

  // Consumer side (the batch scheduler). Semantics follow BoundedQueue.
  bool pop(InferenceRequest& out) { return queue_.pop(out); }
  bool try_pop(InferenceRequest& out) { return queue_.try_pop(out); }
  bool pop_until(InferenceRequest& out, Clock::time_point deadline) {
    return queue_.pop_until(out, deadline);
  }

  // Stops admission; queued requests remain poppable for draining.
  void close() { queue_.close(); }
  bool closed() const { return queue_.closed(); }

  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return queue_.capacity(); }
  uint64_t submitted() const;
  uint64_t rejected() const;
  uint64_t shed() const;

 private:
  InferenceRequest make_request(Tensor input,
                                std::optional<Clock::time_point> deadline);
  // True when admission control would refuse another request right now.
  bool admission_refuses() const;
  static void report(SubmitStatus* status, SubmitStatus value) {
    if (status != nullptr) *status = value;
  }

  BoundedQueue<InferenceRequest> queue_;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  mutable std::mutex admission_mutex_;  // guards the two fields below
  AdmissionConfig admission_;
  std::function<double()> admission_cost_ms_;
};

}  // namespace antidote::serving
