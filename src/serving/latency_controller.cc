#include "serving/latency_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/error.h"

namespace antidote::serving {

LatencyController::LatencyController(core::PruneSettings base, Config config)
    : config_(config), base_(std::move(base)) {
  AD_CHECK_GT(config_.target_p95_ms, 0.0);
  AD_CHECK_GT(config_.window, 0);
  AD_CHECK_GT(config_.step, 0.f);
  AD_CHECK(config_.low_watermark > 0.0 && config_.low_watermark < 1.0)
      << " low_watermark must be in (0, 1)";
  AD_CHECK_LE(config_.min_offset, config_.max_offset);
  AD_CHECK(config_.recovery_decay >= 0.0 && config_.recovery_decay <= 1.0)
      << " recovery_decay is a per-window fraction";
  // The cost model indexes both ratio vectors by the same block id.
  AD_CHECK_EQ(base_.channel_drop.size(), base_.spatial_drop.size())
      << " per-block drop vectors must be the same length";
  window_.reserve(static_cast<size_t>(config_.window));
}

double LatencyController::percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  idx = std::min(std::max<size_t>(idx, 1), values.size());
  return values[idx - 1];
}

void LatencyController::set_cost_model(std::vector<plan::OpCost> costs) {
  std::lock_guard<std::mutex> lock(mutex_);
  costs_ = std::move(costs);
}

bool LatencyController::has_cost_model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !costs_.empty();
}

double LatencyController::predict_ms(float offset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return predict_ms_locked(offset);
}

double LatencyController::predict_ms_locked(float offset) const {
  double total = 0.0;
  for (const plan::OpCost& op : costs_) {
    if (op.prune_block < 0 ||
        op.prune_block >= static_cast<int>(base_.channel_drop.size())) {
      total += op.ewma_ms;  // no settings block scales it: fixed cost
      continue;
    }
    const size_t b = static_cast<size_t>(op.prune_block);
    const float ch =
        std::clamp(base_.channel_drop[b] + offset, 0.f, config_.max_drop);
    const float sp =
        std::clamp(base_.spatial_drop[b] + offset, 0.f, config_.max_drop);
    total += plan::predict_op_ms(op, 1.0 - ch, 1.0 - sp);
  }
  return total;
}

float LatencyController::solve_offset_locked(double calibration) const {
  // predict is monotone nonincreasing in the offset, so bisect for the
  // smallest offset whose calibrated prediction meets the budget (prune
  // no harder than the budget demands).
  const double target = config_.target_p95_ms;
  float lo = config_.min_offset, hi = config_.max_offset;
  if (calibration * predict_ms_locked(hi) > target) return hi;
  if (calibration * predict_ms_locked(lo) <= target) return lo;
  for (int i = 0; i < 40; ++i) {
    const float mid = 0.5f * (lo + hi);
    if (calibration * predict_ms_locked(mid) <= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

core::PruneSettings LatencyController::settings_locked() const {
  core::PruneSettings s = base_;
  for (float& v : s.channel_drop) v += offset_;
  for (float& v : s.spatial_drop) v += offset_;
  for (core::SiteOverride& o : s.site_overrides) {
    o.channel_drop += offset_;
    o.spatial_drop += offset_;
  }
  return s.clamped(config_.max_drop);
}

bool LatencyController::record_batch(
    double batch_latency_ms,
    const core::DynamicPruningEngine::KeepStats& keep, int batch_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  window_.push_back(batch_latency_ms);
  keep_channel_sum_ += keep.mean_channel_keep * batch_size;
  keep_spatial_sum_ += keep.mean_spatial_keep * batch_size;
  keep_samples_ += static_cast<uint64_t>(batch_size);
  if (static_cast<int>(window_.size()) < config_.window) return false;

  last_window_p95_ms_ = percentile(window_, 0.95);
  smoothed_p95_ms_ = smoothed_p95_ms_ == 0.0
                         ? last_window_p95_ms_
                         : 0.5 * smoothed_p95_ms_ + 0.5 * last_window_p95_ms_;
  window_.clear();

  const float before = offset_;
  const double target = config_.target_p95_ms;
  float proposed = before;
  if (last_window_p95_ms_ > target ||
      last_window_p95_ms_ < config_.low_watermark * target) {
    const double predicted =
        costs_.empty() ? 0.0 : predict_ms_locked(offset_);
    if (predicted > 0.0) {
      // Cost-model inversion: calibrate the model against the realized
      // p95 (absorbing batching/queueing overhead the per-op timings miss)
      // and jump to the smallest offset whose prediction meets the budget.
      proposed = solve_offset_locked(last_window_p95_ms_ / predicted);
    } else {
      // Proportional step: large misses move fast, near-misses fine-tune.
      const double error =
          std::clamp((last_window_p95_ms_ - target) / target, -1.0, 1.0);
      proposed = before + config_.step * static_cast<float>(error);
    }
    proposed = std::clamp(proposed, config_.min_offset, config_.max_offset);
  }

  const uint64_t sheds = sheds_pending_.exchange(0, std::memory_order_relaxed);
  if (sheds > 0) {
    // Anti-windup: admission control shed load during this window, so the
    // queue — not the model — is saturated and the realized p95 overstates
    // what pruning can fix. Tightening further would wind the integrator
    // to max_offset and destroy accuracy without clearing the overload;
    // hold the offset (relaxing is still allowed).
    shedding_active_ = true;
    offset_ = std::min(proposed, before);
  } else if (shedding_active_) {
    // Recovery: the attack stopped. Glide toward the normal decision
    // instead of jumping, so the post-attack relaxation cannot overshoot
    // into a new overload; back to full-speed control once p95 re-enters
    // the band.
    offset_ = before +
              static_cast<float>(config_.recovery_decay) * (proposed - before);
    const bool in_band = last_window_p95_ms_ <= target &&
                         last_window_p95_ms_ >= config_.low_watermark * target;
    if (in_band) shedding_active_ = false;
  } else {
    offset_ = proposed;
  }
  return offset_ != before;
}

bool LatencyController::shedding_active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shedding_active_;
}

double LatencyController::predicted_request_cost_ms(int max_batch,
                                                    int workers) const {
  AD_CHECK_GT(max_batch, 0);
  AD_CHECK_GT(workers, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  // Per-batch cost spread over a full batch and the worker pool: the
  // steady-state marginal cost of one more queued request.
  const double per_slot = static_cast<double>(max_batch) * workers;
  if (!costs_.empty()) {
    const double batch_ms = predict_ms_locked(offset_);
    if (batch_ms > 0.0) return batch_ms / per_slot;
  }
  return smoothed_p95_ms_ / per_slot;  // 0 before the first window closes
}

core::PruneSettings LatencyController::settings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return settings_locked();
}

float LatencyController::offset() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return offset_;
}

double LatencyController::p95_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_window_p95_ms_;
}

double LatencyController::smoothed_p95_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return smoothed_p95_ms_;
}

void LatencyController::reset_keep_summary() {
  std::lock_guard<std::mutex> lock(mutex_);
  keep_channel_sum_ = keep_spatial_sum_ = 0.0;
  keep_samples_ = 0;
}

LatencyController::KeepSummary LatencyController::keep_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  KeepSummary s;
  s.samples = keep_samples_;
  if (keep_samples_ > 0) {
    s.mean_channel_keep =
        keep_channel_sum_ / static_cast<double>(keep_samples_);
    s.mean_spatial_keep =
        keep_spatial_sum_ / static_cast<double>(keep_samples_);
  }
  return s;
}

}  // namespace antidote::serving
