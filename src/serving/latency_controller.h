// LatencyController — closes the loop between realized batch latency and
// the dynamic-pruning drop ratios.
//
// AntiDote's gates make per-input FLOPs a runtime knob; following the
// latency-aware framing of Han et al. (dynamic networks must be judged by
// realized latency, not FLOPs), the controller holds a *latency budget*
// rather than a FLOPs target. Workers report every completed batch; once a
// window of batches has accumulated the controller compares the window's
// p95 against the budget and moves a scalar "drop offset" proportionally
// to the relative error: up (prune more, run faster) when p95 overshoots
// the budget, down (prune less, keep accuracy) when p95 sits below the low
// watermark. Inside [low_watermark * target, target] the controller holds
// still — that band is the served steady state, comfortably inside a
// +/-25% tolerance around the budget. The offset is added to the
// operator-supplied base PruneSettings per block and clamped via
// PruneSettings::clamped, so the shipped settings never leave
// [0, max_drop].
//
// With a *cost model* attached — a replica plan's cost_snapshot(), which
// the BatchScheduler hands over as is: measured per-op step times plus
// which settings block's drop ratios scale each op — the controller stops
// walking the offset blindly: it calibrates the model against the
// realized p95 and inverts it — picking the smallest drop offset whose
// predicted latency meets the budget — so it converges in one or two
// windows instead of many proportional steps. Each op is priced by
// plan::predict_op_ms, the formula behind plan::predict_batch_ms, so the
// controller keeps no latency model of its own. Without a cost model the
// original EWMA/proportional behaviour is unchanged.
//
// The controller is pure feedback — it never touches a model — which keeps
// it deterministic and testable: feed it synthetic latencies (and
// optionally a synthetic cost model) and it must converge. The server
// wires its output to every replica's engine through
// DynamicPruningEngine::post_settings.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/engine.h"
#include "plan/plan.h"

namespace antidote::serving {

class LatencyController {
 public:
  struct Config {
    double target_p95_ms = 10.0;
    // Relax (prune less) only when p95 < low_watermark * target, so the
    // controller does not oscillate inside the acceptable band.
    double low_watermark = 0.8;
    int window = 16;     // batches per control decision
    // Max drop-offset change per decision; the actual step scales with the
    // relative latency error, so adjustments shrink near the budget.
    float step = 0.1f;
    float max_drop = 0.9f;
    // Offset range: [min_offset, max_offset]. A negative min lets the
    // controller prune *less* than the operator's base settings when the
    // budget is loose.
    float min_offset = -0.9f;
    float max_offset = 0.9f;
    // Anti-windup recovery: after windows in which admission control shed
    // load, the offset integrator is frozen against further tightening
    // (the queue, not the model, is saturated — winding the offset to
    // max_drop would only destroy accuracy without fixing the overload).
    // Once shedding stops, the offset moves only this fraction of the way
    // toward each new decision per window until p95 re-enters the band,
    // so a post-attack server relaxes smoothly instead of overshooting.
    double recovery_decay = 0.5;
  };

  // `base` is the operator's per-block starting point (block count must
  // match the served model).
  LatencyController(core::PruneSettings base, Config config);

  // Installs/refreshes the cost model, a plan's cost_snapshot()
  // (thread-safe; any worker may call it between batches as plan timings
  // accumulate). Ops whose prune_block names no settings block are fixed
  // cost.
  void set_cost_model(std::vector<plan::OpCost> costs);
  bool has_cost_model() const;
  // Predicted batch latency at a hypothetical drop offset under the
  // current (uncalibrated) cost model: each op priced by
  // plan::predict_op_ms at its block's keep ratios; 0 without a model.
  // Exposed for tests and diagnostics.
  double predict_ms(float offset) const;

  // Thread-safe. Records one completed batch; when this closes a control
  // window and the decision moved the drop offset, returns true — the
  // caller should then fetch settings() and post them to the replicas.
  bool record_batch(double batch_latency_ms,
                    const core::DynamicPruningEngine::KeepStats& keep,
                    int batch_size);

  // Admission control shed a request. Lock-free; the next window close
  // consumes the count and freezes the offset integrator (anti-windup).
  void note_shed() { sheds_pending_.fetch_add(1, std::memory_order_relaxed); }
  // True from the first shed-affected window until p95 re-enters the band
  // with no shedding — the span over which recovery decay applies.
  bool shedding_active() const;

  // Predicted service cost of ONE request in milliseconds at the current
  // offset: the cost-model batch prediction amortized over a full batch
  // across `workers` concurrent replicas, falling back to the smoothed
  // p95 when no model is attached yet. 0 before any latency signal exists
  // (callers should admit unconditionally then). This is the cost
  // function the server hands to RequestQueue admission control.
  double predicted_request_cost_ms(int max_batch, int workers) const;

  // Current target settings (base + offset, clamped). Thread-safe copy.
  core::PruneSettings settings() const;
  float offset() const;
  // p95 of the most recently completed window (0 until one completes).
  double p95_ms() const;
  // Exponentially smoothed p95 across windows — the steadier figure to
  // report against the budget.
  double smoothed_p95_ms() const;
  const Config& config() const { return config_; }

  // Accuracy proxy: mean keep ratios reported by the gates, averaged over
  // every recorded batch (weighted by batch size).
  struct KeepSummary {
    double mean_channel_keep = 1.0;
    double mean_spatial_keep = 1.0;
    uint64_t samples = 0;
  };
  KeepSummary keep_summary() const;
  // Zeroes the keep accumulators (control state is untouched) so a load
  // run can report steady-state keep ratios, excluding warm-up batches.
  void reset_keep_summary();

 private:
  core::PruneSettings settings_locked() const;  // requires mutex_ held
  double predict_ms_locked(float offset) const;
  // Smallest offset whose calibrated prediction meets the budget.
  float solve_offset_locked(double calibration) const;
  static double percentile(std::vector<double> values, double q);

  const Config config_;
  const core::PruneSettings base_;
  mutable std::mutex mutex_;
  std::vector<plan::OpCost> costs_;
  std::atomic<uint64_t> sheds_pending_{0};
  bool shedding_active_ = false;  // guarded by mutex_
  float offset_ = 0.f;
  double last_window_p95_ms_ = 0.0;
  double smoothed_p95_ms_ = 0.0;
  std::vector<double> window_;
  double keep_channel_sum_ = 0.0;
  double keep_spatial_sum_ = 0.0;
  uint64_t keep_samples_ = 0;
};

}  // namespace antidote::serving
