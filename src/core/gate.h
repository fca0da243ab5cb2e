// AttentionGate — the runtime heart of AntiDote (paper Fig. 1).
//
// Installed at a ConvNet gate site, the gate observes the post-ReLU feature
// map between two convolutions and, per input sample:
//   1. computes channel attention (Eq. 1) and spatial attention (Eq. 2),
//   2. binarizes them into top-k keep sets at the configured drop ratios
//      (Eq. 3 / Eq. 4),
//   3. zeroes the dropped channels and spatial columns of the feature map.
//
// Phase behaviour follows the paper's training/testing co-design:
//   - training (TTD, Sec. IV): the gate acts as *targeted dropout* — the
//     masked map flows on densely so the backward pass works; gradients
//     are masked by the same binary mask (elementwise-multiply backward).
//   - eval (Sec. III): additionally, the kept channel set (and, when the
//     gate is spatially aligned with its consumer, the kept position set)
//     is forwarded to the consumer Conv2d as a runtime mask, so the next
//     layer *skips* the pruned computation and the FLOPs saving is real.
//
// A disabled gate is an exact identity (used to probe dense baselines).
//
// The compiled plan runs a masking gate in place (see masks_in_place):
// the producing conv step's fused epilogue writes the attention means into
// the gate's attention tensors while it writes the map, and the gate step
// then only selects, zeroes the dropped planes and positions of the
// producer's own buffer and hands the keep sets on. Masks, statistics,
// attention and the map are bitwise those of forward(x) at drop ratios
// with the same kept counts; the plan's per-request compute cap may lower
// those counts (see mask_in_place). Soft-mode, disabled and zero-ratio
// gates reach the plan through the nn::Module fallback (the plain
// forward).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "core/mask.h"
#include "nn/conv2d.h"
#include "nn/module.h"

namespace antidote::core {

// How the gate uses the attention coefficients.
//  - kHardTopK: the paper's method — binarize into keep sets, zero the rest
//    and skip the pruned computation downstream.
//  - kSoftSigmoid: the SENet-style mechanism the paper contrasts against
//    (Sec. III-A): multiply the map by sigmoid(attention) per channel /
//    per column. Reweights but removes nothing, so it saves no FLOPs —
//    implemented here to make that comparison runnable (ablation bench).
enum class GateMode { kHardTopK, kSoftSigmoid };

struct GateConfig {
  float channel_drop = 0.f;  // fraction of channels dropped per input
  float spatial_drop = 0.f;  // fraction of spatial columns dropped per input
  MaskOrder order = MaskOrder::kAttention;
  GateMode mode = GateMode::kHardTopK;
  uint64_t seed = 99;  // randomness for MaskOrder::kRandom
};

class AttentionGate : public nn::Gate {
 public:
  // `consumer` is the Conv2d fed by this gate's output (may be null: the
  // gate then only masks, e.g. at the last conv before the classifier).
  // `spatially_aligned` must be true only when the consumer sees the same
  // spatial grid it outputs (see ConvNet::gate_spatially_aligned).
  AttentionGate(GateConfig config, nn::Conv2d* consumer,
                bool spatially_aligned);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "AttentionGate"; }

  // --- nn::Gate ---
  void set_enabled(bool enabled) override { enabled_ = enabled; }
  bool enabled() const override { return enabled_; }

  // --- configuration ---
  void set_ratios(float channel_drop, float spatial_drop);
  void set_order(MaskOrder order) { config_.order = order; }
  void set_mode(GateMode mode) { config_.mode = mode; }
  const GateConfig& config() const { return config_; }
  bool spatially_aligned() const { return spatially_aligned_; }
  nn::Conv2d* consumer() const { return consumer_; }

  // When false, the gate never instructs the consumer to skip computation
  // (mask-only mode; the default true gives the paper's runtime saving).
  void set_forward_to_consumer(bool on) { forward_to_consumer_ = on; }

  // --- in-place masking (the compiled plan's gate step) ---
  // True when this pass masks in place: eval mode, enabled, hard top-k and
  // a non-zero drop ratio. Otherwise the plan runs forward(x).
  bool masks_in_place() const;
  // Where a fused epilogue writes this pass's attention for an [n, c, h, w]
  // map: the channel means [n, c] (ops::channel_mean_nchw_into's values)
  // when channels are pruned and the spatial means [n, h*w]
  // (ops::spatial_mean_nchw's) when positions are; a half that is not
  // pruned is null. Sizes the attention tensors, which only grow: a smaller
  // batch reuses the storage of a larger one.
  struct AttentionOut {
    float* channel = nullptr;
    float* spatial = nullptr;
  };
  AttentionOut attention_out(int n, int c, int h, int w);
  // Masks the [n, c, h, w] map `x` in place from the attention written
  // through attention_out this pass: selects each sample's keep sets,
  // zeroes its dropped planes and the dropped positions of its kept planes
  // and hands the keep sets to the consumer, allocation-free once warm.
  //
  // `compute_cap` (in (0, 1]; 1 = uncapped) bounds the share of the
  // consumer's MACs one sample may keep: kept channels / c, times kept
  // positions / (h*w) when the consumer is spatially aligned. When the
  // drop ratios' kept counts exceed it, channels drop to
  // floor(cap / position share * c), floored at one, and then, for an
  // aligned consumer still over the cap, positions drop the same way. A
  // pruned dimension keeps its top counts by attention; a dimension the
  // ratios leave whole keeps its lowest indices. The cap binds per gate,
  // not per input, so it lowers every sample or none (Stats::capped).
  // Without a consumer to hand masks to, the gate is never capped.
  void mask_in_place(Tensor& x, double compute_cap);

  // --- introspection (last forward pass) ---
  struct Stats {
    int samples = 0;
    int channels = 0;        // C of the gated map
    int positions = 0;       // H*W of the gated map
    int64_t kept_channels = 0;   // summed over samples
    int64_t kept_positions = 0;  // summed over samples
    int capped = 0;  // samples whose kept counts the compute cap lowered
  };
  const Stats& last_stats() const { return stats_; }
  // Per-sample keep sets of the last forward (empty halves = kept all).
  std::span<const nn::ConvRuntimeMask> last_masks() const {
    return {last_masks_.data(), static_cast<size_t>(stats_.samples)};
  }
  // Per-sample attention vectors of the last forward, for visualization:
  // [n, c] and [n, h, w] views of the gate's attention storage.
  Tensor last_channel_attention() const;
  Tensor last_spatial_attention() const;

 private:
  Tensor forward_soft(const Tensor& x);
  // Hands the pass's keep sets to the consumer when there is one to take
  // them: all of last_masks() for an aligned consumer, otherwise the
  // channel sets alone, staged in runtime_scratch_.
  void hand_to_consumer();

  GateConfig config_;
  nn::Conv2d* consumer_;
  bool spatially_aligned_;
  bool enabled_ = true;
  bool forward_to_consumer_ = true;
  Rng rng_;

  // Per-pass results. The in-place pass only grows the masks and the
  // attention, so they may hold entries past the last batch; the first
  // stats_.samples are this pass's.
  Stats stats_;
  std::vector<nn::ConvRuntimeMask> last_masks_;
  Tensor last_ch_att_;
  Tensor last_sp_att_;
  Tensor cached_mask_;  // binary mask of last forward, for backward

  // Reusable hot-path scratch (capacity persists across passes).
  SelectScratch select_scratch_;
  std::vector<int> dropped_scratch_;  // a sample's dropped positions
  std::vector<nn::ConvRuntimeMask> runtime_scratch_;
  // True after an in-place masking pass: backward must then fail loudly
  // (an empty cached_mask_ alone also means "was identity").
  bool masked_in_place_ = false;
};

}  // namespace antidote::core
