#include "core/gate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "base/error.h"
#include "core/attention.h"
#include "tensor/ops.h"

namespace antidote::core {

AttentionGate::AttentionGate(GateConfig config, nn::Conv2d* consumer,
                             bool spatially_aligned)
    : config_(config),
      consumer_(consumer),
      spatially_aligned_(spatially_aligned),
      rng_(config.seed) {
  set_ratios(config.channel_drop, config.spatial_drop);
}

void AttentionGate::set_ratios(float channel_drop, float spatial_drop) {
  AD_CHECK(channel_drop >= 0.f && channel_drop <= 1.f)
      << " channel drop " << channel_drop;
  AD_CHECK(spatial_drop >= 0.f && spatial_drop <= 1.f)
      << " spatial drop " << spatial_drop;
  config_.channel_drop = channel_drop;
  config_.spatial_drop = spatial_drop;
}

namespace {
float sigmoid(float v) { return 1.f / (1.f + std::exp(-v)); }

// True when `t` holds at least shape[0] rows of the trailing dims of
// `shape`.
bool holds_rows(const Tensor& t, Shape shape) {
  if (t.ndim() != static_cast<int>(shape.size()) || t.dim(0) < shape[0]) {
    return false;
  }
  shape[0] = t.dim(0);
  return t.shape() == shape;
}

// The first `rows` rows of `t`; all of it when it has no more, or when
// `rows` is 0 (an identity pass leaves the last attention in place).
Tensor leading_rows(const Tensor& t, int rows) {
  return t.empty() || rows == 0 || t.dim(0) <= rows ? t : t.first_rows(rows);
}

// Lowers a pass's kept counts to the compute cap (see mask_in_place):
// channels first, floored at one, then positions when the consumer sees
// this grid. Returns whether the counts were over the cap.
bool cap_kept_counts(double cap, int c, int hw, bool aligned, int& k_ch,
                     int& k_pos) {
  const double pos_share = aligned ? static_cast<double>(k_pos) / hw : 1.0;
  if (static_cast<double>(k_ch) / c * pos_share <= cap) return false;
  k_ch = std::clamp(static_cast<int>(std::floor(cap / pos_share * c)), 1,
                    k_ch);
  const double ch_share = static_cast<double>(k_ch) / c;
  if (aligned && ch_share * pos_share > cap) {
    k_pos = std::clamp(static_cast<int>(std::floor(cap / ch_share * hw)), 1,
                       k_pos);
  }
  return true;
}

// The `k` lowest indices: the keep set of a dimension the cap lowers but
// the drop ratios leave whole.
void keep_lowest(int k, std::vector<int>& kept) {
  kept.resize(static_cast<size_t>(k));
  std::iota(kept.begin(), kept.end(), 0);
}
}  // namespace

Tensor AttentionGate::last_channel_attention() const {
  return leading_rows(last_ch_att_, stats_.samples);
}

Tensor AttentionGate::last_spatial_attention() const {
  return leading_rows(last_sp_att_, stats_.samples);
}

Tensor AttentionGate::forward_soft(const Tensor& x) {
  // SENet-style reweighting: out = x * sigmoid(A_channel) * sigmoid(A_spatial)
  // broadcast over the matching dimensions. No pruning, no consumer masks.
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int hw = h * w;
  last_ch_att_ = channel_attention(x);
  last_sp_att_ = spatial_attention(x);

  cached_mask_ = Tensor::ones(x.shape());  // holds the smooth scale map
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float ch_scale = sigmoid(last_ch_att_.at({b, ch}));
      float* mplane =
          cached_mask_.data() + (static_cast<int64_t>(b) * c + ch) * hw;
      const float* att_plane =
          last_sp_att_.data() + static_cast<int64_t>(b) * hw;
      for (int j = 0; j < hw; ++j) {
        mplane[j] = ch_scale * sigmoid(att_plane[j]);
      }
    }
  }
  stats_ = Stats{};
  stats_.samples = n;
  stats_.channels = c;
  stats_.positions = hw;
  stats_.kept_channels = static_cast<int64_t>(n) * c;  // nothing removed
  stats_.kept_positions = static_cast<int64_t>(n) * hw;
  last_masks_.assign(static_cast<size_t>(n), nn::ConvRuntimeMask{});
  return ops::mul(x, cached_mask_);
}

Tensor AttentionGate::forward(const Tensor& x) {
  masked_in_place_ = false;
  AD_CHECK_EQ(x.ndim(), 4) << " AttentionGate expects NCHW";
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int hw = h * w;

  const bool prune_channels = config_.channel_drop > 0.f;
  const bool prune_spatial = config_.spatial_drop > 0.f;
  if (!enabled_ || (!prune_channels && !prune_spatial)) {
    // Exact identity; reset per-pass state (zero samples exposes no masks)
    // so stale masks never leak.
    stats_ = Stats{};
    cached_mask_ = Tensor();
    return x;
  }
  if (config_.mode == GateMode::kSoftSigmoid) return forward_soft(x);

  stats_ = Stats{};
  stats_.samples = n;
  stats_.channels = c;
  stats_.positions = hw;
  last_masks_.assign(static_cast<size_t>(n), nn::ConvRuntimeMask{});

  if (prune_channels) last_ch_att_ = channel_attention(x);
  if (prune_spatial) last_sp_att_ = spatial_attention(x);

  Tensor out = x.clone();
  cached_mask_ = Tensor::ones(x.shape());

  for (int b = 0; b < n; ++b) {
    nn::ConvRuntimeMask& sample_mask = last_masks_[static_cast<size_t>(b)];

    if (prune_channels) {
      std::span<const float> att(
          last_ch_att_.data() + static_cast<int64_t>(b) * c,
          static_cast<size_t>(c));
      sample_mask.channels =
          select_kept(att, config_.channel_drop, config_.order, rng_);
      stats_.kept_channels +=
          static_cast<int64_t>(sample_mask.channels.size());
      // Zero dropped channel planes (in both output and the backward mask).
      const std::vector<uint8_t> keep =
          kept_to_mask(sample_mask.channels, c);
      for (int ch = 0; ch < c; ++ch) {
        if (keep[static_cast<size_t>(ch)]) continue;
        float* plane =
            out.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        float* mplane =
            cached_mask_.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        for (int j = 0; j < hw; ++j) {
          plane[j] = 0.f;
          mplane[j] = 0.f;
        }
      }
    } else {
      stats_.kept_channels += c;
    }

    if (prune_spatial) {
      std::span<const float> att(
          last_sp_att_.data() + static_cast<int64_t>(b) * hw,
          static_cast<size_t>(hw));
      sample_mask.positions =
          select_kept(att, config_.spatial_drop, config_.order, rng_);
      stats_.kept_positions +=
          static_cast<int64_t>(sample_mask.positions.size());
      // Zero dropped columns across every channel.
      const std::vector<uint8_t> keep =
          kept_to_mask(sample_mask.positions, hw);
      for (int ch = 0; ch < c; ++ch) {
        float* plane =
            out.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        float* mplane =
            cached_mask_.data() + (static_cast<int64_t>(b) * c + ch) * hw;
        for (int j = 0; j < hw; ++j) {
          if (!keep[static_cast<size_t>(j)]) {
            plane[j] = 0.f;
            mplane[j] = 0.f;
          }
        }
      }
    } else {
      stats_.kept_positions += hw;
    }
  }

  // Test phase: hand the keep sets to the consumer so it skips the pruned
  // computation. (Training keeps dense math for the backward pass — the
  // gate then behaves exactly as the paper's targeted dropout.)
  if (!is_training()) hand_to_consumer();
  return out;
}

void AttentionGate::hand_to_consumer() {
  if (!forward_to_consumer_ || consumer_ == nullptr) return;
  if (spatially_aligned_) {
    consumer_->set_runtime_masks(last_masks());
    return;
  }
  // Positions cannot be skipped downstream; strip them into the reusable,
  // grow-only staging vector first.
  const size_t n = static_cast<size_t>(stats_.samples);
  if (runtime_scratch_.size() < n) runtime_scratch_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    nn::ConvRuntimeMask& m = runtime_scratch_[b];
    m.channels = last_masks_[b].channels;
    m.positions.clear();
    m.out_channels.clear();
  }
  consumer_->set_runtime_masks(
      std::span<const nn::ConvRuntimeMask>(runtime_scratch_.data(), n));
}

bool AttentionGate::masks_in_place() const {
  return !is_training() && enabled_ && config_.mode == GateMode::kHardTopK &&
         (config_.channel_drop > 0.f || config_.spatial_drop > 0.f);
}

AttentionGate::AttentionOut AttentionGate::attention_out(int n, int c, int h,
                                                         int w) {
  AttentionOut out;
  if (config_.channel_drop > 0.f) {
    if (!holds_rows(last_ch_att_, {n, c})) last_ch_att_ = Tensor({n, c});
    out.channel = last_ch_att_.data();
  }
  if (config_.spatial_drop > 0.f) {
    if (!holds_rows(last_sp_att_, {n, h, w})) {
      last_sp_att_ = Tensor({n, h, w});
    }
    out.spatial = last_sp_att_.data();
  }
  return out;
}

void AttentionGate::mask_in_place(Tensor& x, double compute_cap) {
  AD_CHECK(masks_in_place()) << " in-place masking needs a masking pass";
  AD_CHECK_EQ(x.ndim(), 4) << " AttentionGate expects NCHW";
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int hw = h * w;
  const bool prune_channels = config_.channel_drop > 0.f;
  const bool prune_spatial = config_.spatial_drop > 0.f;
  AD_CHECK(!prune_channels || holds_rows(last_ch_att_, {n, c}))
      << " channel attention not written for this map";
  AD_CHECK(!prune_spatial || holds_rows(last_sp_att_, {n, h, w}))
      << " spatial attention not written for this map";

  // Every sample keeps the same counts: the drop ratios', lowered to the
  // compute cap when a consumer runs from these keep sets.
  int k_ch = kept_count(c, config_.channel_drop);
  int k_pos = kept_count(hw, config_.spatial_drop);
  const bool capped =
      forward_to_consumer_ && consumer_ != nullptr &&
      cap_kept_counts(compute_cap, c, hw, spatially_aligned_, k_ch, k_pos);
  const bool select_channels = prune_channels || k_ch < c;
  const bool select_positions = prune_spatial || k_pos < hw;

  stats_ = Stats{};
  stats_.samples = n;
  stats_.channels = c;
  stats_.positions = hw;
  stats_.kept_channels = static_cast<int64_t>(n) * k_ch;
  stats_.kept_positions = static_cast<int64_t>(n) * k_pos;
  stats_.capped = capped ? n : 0;
  // Grow-only (never assign or shrink): each element keeps its vectors and
  // their capacity across batch sizes; every field of the first n is
  // rewritten or cleared below.
  if (last_masks_.size() < static_cast<size_t>(n)) {
    last_masks_.resize(static_cast<size_t>(n));
  }
  cached_mask_ = Tensor();  // inference: no backward cache
  masked_in_place_ = true;

  for (int b = 0; b < n; ++b) {
    nn::ConvRuntimeMask& sample_mask = last_masks_[static_cast<size_t>(b)];
    sample_mask.out_channels.clear();

    if (prune_channels) {
      std::span<const float> att(
          last_ch_att_.data() + static_cast<int64_t>(b) * c,
          static_cast<size_t>(c));
      select_kept_into(att, k_ch, config_.order, rng_, select_scratch_,
                       sample_mask.channels);
    } else if (select_channels) {
      keep_lowest(k_ch, sample_mask.channels);
    } else {
      sample_mask.channels.clear();
    }

    dropped_scratch_.clear();
    if (select_positions) {
      if (prune_spatial) {
        std::span<const float> att(
            last_sp_att_.data() + static_cast<int64_t>(b) * hw,
            static_cast<size_t>(hw));
        select_kept_into(att, k_pos, config_.order, rng_, select_scratch_,
                         sample_mask.positions);
      } else {
        keep_lowest(k_pos, sample_mask.positions);
      }
      // The complement of the ascending kept positions.
      const std::vector<int>& kept_pos = sample_mask.positions;
      size_t next = 0;
      for (int j = 0; j < hw; ++j) {
        if (next < kept_pos.size() && kept_pos[next] == j) {
          ++next;
        } else {
          dropped_scratch_.push_back(j);
        }
      }
    } else {
      sample_mask.positions.clear();
    }

    // Zero what forward(x) zeroes: every dropped channel plane, and the
    // dropped positions of the kept ones. Kept values stay where they are.
    // The kept channel list is ascending, so a cursor walks it.
    const std::vector<int>& kept_ch = sample_mask.channels;
    size_t next = 0;
    for (int ch = 0; ch < c; ++ch) {
      float* plane = x.data() + (static_cast<int64_t>(b) * c + ch) * hw;
      const bool keep_plane = !select_channels || (next < kept_ch.size() &&
                                                   kept_ch[next] == ch);
      if (select_channels && keep_plane) ++next;
      if (!keep_plane) {
        std::memset(plane, 0, static_cast<size_t>(hw) * sizeof(float));
      } else {
        for (int j : dropped_scratch_) plane[j] = 0.f;
      }
    }
  }

  hand_to_consumer();
}

Tensor AttentionGate::backward(const Tensor& grad_out) {
  AD_CHECK(!masked_in_place_)
      << " backward after an in-place (inference) AttentionGate pass";
  if (cached_mask_.empty()) return grad_out;  // was identity
  return ops::mul(grad_out, cached_mask_);
}

}  // namespace antidote::core
