// 2-d convolution (NCHW, square kernel, symmetric padding) lowered to GEMM
// via im2col, with optional *sparse runtime execution*:
//
// Before a forward pass, a caller (AntiDote's dynamic pruning gate) may
// install per-sample runtime masks naming which input channels and which
// output spatial positions to compute. The layer then gathers only the kept
// channels/positions into the GEMM, scatters results back (pruned positions
// stay zero) and reports the actually executed multiply-accumulates, so
// measured FLOPs reductions are real savings rather than bookkeeping.
// Masks apply to exactly one forward pass and are consumed by it.
//
// The layer has one forward: the module walk that training, the FLOPs
// prober and the equivalence tests run. It draws every scratch buffer
// (im2col columns, gathered weights, staging outputs, index sets) from
// the per-thread workspace and returns a heap tensor. Allocation-free
// inference is the compiled InferencePlan's job (see src/plan/): it takes
// the pending masks through take_runtime_masks() and runs the shared
// kernels in nn/conv_kernels.h itself.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "nn/module.h"
#include "tensor/im2col.h"

namespace antidote::nn {

// Per-sample sparse-execution instruction for one forward pass.
struct ConvRuntimeMask {
  // Kept input-channel indices, strictly increasing. Empty = keep all.
  std::vector<int> channels;
  // Kept *input* spatial columns (flattened h*w+x), strictly increasing.
  // Empty = keep all. Executed with an input-stationary shift-GEMM that
  // computes exactly conv(input with the other columns zeroed) while
  // performing only keep-ratio x dense MACs. Only valid when the
  // convolution preserves the spatial grid (stride 1 and 2 * pad ==
  // k - 1, so out size == in for every input); set_runtime_masks
  // rejects positions on any other conv.
  std::vector<int> positions;
  // Kept output-filter indices, strictly increasing. Empty = keep all.
  // Used by *static* filter pruning, where the producing layer also skips
  // its pruned filters (dynamic attention pruning cannot: the attention is
  // computed from the full feature map).
  std::vector<int> out_channels;
};

class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel_size, int stride = 1,
         int padding = 0, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Conv2d"; }
  int64_t last_macs() const override { return last_macs_; }

  // --- sparse runtime execution ---
  // Installs per-sample masks for the next forward pass only. The span
  // size must equal the batch size of that forward. Backward through a
  // masked forward is not supported (masking is a test-phase mechanism).
  // The masks are copied into internal storage that only grows, so
  // serving stops allocating here once a batch as large as any later one
  // has run.
  void set_runtime_masks(std::span<const ConvRuntimeMask> masks);
  bool has_pending_masks() const { return pending_count_ > 0; }

  // --- plan-executor interface ---
  // Consumes the pending per-sample masks exactly as a forward pass would
  // (masks apply to one pass only) and returns a view of them; empty when
  // none are pending. The view stays valid until the next set_runtime_masks
  // call on this layer.
  std::span<const ConvRuntimeMask> take_runtime_masks();
  // Records an execution performed outside the module (the InferencePlan
  // runs the shared kernels itself): keeps last_macs()/introspection
  // consistent and clears the backward cache so a stale backward() fails
  // loudly.
  void note_external_execution(int64_t macs, bool masked);

  // --- introspection ---
  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel_size() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  bool has_bias() const { return has_bias_; }
  // Dense MACs for one sample given an input height/width.
  int64_t dense_macs_per_sample(int in_h, int in_w) const;

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  void check_masks(std::span<const ConvRuntimeMask> masks) const;
  Tensor forward_dense(const Tensor& x);
  Tensor forward_masked(const Tensor& x,
                        std::span<const ConvRuntimeMask> masks);

  int in_c_, out_c_, k_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;  // [out_c, in_c, k, k]
  Parameter bias_;    // [out_c] (unused when has_bias_ == false)

  // set_runtime_masks fills the leading pending_count_ elements; the next
  // forward (or take_runtime_masks) reads them in place and zeroes the
  // count. The vector never shrinks — stale elements, including those past
  // a smaller batch, stay behind as warm storage so the per-pass
  // copy-assign reuses their inner vectors' capacity.
  std::vector<ConvRuntimeMask> pending_masks_;
  size_t pending_count_ = 0;
  bool last_forward_was_masked_ = false;
  Tensor cached_input_;  // for backward
  int64_t last_macs_ = 0;
};

}  // namespace antidote::nn
