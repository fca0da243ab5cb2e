// Elementwise, reduction and selection operations on Tensors.
//
// In-place variants end with an underscore and mutate their first argument.
// All shape requirements are checked; mismatches throw antidote::Error.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace antidote::ops {

// --- elementwise (shapes must match exactly) ---
void add_(Tensor& a, const Tensor& b);             // a += b
void sub_(Tensor& a, const Tensor& b);             // a -= b
void mul_(Tensor& a, const Tensor& b);             // a *= b (Hadamard)
void scale_(Tensor& a, float s);                   // a *= s
void axpy_(Tensor& y, float alpha, const Tensor& x);  // y += alpha * x
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

// --- activations ---
Tensor relu(const Tensor& x);
// dx = dy where x > 0 else 0.
Tensor relu_backward(const Tensor& dy, const Tensor& x);

// --- reductions ---
float sum(const Tensor& x);
float mean(const Tensor& x);
float max_value(const Tensor& x);
float min_value(const Tensor& x);
// L2 norm of all elements.
float l2_norm(const Tensor& x);
float l1_norm(const Tensor& x);
// Mean of |x|.
float mean_abs(const Tensor& x);

// Per-channel spatial mean of an NCHW tensor: output shape [N, C].
// This is exactly the paper's channel-attention coefficient (Eq. 1).
Tensor channel_mean_nchw(const Tensor& x);
// Per-location channel mean of an NCHW tensor: output shape [N, H, W].
// This is exactly the paper's spatial-attention coefficient (Eq. 2).
Tensor spatial_mean_nchw(const Tensor& x);
// Allocation-free variant of channel_mean_nchw writing into caller
// storage ([N*C] floats), for the plan's global-average-pool step.
void channel_mean_nchw_into(const Tensor& x, float* out);

// --- selection ---
// Index of the maximum in each row of a [N, K] tensor (ties -> lowest idx).
std::vector<int> argmax_rows(const Tensor& logits);
// Indices of the k largest values (descending by value, ties -> lowest
// index first, deterministic). Requires 0 <= k <= values.size().
std::vector<int> topk_indices(std::span<const float> values, int k);
// Reusable-buffer variant: `scratch` and `out` keep their capacity across
// calls, so a steady-shape caller stops allocating after warm-up. Result
// identical to topk_indices.
void topk_indices_into(std::span<const float> values, int k,
                       std::vector<int>& scratch, std::vector<int>& out);

// --- classification helpers ---
// Row-wise softmax of a [N, K] tensor.
Tensor softmax_rows(const Tensor& logits);
// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, std::span<const int> labels);

// --- comparisons (testing utilities) ---
// Max absolute difference between two same-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace antidote::ops
