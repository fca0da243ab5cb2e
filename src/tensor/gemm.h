// Single-precision GEMM kernels for the convolution and linear layers.
//
// Three explicit layout variants avoid materializing transposed copies in
// the backward pass:
//   gemm_nn: C[M,N] = alpha * A[M,K]   * B[K,N]   + beta * C
//   gemm_nt: C[M,N] = alpha * A[M,K]   * B[N,K]^T + beta * C
//   gemm_tn: C[M,N] = alpha * A[K,M]^T * B[K,N]   + beta * C
// All matrices are row-major and densely packed (ld == row length).
//
// gemm_nn — the inference workhorse (dense and masked conv both lower to
// it) — is a cache-blocked, register-tiled kernel: A row panels and B
// column panels are packed into contiguous buffers drawn from a Workspace
// arena (caller-provided, or a thread-local fallback), the K dimension is
// processed in L2-sized slabs, and row panels are distributed over the
// global thread pool. The accumulation order per C element is identical to
// the naive kernel's (ascending k), so results are deterministic and
// independent of blocking and thread count.
//
// gemm_nt keeps per-element double-precision accumulation over the full K
// range (register-tiled, rows parallelized); gemm_tn streams k outermost
// within parallel row chunks. All variants are bitwise-reproducible across
// runs for fixed inputs.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace antidote {

// Columns of one packed B panel, the width of gemm_nn's register tile. A
// narrower B runs entirely on the micro-kernel's scalar edge tile.
inline constexpr int kGemmPanelCols = 16;

// `ws` provides scratch for the packed panels; pass the ExecutionContext
// workspace on the inference hot path so steady-state packing performs no
// heap allocation. nullptr falls back to a thread-local arena.
void gemm_nn(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c, Workspace* ws = nullptr);

// Exact number of arena bytes gemm_nn(m, n, k, ...) draws for its packed
// panels (0 when the problem is small enough for the unpacked kernel).
// The plan compiler uses this to size inference arenas ahead of the first
// forward pass, so the bound must track the implementation exactly.
size_t gemm_nn_scratch_bytes(int m, int n, int k);
void gemm_nt(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c);
void gemm_tn(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c);

// [M,K] x [K,N] -> [M,N] convenience wrapper over 2-d tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace antidote
