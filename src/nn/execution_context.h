// ExecutionContext — per-worker state for the allocation-free inference
// hot path.
//
// The context path is the compiled plan: models::ConvNet::forward(x, ctx)
// runs its InferencePlan, which draws every activation and kernel scratch
// buffer from this context's arena. Layers have one forward (the plain
// module walk); the only modules the plan hands the context to are gates
// without an in-place path, through nn::Module's context overload.
//
// Ownership rules (see docs/architecture.md):
//   - One ExecutionContext per thread that runs forward passes. NEVER
//     share a context between threads: the workspace is an unsynchronized
//     bump arena.
//   - The driver (serving worker, bench loop, evaluator) calls
//     begin_pass() before each top-level ConvNet::forward(x, ctx). That
//     rewinds the arena, which invalidates every tensor the PREVIOUS pass
//     borrowed from it — copy results out before starting the next pass.
//   - Context forwards are inference-only: in training mode ConvNet falls
//     back to the plain forward(x), whose heap semantics are unchanged.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace antidote::nn {

class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Workspace& workspace() { return workspace_; }

  // Starts a new inference pass: rewinds the arena (invalidating all
  // tensors handed out by the previous pass on this context).
  void begin_pass() {
    workspace_.reset();
    ++passes_;
  }
  int64_t passes() const { return passes_; }

  // Uninitialized tensor borrowed from the arena; valid until the next
  // begin_pass(). Performs no heap allocation once the arena is warm.
  Tensor alloc(Shape shape) {
    int64_t n = 1;
    for (int d : shape) n *= d;
    return Tensor::borrow(workspace_.alloc_floats(n), shape);
  }

 private:
  Workspace workspace_;
  int64_t passes_ = 0;
};

}  // namespace antidote::nn
