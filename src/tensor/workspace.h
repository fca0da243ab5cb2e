// Workspace — a growable bump arena for inference scratch memory.
//
// The inference hot path (im2col columns, packed GEMM panels, gathered
// weights, layer outputs) used to construct a fresh heap Tensor for every
// intermediate of every forward pass. A Workspace replaces those with
// pointer-bump allocations out of a reusable arena:
//
//   - alloc<T>(n) returns an uninitialized, 64-byte-aligned block. It only
//     touches the heap when the arena must grow; once the high-water mark
//     of a pass has been seen, every subsequent pass allocates from
//     recycled capacity and performs ZERO heap allocations.
//   - mark()/rewind(mark) give LIFO scopes: a layer can release its scratch
//     while keeping its output, so the arena's footprint tracks the peak
//     live set, not the sum of everything ever allocated.
//   - reset() rewinds everything for the next pass. If the previous pass
//     spilled into overflow blocks, reset() coalesces the arena into one
//     contiguous block of the total size, so growth converges after the
//     first pass (grow_count() goes quiet — asserted by tests/bench).
//
// A Workspace is single-threaded by design: one per ExecutionContext, one
// ExecutionContext per worker thread, never shared. Pointers obtained from
// the arena are invalidated by rewind()/reset() past their mark — the
// classic stack discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace antidote {

class Workspace {
 public:
  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // Uninitialized storage for `count` elements of trivially-destructible T,
  // aligned to kAlign. Valid until the enclosing rewind()/reset().
  template <typename T>
  T* alloc(int64_t count) {
    return reinterpret_cast<T*>(
        raw_alloc(static_cast<size_t>(count) * sizeof(T)));
  }
  float* alloc_floats(int64_t count) { return alloc<float>(count); }

  // Stack discipline over the bump pointer.
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };
  Mark mark() const { return Mark{current_, current_used()}; }
  void rewind(Mark m);

  // Rewinds everything and, if the last pass overflowed into extra blocks,
  // coalesces the arena into a single block of the combined size.
  void reset();

  // Ensures a single block can absorb `bytes` more bytes without growing,
  // allocating one block up front if needed (counted by grow_count()). An
  // executor that knows its pass footprint ahead of time calls this before
  // the first pass so no allocation ever happens mid-forward.
  void reserve(size_t bytes);

  // Turns this workspace into a non-owning FIXED-CAPACITY view over
  // `bytes` bytes at `buffer` (typically a slice carved out of another,
  // owning workspace): allocations bump inside the slice and exhausting
  // it is a hard error (AD_CHECK), never a growth — the caller's sizing
  // formula is the contract. Rebinding the same object to a new slice is
  // free of heap traffic (the one-entry block table is reused), which is
  // how the plan executor hands each pool worker a per-pass arena slice
  // of the reserved arena without allocating: bind, run, rebind next
  // pass. Only ever bind dedicated view objects — binding drops any owned
  // blocks. bind_external(nullptr, 0) pre-sizes the block table so even
  // the first real bind allocates nothing.
  void bind_external(void* buffer, size_t bytes);

  // --- introspection (tests, benches) ---
  size_t capacity_bytes() const;    // total bytes reserved across blocks
  size_t used_bytes() const;        // bytes handed out since last reset
  // The most bytes in use at once since construction, counted across
  // blocks (and across rebinds of a view): the measured high-water that an
  // ahead-of-time sizing formula must bound.
  size_t peak_bytes() const { return peak_bytes_; }
  size_t block_count() const { return blocks_.size(); }
  // Number of heap growths over the workspace's lifetime. Steady-state
  // inference must stop incrementing this after the first pass.
  int64_t grow_count() const { return grow_count_; }

  static constexpr size_t kAlign = 64;

  // The arena's allocation granularity: every raw_alloc rounds its size
  // up with exactly this function. Sizing code that predicts arena
  // footprints ahead of time (plan compiler, kernel scratch bounds) must
  // use it rather than a private copy, so a rounding change cannot
  // silently desynchronize them.
  static constexpr size_t align_up(size_t bytes) {
    return (bytes + kAlign - 1) & ~(kAlign - 1);
  }

 private:
  struct Block {
    char* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  char* raw_alloc(size_t bytes);
  void note_peak();  // raises peak_bytes_ to used_bytes()
  size_t current_used() const {
    return blocks_.empty() ? 0 : blocks_[current_].used;
  }

  std::vector<Block> blocks_;
  size_t current_ = 0;  // block being bump-allocated from
  int64_t grow_count_ = 0;
  size_t peak_bytes_ = 0;
  bool external_ = false;  // non-owning fixed view (bind_external)
};

// Per-thread fallback arena used by kernels and layers when the caller
// does not thread an ExecutionContext through (training, tests, ad-hoc
// calls). Callers must bracket use with mark()/rewind() — the arena is
// shared by everything on the thread and is never reset wholesale.
Workspace& thread_local_workspace();

}  // namespace antidote
