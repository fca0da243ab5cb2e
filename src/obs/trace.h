// Phase tracing: zero-alloc per-worker trace rings + Chrome trace export.
//
// The plan executor's EWMA cost model answers "how long does op k take on
// average"; it cannot answer "which PHASE of op k is slow" or "did worker
// 3 straggle while workers 0-2 idled at the batch barrier". This tracer
// records phase spans (im2col/gather, panel pack, GEMM, epilogue, scatter,
// whole step, per-group worker execution) into per-thread rings and
// exports them two ways: a Chrome trace-event JSON timeline (load in
// chrome://tracing or ui.perfetto.dev — cross-group parallelism and
// stragglers become visually obvious) and an aggregated per-op/per-phase
// table (`plan-dump --profile`).
//
// Design constraints, in order:
//
//   1. The hot path's no-heap-allocation guarantee must survive with
//      tracing ENABLED. Tracer::enable() preallocates every ring before
//      the pass starts; recording is "claim thread slot (one fetch_add,
//      first span only), clock, write 64 bytes into the ring". Rings
//      overwrite oldest on wrap (wrapped() reports how much) rather than
//      ever growing.
//   2. Compiled-in but runtime-off must be free: PhaseScope's constructor
//      is one relaxed atomic load and a branch. Compiled-out
//      (ANTIDOTE_PROFILE=0) it is an empty object the optimizer deletes.
//   3. One writer per ring — the owning thread — so recording needs no
//      synchronization at all. Readers (export/aggregate) run only after
//      passes quiesce; enable()/disable()/clear() likewise must not race
//      running passes.
//
// Each TraceEvent is exactly one cache line so a span write dirties a
// single line of the ring and neighboring events never false-share.
//
// Hardware counters ride along optionally (enable(..., with_counters)):
// each span then brackets a CounterSet read. Opening the per-thread
// counter group is lazy and does one-time syscalls — cheap, but it is why
// counter collection is opt-in per trace run rather than free with
// tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/perf_counters.h"

namespace antidote::obs {

enum class Phase : uint8_t {
  kStep = 0,      // one whole plan op (wall time on the driving thread)
  kGroup,         // one mask group executed by a pool/caller worker
  kIm2col,        // dense im2col lowering
  kGather,        // masked gather (rows or positions)
  kPack,          // kept-filter panel packed into the group's workspace
  kGemm,          // the GEMM itself
  kEpilogue,      // fused bias+activation epilogue
  kScatter,       // masked scatter back to dense output
  kQuant,         // int8 dynamic activation quantization
  kTile,          // one output-position tile of a spatially-tiled conv
  kCount,
};

const char* phase_name(Phase p);

inline int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One phase span. Exactly 64 bytes (one cache line).
struct TraceEvent {
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  uint64_t ctr[static_cast<int>(CounterId::kCount)] = {};  // deltas
  int32_t op = -1;           // plan op index, -1 when outside a plan
  uint8_t phase = 0;         // Phase
  uint8_t ctr_valid = 0;     // HwCounters::valid for ctr[]
  uint16_t reserved = 0;
};
static_assert(sizeof(TraceEvent) == 64, "TraceEvent must be one cache line");

// Fixed-capacity single-writer ring; overwrites the oldest event when
// full, never allocates after reserve().
class TraceRing {
 public:
  void reserve(size_t capacity) {
    events_.assign(capacity, TraceEvent{});
    head_ = size_ = 0;
    wrapped_ = 0;
  }
  void clear() {
    head_ = size_ = 0;
    wrapped_ = 0;
  }
  void push(const TraceEvent& e) {
    if (events_.empty()) return;
    events_[head_] = e;
    head_ = head_ + 1 == events_.size() ? 0 : head_ + 1;
    if (size_ < events_.size()) {
      ++size_;
    } else {
      ++wrapped_;
    }
  }
  size_t capacity() const { return events_.size(); }
  size_t size() const { return size_; }
  // Events overwritten because the ring was full (the tail you lost).
  uint64_t wrapped() const { return wrapped_; }
  // i-th surviving event, oldest first.
  const TraceEvent& chronological(size_t i) const {
    const size_t start = size_ < events_.size() ? 0 : head_;
    const size_t idx = start + i;
    return events_[idx < events_.size() ? idx : idx - events_.size()];
  }

 private:
  std::vector<TraceEvent> events_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t wrapped_ = 0;
};

// Aggregated view of one (op, phase) cell across all workers.
struct PhaseStat {
  int op = -1;
  Phase phase = Phase::kStep;
  uint64_t calls = 0;
  double total_ms = 0.0;            // summed across workers (CPU time)
  std::vector<double> slot_ms;      // per trace slot
  int active_slots = 0;             // slots with nonzero time
  double max_slot_ms = 0.0;
  HwCounters counters;              // accumulated deltas
  uint64_t counter_calls = 0;       // spans that carried counters
};

class Tracer {
 public:
  static constexpr size_t kDefaultEventsPerWorker = 1 << 14;

  static Tracer& instance();

  // Preallocates one ring per anticipated thread (caller + pool workers +
  // slack) and arms recording. Returns false when profiling is compiled
  // out (ANTIDOTE_PROFILE=0). Must not race running passes.
  bool enable(size_t events_per_worker = kDefaultEventsPerWorker,
              bool with_counters = false);
  void disable();
  bool enabled() const;
  bool counters_enabled() const {
    return counters_on_.load(std::memory_order_relaxed);
  }

  // Drops recorded events but keeps rings + thread-slot claims (so a
  // warmup pass can be discarded without re-enabling).
  void clear();

  int slots_in_use() const {
    const int n = next_slot_.load(std::memory_order_relaxed);
    return n < static_cast<int>(slots_.size()) ? n
                                               : static_cast<int>(slots_.size());
  }
  uint64_t total_events() const;
  // Spans lost: ring wraps plus spans from threads beyond the slot supply.
  uint64_t dropped_events() const;
  const TraceRing& ring(int slot) const { return slots_[slot].ring; }

  // Chrome trace-event JSON ("X" duration events, µs timebase, one tid
  // per trace slot). op_name labels events (falls back to "op<k>").
  bool write_chrome_trace(
      const std::string& path,
      const std::function<std::string(int)>& op_name = nullptr) const;

  // Collapses all rings into per-(op, phase) stats, ops ascending, phases
  // in enum order. Offline use only (allocates).
  std::vector<PhaseStat> aggregate() const;

  // --- hot path (called via PhaseScope) ---
  // The calling thread's ring, claiming a slot on first use (one relaxed
  // fetch_add, no allocation). nullptr when out of slots or disabled.
  TraceRing* ring_for_this_thread();

 private:
  Tracer() = default;
  struct alignas(64) Slot {
    TraceRing ring;
  };
  std::vector<Slot> slots_;
  std::atomic<int> next_slot_{0};
  std::atomic<uint64_t> no_slot_drops_{0};
  std::atomic<bool> counters_on_{false};
  std::atomic<uint64_t> generation_{0};
};

namespace detail {
// Global arm flag, out of line from the Tracer so the disabled fast path
// never touches the (potentially cold) singleton.
inline std::atomic<bool> g_trace_active{false};
inline thread_local int tls_current_op = -1;
}  // namespace detail

inline bool trace_active() {
  return detail::g_trace_active.load(std::memory_order_relaxed);
}

#if ANTIDOTE_PROFILE

inline void set_current_op(int op) { detail::tls_current_op = op; }
inline int current_op() { return detail::tls_current_op; }

// Establishes "which plan op is executing" for the calling thread so
// kernel-level PhaseScopes (which do not know their op index) attribute
// correctly. Restores the previous op on destruction (nesting-safe).
class ScopedOp {
 public:
  explicit ScopedOp(int op) : prev_(detail::tls_current_op) {
    detail::tls_current_op = op;
  }
  ~ScopedOp() { detail::tls_current_op = prev_; }
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  int prev_;
};

// RAII span recorder. Constructor cost when tracing is off: one relaxed
// load + branch. When on: slot lookup + clock read (+ optional counter
// read); destructor mirrors it and pushes one event. Never allocates.
class PhaseScope {
 public:
  static constexpr int kUseCurrentOp = -2;

  explicit PhaseScope(Phase phase, int op = kUseCurrentOp) {
    if (!trace_active()) return;
    begin(phase, op);
  }
  ~PhaseScope() {
    if (ring_ != nullptr) finish();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void begin(Phase phase, int op);  // out of line: trace.cc
  void finish();                    // out of line: trace.cc

  TraceRing* ring_ = nullptr;
  int64_t t0_ns_ = 0;
  HwCounters begin_counters_;
  int32_t op_ = -1;
  Phase phase_ = Phase::kStep;
  bool have_counters_ = false;
};

#else  // !ANTIDOTE_PROFILE

inline void set_current_op(int) {}
inline int current_op() { return -1; }

class ScopedOp {
 public:
  explicit ScopedOp(int) {}
};

class PhaseScope {
 public:
  static constexpr int kUseCurrentOp = -2;
  explicit PhaseScope(Phase, int = kUseCurrentOp) {}
};

#endif  // ANTIDOTE_PROFILE

}  // namespace antidote::obs
