// ServerStats — counters the serving runtime accumulates while it runs:
// throughput, queue depth, a batch-size histogram, per-stage timings
// (queue wait, batch assembly, forward, scatter) and per-request latency
// DISTRIBUTIONS. Stage means survive for cheap stages, but the metrics an
// SLO is written against — queue wait, forward, end-to-end — are tracked
// as log-scale histograms (obs::LatencyHistogram) so snapshot() reports
// p50/p95/p99, not just a mean that hides the tail. Histogram recording is
// lock-free; the remaining counters share a small mutex. snapshot() gives
// a consistent copy and to_table() renders it through base/table.h the
// same way the benches render paper tables.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/table.h"
#include "obs/histogram.h"

namespace antidote::serving {

// Whether a batch's worker waited on an empty queue before dispatching it
// (a hold, see BatchPolicy::max_wait), and whether a request arrived while
// it waited.
enum class BatchHold { kNone, kHeld, kHeldFilled };

class ServerStats {
 public:
  explicit ServerStats(int max_batch);

  // One dispatched batch. Stage times are milliseconds; queue_wait_ms is
  // the mean over the batch's requests.
  void record_batch(int batch_size, double queue_wait_ms, double assemble_ms,
                    double forward_ms, double scatter_ms,
                    BatchHold hold = BatchHold::kNone);
  // One completed request's latency pair: time spent queued and total
  // enqueue-to-result time. Lock-free (histogram buckets only) — called
  // per request on the dispatch path, after its batch completes.
  void record_request(double queue_wait_ms, double e2e_ms);
  void record_deadline_miss(int count);
  void record_rejected(int count);
  // Requests refused by cost-aware admission control (predicted queue
  // drain over the budget) — distinct from `rejected`, which counts
  // queue-full backpressure.
  void record_shed(int count);
  // Requests answered without execution because their deadline had
  // already passed when a worker dequeued them.
  void record_expired_unexecuted(int count);
  // Requests whose runtime masks exceeded the per-request compute cap and
  // were clamped by the plan executor (graceful degradation).
  void record_capped(int count);
  // Sampled queue depth (recorded by workers when they pick up work).
  void record_queue_depth(size_t depth);
  // One masked batch's distinct-mask group count (the plan's
  // last_mask_groups): how many compacted GEMM problems the batch's
  // per-sample masks quantized into. Workers skip the call for batches
  // that ran fully dense.
  void record_mask_groups(int groups, int batch_size);
  // One masked batch's union-coarsening outcome: exact-identity bucket
  // count before merging (the plan's last_mask_groups_raw), executed group
  // count after, and the union-added MACs as a fraction of the batch's
  // executed MACs. Workers call it alongside record_mask_groups; batches
  // where coarsening was off or declined report raw == coarsened and a
  // zero overhead fraction.
  void record_coarsen(int raw_groups, int groups, double extra_mac_frac);
  // High-water arena footprint of one replica's workspace (its
  // Workspace::capacity_bytes() after a batch). Workers call it per batch;
  // the stats keep the per-replica maximum, so the snapshot reports what
  // each replica's arena actually grew to — the serving-side check that
  // spatially-tiled lowering keeps high-resolution arenas bounded.
  void record_arena_bytes(int replica, size_t bytes);

  struct Snapshot {
    uint64_t completed_requests = 0;
    uint64_t batches = 0;
    // Batches whose worker waited on an empty queue before dispatch, and
    // the held batches that gained at least one request while waiting.
    uint64_t held_batches = 0;
    uint64_t held_batches_filled = 0;
    uint64_t deadline_misses = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;                // admission-control refusals
    uint64_t expired_unexecuted = 0;  // dead on dequeue, never executed
    uint64_t capped_requests = 0;     // masks clamped to the compute cap
    double elapsed_s = 0.0;           // since construction / reset
    double throughput_rps = 0.0;      // completed / elapsed
    double mean_batch_size = 0.0;
    double mean_queue_depth = 0.0;
    double mean_queue_wait_ms = 0.0;
    double mean_assemble_ms = 0.0;
    double mean_forward_ms = 0.0;
    double mean_scatter_ms = 0.0;
    // Latency percentiles (log-bucket representatives, +/-9.1% relative).
    // queue/e2e are per REQUEST; forward is per BATCH.
    double queue_wait_p50_ms = 0.0;
    double queue_wait_p95_ms = 0.0;
    double queue_wait_p99_ms = 0.0;
    double forward_p50_ms = 0.0;
    double forward_p95_ms = 0.0;
    double forward_p99_ms = 0.0;
    double e2e_p50_ms = 0.0;
    double e2e_p95_ms = 0.0;
    double e2e_p99_ms = 0.0;
    // deadline_misses / completed_requests, as a percentage.
    double deadline_miss_rate_pct = 0.0;
    // Offered load = completed + expired + rejected + shed; the overload
    // rates below are percentages of it, so shedding under attack is
    // visible even though shed requests never complete.
    uint64_t offered_requests = 0;
    double shed_rate_pct = 0.0;     // shed / offered
    double expired_rate_pct = 0.0;  // expired_unexecuted / offered
    // capped_requests / completed (capped requests still execute).
    double capped_rate_pct = 0.0;
    // Mask-grouped execution: over masked batches, the mean distinct-mask
    // group count and the mean group fraction (groups / batch size) — 1.0
    // means every sample drew a unique mask (no grouping win), values
    // near 1/batch mean the whole batch collapsed into one GEMM.
    uint64_t masked_batches = 0;
    double mean_mask_groups = 0.0;
    double mean_group_fraction = 0.0;
    // Similar-mask union coarsening, over the masked batches that reported
    // a coarsening outcome: batches where merges actually happened, the
    // mean pre-merge (exact-identity) group count, the mean post-merge
    // executed group count, and the mean union-added MAC overhead as a
    // percentage of executed MACs.
    uint64_t coarsened_batches = 0;
    double mean_raw_mask_groups = 0.0;
    double mean_coarsened_groups = 0.0;
    double mean_coarsen_extra_mac_pct = 0.0;
    // Per-replica peak arena bytes (workspace high-water mark). Indexed by
    // replica/worker id; empty until the first batch reports.
    std::vector<uint64_t> replica_arena_bytes;
    // histogram[i] = number of batches of size i+1.
    std::vector<uint64_t> batch_size_histogram;
  };
  Snapshot snapshot() const;

  // Restarts the throughput clock and zeroes every counter (used between a
  // warm-up phase and the measured phase of a load run).
  void reset();

  // Two-column summary table plus the batch-size histogram rows.
  Table to_table() const;

 private:
  const int max_batch_;
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point start_;
  uint64_t completed_ = 0;
  uint64_t batches_ = 0;
  uint64_t held_batches_ = 0;
  uint64_t held_batches_filled_ = 0;
  uint64_t deadline_misses_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t expired_unexecuted_ = 0;
  uint64_t capped_requests_ = 0;
  double queue_depth_sum_ = 0.0;
  uint64_t queue_depth_samples_ = 0;
  double queue_wait_ms_sum_ = 0.0;
  double assemble_ms_sum_ = 0.0;
  double forward_ms_sum_ = 0.0;
  double scatter_ms_sum_ = 0.0;
  uint64_t masked_batches_ = 0;
  double mask_group_sum_ = 0.0;
  double group_fraction_sum_ = 0.0;
  uint64_t coarsen_batches_ = 0;    // masked batches reporting an outcome
  uint64_t coarsen_merged_ = 0;     // of those, batches with raw > groups
  double raw_group_sum_ = 0.0;
  double coarsened_group_sum_ = 0.0;
  double coarsen_extra_mac_sum_ = 0.0;
  std::vector<uint64_t> arena_bytes_;  // per-replica peak workspace bytes
  std::vector<uint64_t> histogram_;
  // Lock-free latency distributions (recorded outside mutex_).
  obs::LatencyHistogram queue_wait_hist_;
  obs::LatencyHistogram forward_hist_;
  obs::LatencyHistogram e2e_hist_;
};

}  // namespace antidote::serving
