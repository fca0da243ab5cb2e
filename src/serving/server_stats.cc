#include "serving/server_stats.h"

#include <algorithm>
#include <chrono>

#include "base/error.h"

namespace antidote::serving {

ServerStats::ServerStats(int max_batch)
    : max_batch_(max_batch),
      start_(std::chrono::steady_clock::now()),
      histogram_(static_cast<size_t>(max_batch), 0) {
  AD_CHECK_GT(max_batch, 0);
}

void ServerStats::record_batch(int batch_size, double queue_wait_ms,
                               double assemble_ms, double forward_ms,
                               double scatter_ms, BatchHold hold) {
  AD_CHECK(batch_size >= 1 && batch_size <= max_batch_)
      << " batch size " << batch_size << " vs max " << max_batch_;
  std::lock_guard<std::mutex> lock(mutex_);
  completed_ += static_cast<uint64_t>(batch_size);
  batches_ += 1;
  if (hold != BatchHold::kNone) held_batches_ += 1;
  if (hold == BatchHold::kHeldFilled) held_batches_filled_ += 1;
  histogram_[static_cast<size_t>(batch_size - 1)] += 1;
  queue_wait_ms_sum_ += queue_wait_ms * batch_size;
  assemble_ms_sum_ += assemble_ms;
  forward_ms_sum_ += forward_ms;
  scatter_ms_sum_ += scatter_ms;
  forward_hist_.record(forward_ms);
}

void ServerStats::record_request(double queue_wait_ms, double e2e_ms) {
  queue_wait_hist_.record(queue_wait_ms);
  e2e_hist_.record(e2e_ms);
}

void ServerStats::record_deadline_miss(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  deadline_misses_ += static_cast<uint64_t>(count);
}

void ServerStats::record_rejected(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  rejected_ += static_cast<uint64_t>(count);
}

void ServerStats::record_shed(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  shed_ += static_cast<uint64_t>(count);
}

void ServerStats::record_expired_unexecuted(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  expired_unexecuted_ += static_cast<uint64_t>(count);
}

void ServerStats::record_capped(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  capped_requests_ += static_cast<uint64_t>(count);
}

void ServerStats::record_queue_depth(size_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_depth_sum_ += static_cast<double>(depth);
  queue_depth_samples_ += 1;
}

void ServerStats::record_mask_groups(int groups, int batch_size) {
  AD_CHECK(groups >= 1 && groups <= batch_size)
      << " mask groups " << groups << " vs batch " << batch_size;
  std::lock_guard<std::mutex> lock(mutex_);
  masked_batches_ += 1;
  mask_group_sum_ += static_cast<double>(groups);
  group_fraction_sum_ +=
      static_cast<double>(groups) / static_cast<double>(batch_size);
}

void ServerStats::record_coarsen(int raw_groups, int groups,
                                 double extra_mac_frac) {
  AD_CHECK(groups >= 1 && groups <= raw_groups)
      << " coarsened groups " << groups << " vs raw " << raw_groups;
  std::lock_guard<std::mutex> lock(mutex_);
  coarsen_batches_ += 1;
  if (raw_groups > groups) coarsen_merged_ += 1;
  raw_group_sum_ += static_cast<double>(raw_groups);
  coarsened_group_sum_ += static_cast<double>(groups);
  coarsen_extra_mac_sum_ += extra_mac_frac;
}

void ServerStats::record_arena_bytes(int replica, size_t bytes) {
  AD_CHECK_GE(replica, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<size_t>(replica) >= arena_bytes_.size()) {
    arena_bytes_.resize(static_cast<size_t>(replica) + 1, 0);
  }
  arena_bytes_[static_cast<size_t>(replica)] =
      std::max(arena_bytes_[static_cast<size_t>(replica)],
               static_cast<uint64_t>(bytes));
}

ServerStats::Snapshot ServerStats::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.completed_requests = completed_;
  s.batches = batches_;
  s.held_batches = held_batches_;
  s.held_batches_filled = held_batches_filled_;
  s.deadline_misses = deadline_misses_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.expired_unexecuted = expired_unexecuted_;
  s.capped_requests = capped_requests_;
  s.elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
  if (s.elapsed_s > 0.0) {
    s.throughput_rps = static_cast<double>(completed_) / s.elapsed_s;
  }
  if (batches_ > 0) {
    s.mean_batch_size = static_cast<double>(completed_) / batches_;
    s.mean_assemble_ms = assemble_ms_sum_ / batches_;
    s.mean_forward_ms = forward_ms_sum_ / batches_;
    s.mean_scatter_ms = scatter_ms_sum_ / batches_;
  }
  if (completed_ > 0) {
    s.mean_queue_wait_ms = queue_wait_ms_sum_ / completed_;
    s.deadline_miss_rate_pct =
        100.0 * static_cast<double>(deadline_misses_) /
        static_cast<double>(completed_);
    s.capped_rate_pct = 100.0 * static_cast<double>(capped_requests_) /
                        static_cast<double>(completed_);
  }
  s.offered_requests = completed_ + expired_unexecuted_ + rejected_ + shed_;
  if (s.offered_requests > 0) {
    s.shed_rate_pct = 100.0 * static_cast<double>(shed_) /
                      static_cast<double>(s.offered_requests);
    s.expired_rate_pct = 100.0 * static_cast<double>(expired_unexecuted_) /
                         static_cast<double>(s.offered_requests);
  }
  s.queue_wait_p50_ms = queue_wait_hist_.percentile(50.0);
  s.queue_wait_p95_ms = queue_wait_hist_.percentile(95.0);
  s.queue_wait_p99_ms = queue_wait_hist_.percentile(99.0);
  s.forward_p50_ms = forward_hist_.percentile(50.0);
  s.forward_p95_ms = forward_hist_.percentile(95.0);
  s.forward_p99_ms = forward_hist_.percentile(99.0);
  s.e2e_p50_ms = e2e_hist_.percentile(50.0);
  s.e2e_p95_ms = e2e_hist_.percentile(95.0);
  s.e2e_p99_ms = e2e_hist_.percentile(99.0);
  if (queue_depth_samples_ > 0) {
    s.mean_queue_depth = queue_depth_sum_ / queue_depth_samples_;
  }
  s.masked_batches = masked_batches_;
  if (masked_batches_ > 0) {
    s.mean_mask_groups = mask_group_sum_ / masked_batches_;
    s.mean_group_fraction = group_fraction_sum_ / masked_batches_;
  }
  s.coarsened_batches = coarsen_merged_;
  if (coarsen_batches_ > 0) {
    s.mean_raw_mask_groups = raw_group_sum_ / coarsen_batches_;
    s.mean_coarsened_groups = coarsened_group_sum_ / coarsen_batches_;
    s.mean_coarsen_extra_mac_pct =
        100.0 * coarsen_extra_mac_sum_ / coarsen_batches_;
  }
  s.replica_arena_bytes = arena_bytes_;
  s.batch_size_histogram = histogram_;
  return s;
}

void ServerStats::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  start_ = std::chrono::steady_clock::now();
  completed_ = batches_ = deadline_misses_ = rejected_ = 0;
  held_batches_ = held_batches_filled_ = 0;
  shed_ = expired_unexecuted_ = capped_requests_ = 0;
  queue_depth_sum_ = 0.0;
  queue_depth_samples_ = 0;
  queue_wait_ms_sum_ = assemble_ms_sum_ = forward_ms_sum_ =
      scatter_ms_sum_ = 0.0;
  masked_batches_ = 0;
  mask_group_sum_ = group_fraction_sum_ = 0.0;
  coarsen_batches_ = coarsen_merged_ = 0;
  raw_group_sum_ = coarsened_group_sum_ = coarsen_extra_mac_sum_ = 0.0;
  arena_bytes_.assign(arena_bytes_.size(), 0);
  histogram_.assign(histogram_.size(), 0);
  queue_wait_hist_.reset();
  forward_hist_.reset();
  e2e_hist_.reset();
}

namespace {

std::string percentile_triplet(double p50, double p95, double p99) {
  return Table::fmt(p50, 3) + " / " + Table::fmt(p95, 3) + " / " +
         Table::fmt(p99, 3);
}

}  // namespace

Table ServerStats::to_table() const {
  const Snapshot s = snapshot();
  Table t({"metric", "value"});
  t.add_row({"completed requests", std::to_string(s.completed_requests)});
  t.add_row({"batches", std::to_string(s.batches)});
  t.add_row({"held batches", std::to_string(s.held_batches)});
  t.add_row({"held batches filled", std::to_string(s.held_batches_filled)});
  t.add_row({"throughput (req/s)", Table::fmt(s.throughput_rps, 1)});
  t.add_row({"mean batch size", Table::fmt(s.mean_batch_size, 2)});
  t.add_row({"mean queue depth", Table::fmt(s.mean_queue_depth, 2)});
  // Latency rows are distributions, not means: the tail is the SLO.
  t.add_row({"queue wait p50/p95/p99 (ms)",
             percentile_triplet(s.queue_wait_p50_ms, s.queue_wait_p95_ms,
                                s.queue_wait_p99_ms)});
  t.add_row({"forward p50/p95/p99 (ms)",
             percentile_triplet(s.forward_p50_ms, s.forward_p95_ms,
                                s.forward_p99_ms)});
  t.add_row({"e2e p50/p95/p99 (ms)",
             percentile_triplet(s.e2e_p50_ms, s.e2e_p95_ms, s.e2e_p99_ms)});
  t.add_row({"mean assemble (ms)", Table::fmt(s.mean_assemble_ms, 3)});
  t.add_row({"mean scatter (ms)", Table::fmt(s.mean_scatter_ms, 3)});
  t.add_row({"deadline misses", std::to_string(s.deadline_misses)});
  t.add_row({"deadline miss rate",
             Table::fmt(s.deadline_miss_rate_pct, 2) + "%"});
  t.add_row({"rejected", std::to_string(s.rejected)});
  // Overload visibility without trace tooling: admission sheds, compute
  // caps and dead-on-dequeue drops, each with its rate.
  t.add_row({"shed (admission)", std::to_string(s.shed)});
  t.add_row({"shed rate", Table::fmt(s.shed_rate_pct, 2) + "%"});
  t.add_row({"capped requests", std::to_string(s.capped_requests)});
  t.add_row({"capped rate", Table::fmt(s.capped_rate_pct, 2) + "%"});
  t.add_row(
      {"expired unexecuted", std::to_string(s.expired_unexecuted)});
  t.add_row({"expired rate", Table::fmt(s.expired_rate_pct, 2) + "%"});
  if (s.masked_batches > 0) {
    t.add_row({"masked batches", std::to_string(s.masked_batches)});
    t.add_row({"mean mask groups / batch", Table::fmt(s.mean_mask_groups, 2)});
    t.add_row(
        {"mean mask group fraction", Table::fmt(s.mean_group_fraction, 3)});
    t.add_row({"coarsened batches (merged)",
               std::to_string(s.coarsened_batches)});
    t.add_row({"mean groups raw -> coarsened",
               Table::fmt(s.mean_raw_mask_groups, 2) + " -> " +
                   Table::fmt(s.mean_coarsened_groups, 2)});
    t.add_row({"mean coarsen extra-MAC overhead",
               Table::fmt(s.mean_coarsen_extra_mac_pct, 2) + "%"});
  }
  for (size_t i = 0; i < s.replica_arena_bytes.size(); ++i) {
    if (s.replica_arena_bytes[i] == 0) continue;
    t.add_row({"replica " + std::to_string(i) + " peak arena (MiB)",
               Table::fmt(static_cast<double>(s.replica_arena_bytes[i]) /
                              (1024.0 * 1024.0),
                          2)});
  }
  for (size_t i = 0; i < s.batch_size_histogram.size(); ++i) {
    if (s.batch_size_histogram[i] == 0) continue;
    t.add_row({"batches of size " + std::to_string(i + 1),
               std::to_string(s.batch_size_histogram[i])});
  }
  return t;
}

}  // namespace antidote::serving
