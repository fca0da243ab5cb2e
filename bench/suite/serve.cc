// Serving phases of one workload: set-up, warm-up, then rounds of a closed
// loop followed by an open loop. One generator thread (the caller) submits,
// one collector thread waits on the futures in submit order; the server runs
// one batch worker.
#include <malloc.h>

#include <chrono>
#include <future>
#include <semaphore>
#include <thread>

#include "base/mpmc_queue.h"
#include "suite.h"

namespace antidote::suite {

namespace {

using Clock = std::chrono::steady_clock;
using serving::InferenceResult;
using serving::InferenceServer;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// A submitted request on its way from the generator to the collector.
struct Pending {
  std::future<InferenceResult> future;
  size_t index = 0;
};

// Large enough that the generator never blocks on the collector.
constexpr size_t kHandoffCapacity = 1 << 20;
// The measured time is cut into this many rounds, each a closed loop then an
// open loop. The host's cores slow down and recover over a few seconds at a
// time (their other hardware threads belong to other tenants), so spreading
// each loop over the whole run samples several of those stretches instead
// of one.
constexpr int kRounds = 5;
// Closed-loop throughput is measured over windows of this many full batches
// (30-100 ms). Short windows catch the brief slow stretches that longer ones
// average away, so their 10th percentile still finds the slow state in runs
// made while the host is mostly fast: over ten seeds of cifar-distinct it
// spread 0.10 with 2-batch windows and 0.21 with 20-batch ones.
constexpr int kRateWindowBatches = 2;
// The generator spins for the last stretch before each due time.
constexpr auto kSpinLead = std::chrono::milliseconds(20);
// Resident-set sampling period of the collectors.
constexpr double kRssPeriodMs = 50.0;

Sample keep_sample(int input, const InferenceResult& r) {
  Sample s;
  s.input = input;
  s.predicted = r.predicted;
  s.logits.assign(r.logits.data(), r.logits.data() + r.logits.size());
  return s;
}

std::unique_ptr<InferenceServer> make_server(const Workload& w) {
  return std::make_unique<InferenceServer>(
      [&w](int) { return make_net(w); }, server_config(w));
}

// Samples the resident set at most every kRssPeriodMs (collector thread).
struct RssSampler {
  std::vector<double>* out = nullptr;
  Clock::time_point last{};
  void poll() {
    const Clock::time_point now = Clock::now();
    if (out == nullptr || ms_between(last, now) < kRssPeriodMs) return;
    last = now;
    out->push_back(current_rss_bytes());
  }
};

// Closed loop: the generator keeps `inflight` requests outstanding with the
// blocking submit until `requests` were sent or `stop_at` passed. Requests
// are numbered from `first`, which picks their inputs.
struct ClosedLoop {
  std::vector<Clock::time_point> done;  // completions before stop_at
  int64_t sent = 0;
  int64_t errors = 0;
};

ClosedLoop run_closed_loop(InferenceServer& server,
                           const std::vector<Tensor>& pool, int inflight,
                           int64_t first, int64_t requests,
                           Clock::time_point stop_at, int check_every,
                           std::vector<Sample>* samples,
                           std::vector<double>* rss) {
  ClosedLoop out;
  std::counting_semaphore<> slots(inflight);
  BoundedQueue<Pending> handoff(kHandoffCapacity);
  std::thread collector([&] {
    RssSampler sampler{rss};
    Pending p;
    while (handoff.pop(p)) {
      try {
        InferenceResult r = p.future.get();
        const Clock::time_point done = Clock::now();
        if (done <= stop_at) out.done.push_back(done);
        if (samples != nullptr &&
            p.index % static_cast<size_t>(check_every) == 0) {
          samples->push_back(
              keep_sample(static_cast<int>(p.index % pool.size()), r));
        }
      } catch (...) {
        ++out.errors;
      }
      sampler.poll();
      slots.release();
    }
  });
  for (; out.sent < requests; ++out.sent) {
    slots.acquire();
    if (Clock::now() >= stop_at) break;
    const size_t index = static_cast<size_t>(first + out.sent);
    std::future<InferenceResult> f = server.submit(pool[index % pool.size()]);
    if (!f.valid()) {
      ++out.errors;
      slots.release();
      continue;
    }
    handoff.push({std::move(f), index});
  }
  handoff.close();
  collector.join();
  return out;
}

// Arrival times (ms from the slice start) under a square-wave rate:
// `high_rps` for `high_ms`, then `low_rps` for `low_ms`, repeating; a
// constant rate is one stretch. Requests are evenly spaced within each
// stretch, and the fraction of a request a stretch owes carries over to the
// next. Random arrivals made the median latency follow the host: a request
// that arrives while another is running waits for it, and how long it runs
// depends on how busy the host is at that moment.
std::vector<double> arrival_schedule(const Workload& w, double duration_ms) {
  std::vector<double> due;
  const bool constant = w.high_rps == w.low_rps;
  bool high = true;
  double owed = 0.0;
  for (double t0 = 0.0; t0 < duration_ms;) {
    const double len = constant ? duration_ms : (high ? w.high_ms : w.low_ms);
    owed += (high ? w.high_rps : w.low_rps) * len / 1000.0;
    const int n = static_cast<int>(owed);
    owed -= n;
    for (int i = 0; i < n; ++i) {
      const double t = t0 + (i + 0.5) * len / n;
      if (t < duration_ms) due.push_back(t);
    }
    t0 += len;
    high = constant || !high;
  }
  return due;
}

}  // namespace

ServeResult run_serving(const Workload& w, const std::vector<Tensor>& pool,
                        const ServeOptions& opt) {
  ServeResult out;

  // 1. Set-up: a fresh server timed up to its first completed request. The
  // serving server is the first; more are timed and dropped before each
  // open loop (below), so that set-up time samples the whole run. Taken
  // back to back, fifteen set-ups fell within half a second of one host
  // state, and the median of ten runs moved by up to a quarter from one set
  // of runs to the next.
  std::vector<double> setups;
  const auto time_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<InferenceServer> s = make_server(w);
    s->submit(pool[0]).get();
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return s;
  };
  const std::unique_ptr<InferenceServer> server = time_setup();

  const int inflight = 2 * w.max_batch;
  const Clock::time_point far = Clock::now() + std::chrono::hours(1);

  // 2. Warm-up.
  run_closed_loop(*server, pool, inflight, 0, opt.warmup_requests, far,
                  w.check_every, nullptr, nullptr);

  serving::LatencyController* lc = server->controller();
  out.has_controller = lc != nullptr;
  if (lc != nullptr) lc->reset_keep_summary();
  serving::RequestQueue& queue = server->queue();
  const size_t pool_offset = pool.size() / 2;
  const double closed_s = opt.seconds * (1.0 - w.open_share) / kRounds;
  const double open_s = opt.seconds * w.open_share / kRounds;
  out.open_s = open_s * kRounds;
  // Open-loop times are kept from this origin; the trace places them by it.
  const Clock::time_point origin = Clock::now();
  out.open_origin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           origin.time_since_epoch())
                           .count();
  std::vector<Sample> open_samples;
  double offset_sum = 0.0, cost_sum = 0.0;
  int64_t controller_samples = 0, closed_next = 0;

  for (int round = 0; round < kRounds; ++round) {
    // 3. Closed loop. Throughput is taken per window of kRateWindowBatches
    // full batches, so that main() can report a quantile of the windows.
    if (closed_s > 0.0) {
      const Clock::time_point stop =
          Clock::now() +
          std::chrono::microseconds(static_cast<int64_t>(closed_s * 1e6));
      const ClosedLoop c = run_closed_loop(
          *server, pool, inflight, closed_next, int64_t{1} << 40, stop,
          w.check_every, &out.samples, &out.rss_bytes);
      closed_next += c.sent;
      const size_t per_window =
          static_cast<size_t>(kRateWindowBatches * w.max_batch);
      for (size_t b = 0; b + per_window < c.done.size(); b += per_window) {
        out.closed_window_rps.push_back(
            static_cast<double>(per_window) /
            (ms_between(c.done[b], c.done[b + per_window]) / 1000.0));
      }
      out.closed_completed += static_cast<int64_t>(c.done.size());
      out.closed_errors += c.errors;
    }

    // More set-up samples. Hand the dropped servers' memory back to the OS,
    // so the resident set measured below is the serving server's and not
    // allocator slack whose size depends on which malloc arena each worker
    // thread drew.
    for (int i = 0; i < opt.setups_per_round; ++i) time_setup();
    malloc_trim(0);

    // 4. Open loop on the schedule.
    const std::vector<double> due = arrival_schedule(w, open_s * 1000.0);
    const size_t first = out.open.size();
    out.open.resize(first + due.size());
    const uint64_t capped_before = server->stats().snapshot().capped_requests;
    BoundedQueue<Pending> handoff(kHandoffCapacity);
    // The schedule starts a little ahead so the collector thread is running
    // before the first request is due.
    const Clock::time_point slice_origin =
        Clock::now() + std::chrono::milliseconds(20);
    std::thread collector([&] {
      RssSampler sampler{&out.rss_bytes};
      Pending p;
      while (handoff.pop(p)) {
        RequestRecord& rec = out.open[p.index];
        try {
          InferenceResult r = p.future.get();
          // Completion on the server's clock: the collector's own wake-up
          // (which can take milliseconds on a virtual machine) stays out.
          rec.done_ms = rec.sent_ms + r.queue_ms + r.batch_ms;
          rec.queue_ms = r.queue_ms;
          rec.batch_ms = r.batch_ms;
          rec.batch_size = r.batch_size;
          rec.outcome =
              r.expired_unexecuted ? Outcome::kExpired : Outcome::kServed;
          if (rec.outcome == Outcome::kServed &&
              p.index % static_cast<size_t>(w.check_every) == 0) {
            open_samples.push_back(keep_sample(rec.input, r));
          }
        } catch (...) {
          rec.outcome = Outcome::kError;
        }
        sampler.poll();
      }
    });

    for (size_t i = first; i < out.open.size(); ++i) {
      RequestRecord& rec = out.open[i];
      rec.input = static_cast<int>((pool_offset + i) % pool.size());
      // Sleep to just before the due time, then spin: waking a vCPU that
      // went idle can take milliseconds on a virtual machine, which would
      // show up as generator lag rather than server latency.
      const Clock::time_point due_at =
          slice_origin + std::chrono::microseconds(
                             static_cast<int64_t>(due[i - first] * 1000.0));
      rec.due_ms = ms_between(origin, due_at);
      std::this_thread::sleep_until(due_at - kSpinLead);
      while (Clock::now() < due_at) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
      // Only this thread submits, so the counters' deltas classify a
      // refusal.
      const uint64_t shed_before = queue.shed();
      const uint64_t rejected_before = queue.rejected();
      const Clock::time_point sent = Clock::now();
      std::optional<Clock::time_point> deadline;
      if (w.hardened) {
        deadline = sent + std::chrono::microseconds(
                              static_cast<int64_t>(w.deadline_ms * 1000.0));
      }
      std::future<InferenceResult> f =
          server->try_submit(pool[static_cast<size_t>(rec.input)], deadline);
      const Clock::time_point after = Clock::now();
      rec.sent_ms = ms_between(origin, sent);
      rec.submit_us = ms_between(sent, after) * 1000.0;
      if (f.valid()) {
        handoff.push({std::move(f), i});
      } else if (queue.shed() > shed_before) {
        rec.outcome = Outcome::kShed;
      } else if (queue.rejected() > rejected_before) {
        rec.outcome = Outcome::kRejected;
      } else {
        rec.outcome = Outcome::kError;
      }
      if (lc != nullptr && i % 8 == 0) {
        offset_sum += lc->offset();
        cost_sum += lc->predicted_request_cost_ms(w.max_batch, 1);
        ++controller_samples;
      }
    }
    handoff.close();
    collector.join();
    out.open_capped +=
        server->stats().snapshot().capped_requests - capped_before;
  }

  out.setup_s = median(setups);
  if (controller_samples > 0) {
    out.controller_offset = offset_sum / controller_samples;
    out.admission_cost_ms = cost_sum / controller_samples;
  }
  if (lc != nullptr) {
    const auto keep = lc->keep_summary();
    out.channel_keep = keep.mean_channel_keep;
    out.spatial_keep = keep.mean_spatial_keep;
  }
  server->shutdown();
  out.samples.insert(out.samples.end(), open_samples.begin(),
                     open_samples.end());
  return out;
}

}  // namespace antidote::suite
