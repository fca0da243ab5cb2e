// antidote_suite — runs one workload of the serving benchmark and prints
// its metrics: one `workload metric value unit` line each, then one JSON
// object as the last line of stdout.
//
//   antidote_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--smoke] [--trace-file PATH] [--record-file PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics (serving counters from an untraced run,
// plan/kernel phases from a traced replay) and can write a Chrome trace.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "base/build_info.h"
#include "base/parallel.h"
#include "core/engine.h"
#include "nn/conv_kernels.h"
#include "nn/int8_kernels.h"
#include "suite.h"

namespace antidote::suite {
namespace {

// The budget of the int8 check: relative to the largest f32 logit of the
// sample, as the existing int8 accuracy gate measures it.
constexpr double kInt8MaxRelLogitDiff = 0.05;
// Share of int8 responses that must pass for the run to count as correct:
// over 20 seeds the pass rate had a median of 88.8% and a minimum of 83.4%,
// and runs of one seed agreed within half a point.
constexpr double kInt8MinPassPct = 80.0;
// Oracle forwards run in chunks of this many samples, on this many threads
// (after every timed phase, so they may use every core).
constexpr int kOracleBatch = 4;
constexpr int kOracleThreads = 4;
// Requests drawn into the Chrome trace (the open loop's first ones).
constexpr size_t kTracedRequests = 4000;
// Measured time of one run: BENCHMARK.json's run_seconds, for which the
// bounds were calibrated. --smoke defaults to 2 s.
constexpr double kRunSeconds = 25.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  bool smoke = false;
  std::string trace_file;
  std::string record_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "antidote_suite: %s\nusage: antidote_suite --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--trace-file PATH] [--record-file PATH]\nworkloads:",
               why);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') {
        usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') usage("--seconds takes a number");
      seconds_given = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--trace-file") {
      a.trace_file = value();
    } else if (flag == "--record-file") {
      a.record_file = value();
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.smoke && !seconds_given) a.seconds = 2.0;
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return a;
}

struct CheckResult {
  int64_t checked = 0;
  int64_t passed = 0;
  double pct() const {
    return checked > 0 ? 100.0 * static_cast<double>(passed) /
                             static_cast<double>(checked)
                       : 0.0;
  }
};

int argmax(const float* v, int n) {
  return static_cast<int>(std::max_element(v, v + n) - v);
}

// Compares served responses with an oracle replica: the plain module-walk
// ConvNet::forward(x) of a model with the same weights and drop settings.
CheckResult check_samples(const Workload& w, const std::vector<Tensor>& pool,
                          const std::vector<Sample>& samples) {
  CheckResult r;
  r.checked = static_cast<int64_t>(samples.size());
  if (w.check == Check::kStructural) {
    for (const Sample& s : samples) {
      const int n = static_cast<int>(s.logits.size());
      const bool finite = std::all_of(s.logits.begin(), s.logits.end(),
                                      [](float v) { return std::isfinite(v); });
      if (n > 0 && finite && s.predicted == argmax(s.logits.data(), n)) {
        ++r.passed;
      }
    }
    return r;
  }
  // The oracle runs once per distinct input (a sample's output does not
  // depend on the rest of its batch), on one replica per oracle thread.
  std::vector<int> inputs;
  for (const Sample& s : samples) inputs.push_back(s.input);
  std::sort(inputs.begin(), inputs.end());
  inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
  std::vector<std::vector<float>> want_by_input(inputs.size());
  const int64_t sample_floats = pool[0].size();
  std::atomic<size_t> next_chunk{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto oracle_thread = [&] {
    try {
      auto oracle = make_net(w);
      core::DynamicPruningEngine engine(*oracle, prune_settings(w));
      for (size_t b0; (b0 = next_chunk.fetch_add(kOracleBatch)) <
                      inputs.size();) {
        const int n = static_cast<int>(
            std::min<size_t>(kOracleBatch, inputs.size() - b0));
        Tensor x({n, 3, w.image, w.image});
        for (int i = 0; i < n; ++i) {
          std::memcpy(x.data() + i * sample_floats,
                      pool[static_cast<size_t>(inputs[b0 + i])].data(),
                      static_cast<size_t>(sample_floats) * sizeof(float));
        }
        const Tensor ref = oracle->forward(x);
        const int classes = ref.dim(1);
        for (int i = 0; i < n; ++i) {
          const float* row = ref.data() + static_cast<int64_t>(i) * classes;
          want_by_input[b0 + i].assign(row, row + classes);
        }
      }
      engine.remove();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kOracleThreads; ++t) threads.emplace_back(oracle_thread);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);

  for (const Sample& s : samples) {
    const std::vector<float>& want = want_by_input[static_cast<size_t>(
        std::lower_bound(inputs.begin(), inputs.end(), s.input) -
        inputs.begin())];
    const int classes = static_cast<int>(want.size());
    if (static_cast<int>(s.logits.size()) != classes) continue;
    bool pass = false;
    if (w.check == Check::kBitwise) {
      pass = std::memcmp(want.data(), s.logits.data(),
                         static_cast<size_t>(classes) * sizeof(float)) == 0;
    } else {
      double max_ref = 0.0, max_diff = 0.0;
      for (int c = 0; c < classes; ++c) {
        max_ref = std::max(max_ref, std::abs(double(want[c])));
        max_diff =
            std::max(max_diff, std::abs(double(want[c]) - double(s.logits[c])));
      }
      // Within the budget every logit may move by `budget`, so two classes
      // whose f32 logits are within 2 x budget may swap: the served top-1
      // must be the f32 top-1 up to such a tie. Random-initialised heads
      // have them on most inputs; exact top-1 agrees on fewer than half.
      const double budget = kInt8MaxRelLogitDiff * max_ref;
      pass = max_diff <= budget && s.predicted >= 0 &&
             s.predicted < classes &&
             want[static_cast<size_t>(s.predicted)] >=
                 want[static_cast<size_t>(argmax(want.data(), classes))] -
                     2.0 * budget;
    }
    r.passed += pass ? 1 : 0;
  }
  return r;
}

struct OpenLoopSummary {
  int64_t offered = 0, served = 0, expired = 0, shed = 0, rejected = 0,
          errors = 0, within_slo = 0;
  std::vector<double> latency, send_lag, submit_us, queue_ms, batch_ms;
};

OpenLoopSummary summarize(const Workload& w, const ServeResult& s) {
  OpenLoopSummary o;
  for (const RequestRecord& r : s.open) {
    ++o.offered;
    o.send_lag.push_back(r.sent_ms - r.due_ms);
    o.submit_us.push_back(r.submit_us);
    switch (r.outcome) {
      case Outcome::kServed:
        ++o.served;
        o.latency.push_back(r.latency_ms());
        o.queue_ms.push_back(r.queue_ms);
        o.batch_ms.push_back(r.batch_ms);
        if (r.latency_ms() <= w.slo_ms) ++o.within_slo;
        break;
      case Outcome::kExpired: ++o.expired; break;
      case Outcome::kShed: ++o.shed; break;
      case Outcome::kRejected: ++o.rejected; break;
      case Outcome::kError: ++o.errors; break;
    }
  }
  return o;
}

double pct(int64_t part, int64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

// Chrome trace of one traced run: the bench-side request spans of the
// open loop (async spans sharing the request id: request > submit, queue,
// batch), the replay's plan phase spans, and the per-layer metrics.
bool write_trace(const std::string& path, const Workload& w, uint64_t seed,
                 const ServeResult& s, const ReplayResult& replay,
                 const Metrics& per_layer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"requests (open loop)\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
      "\"args\":{\"name\":\"plan replay\"}}",
      f);
  const double origin_us = static_cast<double>(s.open_origin_ns) / 1e3;
  const auto span = [&](const char* name, size_t id, double b_ms,
                        double e_ms) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                 "\"id\":%zu,\"pid\":1,\"tid\":1,\"ts\":%.3f}"
                 ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                 "\"id\":%zu,\"pid\":1,\"tid\":1,\"ts\":%.3f}",
                 name, id, origin_us + b_ms * 1e3, name, id,
                 origin_us + std::max(e_ms, b_ms) * 1e3);
  };
  const size_t traced = std::min(s.open.size(), kTracedRequests);
  for (size_t i = 0; i < traced; ++i) {
    const RequestRecord& r = s.open[i];
    const double submit_end = r.sent_ms + r.submit_us / 1e3;
    const double end =
        r.outcome == Outcome::kServed || r.outcome == Outcome::kExpired
            ? r.done_ms
            : submit_end;
    span("request", i, r.due_ms, end);
    span("submit", i, r.sent_ms, submit_end);
    if (r.outcome == Outcome::kServed || r.outcome == Outcome::kExpired) {
      const double queue_end = r.sent_ms + r.queue_ms;
      span("queue", i, submit_end, queue_end);
      if (r.outcome == Outcome::kServed) {
        span("batch", i, queue_end, queue_end + r.batch_ms);
      }
    }
  }
  std::fputs(replay.plan_events_json.c_str(), f);
  std::fprintf(f, "\n],\"otherData\":{\"workload\":\"%s\",\"seed\":%llu,"
               "\"per_layer\":{",
               w.name.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  for (const auto& [name, value] : per_layer) {
    std::fprintf(f, "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                 first ? "" : ",", name.c_str(),
                 json_number(value.first).c_str(), value.second.c_str());
    first = false;
  }
  std::fputs("}}}\n", f);
  return std::fclose(f) == 0;
}

std::string metrics_json(const Metrics& m,
                         const std::vector<std::string>& order) {
  std::string out = "{";
  for (const std::string& name : order) {
    const auto& [value, unit] = m.at(name);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;

  const double host_gflops = host_ref_gflops();
  // Enough distinct inputs that no batch holds a repeat. The large images
  // get a smaller pool to keep memory flat, still large enough that the
  // int8 pass rate (mostly a property of each input) is steady over seeds.
  const int pool_size = w.image >= 128 ? 255 : 4093;
  const std::vector<Tensor> pool = make_inputs(w, args.seed, pool_size);
  const double pool_bytes =
      static_cast<double>(pool_size) * pool[0].size() * sizeof(float);

  ServeOptions opt;
  // A traced run splits its budget between serving and the replay.
  opt.seconds = args.trace ? args.seconds * 0.6 : args.seconds;
  opt.setups_per_round = args.trace || args.smoke ? 0 : 3;
  opt.warmup_requests = args.smoke ? 4 * w.max_batch : 25 * w.max_batch;
  const ServeResult serve = run_serving(w, pool, opt);
  const double rss_mib =
      std::max(median(serve.rss_bytes) - pool_bytes, 0.0) / (1024.0 * 1024.0);

  const CheckResult check = check_samples(w, pool, serve.samples);
  const OpenLoopSummary o = summarize(w, serve);
  const int64_t attempted = o.offered + serve.closed_completed +
                            serve.closed_errors;
  const int64_t failed = o.errors + serve.closed_errors;
  const double latency_p50 = percentile(o.latency, 50);
  const double send_lag_p99 = percentile(o.send_lag, 99);
  const bool valid = send_lag_p99 <= 0.1 * latency_p50;
  bool correct = check.checked > 0 && failed == 0;
  if (w.check == Check::kInt8) {
    correct = correct && check.pct() >= kInt8MinPassPct;
  } else {
    correct = correct && check.passed == check.checked;
  }
  if (!valid) {
    std::fprintf(stderr,
                 "antidote_suite: %s run invalid: generator send lag p99 "
                 "%.3f ms exceeds 10%% of latency p50 %.3f ms\n",
                 w.name.c_str(), send_lag_p99, latency_p50);
  }

  Metrics m;
  std::vector<std::string> order;
  if (!args.trace) {
    // The rate the server sustains while the host shares the worker's core:
    // the 10th percentile of the closed-loop windows. The host switches
    // each vCPU between a whole core and a shared one (about 1.6 times
    // slower) every few seconds, so the windows fall in two clusters and
    // their median follows the mix of the two in that run. Nearly every
    // run spends a tenth of its windows on a shared core; fewer spend a
    // tenth on a whole one. Without a closed loop (the hostile workload)
    // throughput is the open loop's served rate.
    const double throughput =
        serve.closed_window_rps.empty()
            ? static_cast<double>(o.served) / serve.open_s
            : percentile(serve.closed_window_rps, 10);
    m["setup_s"] = {serve.setup_s, "s"};
    m["throughput_rps"] = {throughput, "rps"};
    m["latency_p50_ms"] = {latency_p50, "ms"};
    m["slo_attain_pct"] = {pct(o.within_slo, o.offered), "%"};
    m["served_pct"] = {pct(o.served, o.offered), "%"};
    m["correct_pct"] = {check.pct(), "%"};
    m["rss_mib"] = {rss_mib, "MiB"};
    order = {"setup_s",        "throughput_rps", "latency_p50_ms",
             "slo_attain_pct", "served_pct",     "correct_pct",
             "rss_mib"};
  } else {
    const ReplayResult replay =
        run_replay(w, pool, args.seconds - opt.seconds);
    m = replay.metrics;
    // Measured per-request service cost: busy batch time over requests.
    // Each of a batch's b requests adds 1/b to `batches`, which so counts
    // the open loop's batches.
    double busy_ms = 0.0, batches = 0.0;
    for (const RequestRecord& r : serve.open) {
      if (r.outcome != Outcome::kServed) continue;
      busy_ms += r.batch_ms / r.batch_size;
      batches += 1.0 / r.batch_size;
    }
    const double measured_cost =
        o.served > 0 ? busy_ms / static_cast<double>(o.served) : 0.0;
    // Tail latency has no bound: on a shared host it follows how often the
    // hypervisor stops the worker's vCPU mid-batch (README.md).
    m["serving.latency_p99_ms"] = {percentile(o.latency, 99), "ms"};
    m["serving.submit_us_p99"] = {percentile(o.submit_us, 99), "us"};
    m["serving.admission_cost_ms"] = {serve.admission_cost_ms, "ms"};
    m["serving.admission_residual_pct"] = {
        serve.has_controller && measured_cost > 0.0
            ? 100.0 * (serve.admission_cost_ms - measured_cost) /
                  measured_cost
            : 0.0,
        "%"};
    m["serving.queue_wait_ms_p50"] = {percentile(o.queue_ms, 50), "ms"};
    m["serving.queue_wait_ms_p99"] = {percentile(o.queue_ms, 99), "ms"};
    m["serving.batch_ms_p50"] = {percentile(o.batch_ms, 50), "ms"};
    m["serving.batch_ms_p99"] = {percentile(o.batch_ms, 99), "ms"};
    m["serving.batch_size_mean"] = {
        batches > 0.0 ? static_cast<double>(o.served) / batches : 0.0,
        "count"};
    m["serving.shed_pct"] = {pct(o.shed, o.offered), "%"};
    m["serving.rejected_pct"] = {pct(o.rejected, o.offered), "%"};
    m["serving.expired_pct"] = {pct(o.expired, o.offered), "%"};
    m["serving.capped_pct"] = {
        pct(static_cast<int64_t>(serve.open_capped), o.served), "%"};
    m["serving.controller_offset"] = {serve.controller_offset, "ratio"};
    m["serving.channel_keep"] = {
        serve.has_controller ? serve.channel_keep
                             : m.at("core.channel_keep").first,
        "ratio"};
    m["serving.spatial_keep"] = {
        serve.has_controller ? serve.spatial_keep
                             : m.at("core.spatial_keep").first,
        "ratio"};
    m["bench.send_lag_p99_ms"] = {send_lag_p99, "ms"};
    m["bench.host_ref_gflops"] = {host_gflops, "GFLOP/s"};
    for (const auto& entry : m) order.push_back(entry.first);
    if (!args.trace_file.empty() &&
        !write_trace(args.trace_file, w, args.seed, serve, replay, m)) {
      std::fprintf(stderr, "antidote_suite: cannot write %s\n",
                   args.trace_file.c_str());
      return 1;
    }
  }

  for (const std::string& name : order) {
    const auto& [value, unit] = m.at(name);
    std::printf("%s %s %s %s\n", w.name.c_str(), name.c_str(),
                json_number(value).c_str(), unit.c_str());
  }
  std::fprintf(stderr,
               "%s: open loop %lld offered (%lld served, %lld shed, %lld "
               "rejected, %lld expired), %lld responses checked, send lag "
               "p99 %.3f ms, host %.2f GFLOP/s\n",
               w.name.c_str(), static_cast<long long>(o.offered),
               static_cast<long long>(o.served),
               static_cast<long long>(o.shed),
               static_cast<long long>(o.rejected),
               static_cast<long long>(o.expired),
               static_cast<long long>(check.checked), send_lag_p99,
               host_gflops);

  const std::string metrics = metrics_json(m, order);
  if (!args.record_file.empty()) {
    if (std::FILE* f = std::fopen(args.record_file.c_str(), "a")) {
      std::fprintf(
          f,
          "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
          "\"seconds\": %s, \"valid\": %s, \"correct\": %s, \"attempted\": "
          "%lld, \"failed\": %lld, \"meta\": {\"git\": \"%s\", \"threads\": "
          "%d, \"simd\": \"%s\", \"int8_isa\": \"%s\", \"host_ref_gflops\": "
          "%s}, \"metrics\": %s}\n",
          w.name.c_str(), static_cast<unsigned long long>(args.seed),
          args.trace ? 1 : 0, json_number(args.seconds).c_str(),
          valid ? "true" : "false", correct ? "true" : "false",
          static_cast<long long>(attempted), static_cast<long long>(failed),
          build_git_describe(), global_pool().size() + 1,
          nn::simd_isa_name(), nn::int8_isa_name(),
          json_number(host_gflops).c_str(), metrics.c_str());
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace antidote::suite

int main(int argc, char** argv) {
  // A fixed threshold keeps glibc from raising it as the set-up servers'
  // arenas are freed, which made the resident set depend on allocation
  // history: large blocks are always mapped fresh and returned on free.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const antidote::suite::Args args = antidote::suite::parse_args(argc, argv);
  try {
    return antidote::suite::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "antidote_suite: %s\n", e.what());
    return 1;
  }
}
