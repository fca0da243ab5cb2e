// The serving benchmark suite: four seeded workloads driven through an
// in-process serving::InferenceServer, an untraced run for the end-to-end
// metrics and a traced replay for the per-layer ones. See README.md for
// what each workload and metric is for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "models/convnet.h"
#include "plan/plan.h"
#include "serving/server.h"
#include "tensor/tensor.h"

namespace antidote::suite {

// How a served response is checked against the oracle replica.
enum class Check {
  kBitwise,     // f32 fixed ratios: bitwise equal to the module walk
  kInt8,        // within the relative logit budget of the f32 oracle
  kStructural,  // finite logits and predicted == argmax
};

enum class Inputs {
  kIid,          // i.i.d. N(0, 1) images
  kShared,       // every kSharedRun requests share a base image + noise
  kAdversarial,  // serving::AdversarialGenerator(kMixed)
};

struct Workload {
  std::string name;
  float width = 0.25f;
  int image = 32;
  int classes = 10;
  plan::NumericRegime regime = plan::NumericRegime::kF32;
  float channel_drop = 0.5f;
  float spatial_drop = 0.3f;
  int max_batch = 8;
  Inputs inputs = Inputs::kIid;
  Check check = Check::kBitwise;
  // Every check_every-th response is compared with the oracle.
  int check_every = 16;
  double slo_ms = 50.0;
  // Open-loop arrival rate: a square wave of `high_rps` for `high_ms` then
  // `low_rps` for `low_ms`. Friendly workloads set high == low (a constant
  // rate, the ms fields unused); the hostile one alternates bursts with
  // recovery. Queueing amplifies the host's slow stretches into latency, so
  // the friendly rates are low (README.md, "Workloads").
  double high_rps = 100.0, high_ms = 0.0;
  double low_rps = 100.0, low_ms = 0.0;
  // Share of the run spent in the open loop; the rest is the closed loop.
  double open_share = 0.6;
  // The hostile workload runs the hardened server (latency controller,
  // cost-aware admission, compute cap, deadlines).
  bool hardened = false;
  double target_p95_ms = 25.0;
  double admission_ms = 50.0;
  double compute_cap = 0.6;
  double deadline_ms = 100.0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Model weights come from a fixed seed: only the inputs vary with --seed.
std::unique_ptr<models::ConvNet> make_net(const Workload& w);
core::PruneSettings prune_settings(const Workload& w);
serving::ServerConfig server_config(const Workload& w);

// The seeded input pool ([3, H, W] tensors), generated before any timing.
std::vector<Tensor> make_inputs(const Workload& w, uint64_t seed, int count);

// --- serving phases (serve.cc) ---------------------------------------------

enum class Outcome { kServed, kExpired, kShed, kRejected, kError };

struct RequestRecord {
  int input = 0;            // index into the input pool
  double due_ms = 0.0;      // scheduled send time, from the open_origin_ns
  double sent_ms = 0.0;     // actual submit call start
  double submit_us = 0.0;   // duration of the submit call
  double done_ms = 0.0;     // sent + queue_ms + batch_ms
  double queue_ms = 0.0;    // InferenceResult::queue_ms
  double batch_ms = 0.0;    // InferenceResult::batch_ms
  int batch_size = 0;
  Outcome outcome = Outcome::kError;
  double latency_ms() const { return done_ms - due_ms; }
};

// Logits of one served response kept for the oracle comparison.
struct Sample {
  int input = 0;
  int predicted = -1;
  std::vector<float> logits;
};

struct ServeResult {
  double setup_s = 0.0;
  // Closed loop: completions per second over consecutive windows of full
  // batches (empty for the hostile workload, which has no closed loop).
  std::vector<double> closed_window_rps;
  int64_t closed_completed = 0;
  int64_t closed_errors = 0;
  double open_s = 0.0;
  std::vector<RequestRecord> open;  // one per scheduled open-loop request
  std::vector<Sample> samples;      // every check_every-th response
  std::vector<double> rss_bytes;    // sampled during the measured phases
  uint64_t open_capped = 0;  // ServerStats capped_requests in the open loop
  // Sampled by the generator during the open loop (0 without controller).
  double controller_offset = 0.0;
  double admission_cost_ms = 0.0;
  bool has_controller = false;
  double channel_keep = 1.0, spatial_keep = 1.0;  // controller summary
  // Origin of the open-loop times (due_ms, sent_ms, done_ms) on the steady
  // clock (ns), so the request spans can be placed on the trace timeline.
  int64_t open_origin_ns = 0;
};

struct ServeOptions {
  double seconds = 10.0;
  // Set-ups timed before each open loop, besides the serving server's own.
  int setups_per_round = 3;
  int warmup_requests = 200;
};

ServeResult run_serving(const Workload& w, const std::vector<Tensor>& pool,
                        const ServeOptions& opt);

// --- traced replay (replay.cc) ---------------------------------------------

using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct ReplayResult {
  Metrics metrics;               // plan./core./nn./tensor./bench.*
  std::string plan_events_json;  // Chrome trace events of the traced passes
};

ReplayResult run_replay(const Workload& w, const std::vector<Tensor>& pool,
                        double seconds);

// --- reporting helpers (report.cc) -----------------------------------------

// Exact percentile (nearest rank) of a sample; 0 for an empty one.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
std::string json_number(double v);
// Resident set of this process now, in bytes.
double current_rss_bytes();
// A fixed naive matmul timed on this host, in GFLOP/s.
double host_ref_gflops();

}  // namespace antidote::suite
