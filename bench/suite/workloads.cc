// The four workloads. README.md says what each one exercises and bypasses.
#include <chrono>

#include "base/rng.h"
#include "models/factory.h"
#include "serving/adversarial.h"
#include "suite.h"

namespace antidote::suite {

namespace {

// Weight seed shared by every replica, the oracle and the replay replica.
constexpr uint64_t kWeightSeed = 7;
// cifar-shared: requests per shared base image, and the per-request noise.
// Noise of 0.02 would make every sample's spatial mask distinct; at 0.002
// about half of a batch shares exact masks and coarsening merges the rest.
constexpr int kSharedRun = 64;
constexpr float kSharedNoise = 0.002f;

std::vector<Workload> build_workloads() {
  std::vector<Workload> out;

  // Every sample draws its own mask: the worst case for batching.
  Workload distinct;
  distinct.name = "cifar-distinct";
  out.push_back(distinct);

  // One factor changed, input sharing: grouping and coarsening get work.
  Workload shared = distinct;
  shared.name = "cifar-shared";
  shared.inputs = Inputs::kShared;
  out.push_back(shared);

  // Paper resolution: tiling, int8 and a large arena, all idle at 32x32.
  Workload imagenet;
  imagenet.name = "imagenet224-int8";
  imagenet.width = 0.125f;
  imagenet.image = 224;
  imagenet.classes = 100;
  imagenet.regime = plan::NumericRegime::kInt8;
  imagenet.spatial_drop = 0.f;
  imagenet.max_batch = 4;
  imagenet.check = Check::kInt8;
  // The int8 pass rate is a share, so every response is checked (the
  // oracle runs once per distinct input).
  imagenet.check_every = 1;
  imagenet.slo_ms = 100.0;
  // A batch here costs about its size times one sample, so batching buys
  // no headroom: at 40 rps the worker is busy half to three quarters of
  // the time, and with random arrivals the median latency spread 0.14 over
  // ten seeds, against 0.05 at 25 rps. 25 rps over 80% of the run gives
  // about 500 requests.
  imagenet.high_rps = imagenet.low_rps = 25.0;
  imagenet.open_share = 0.8;
  out.push_back(imagenet);

  // Hostile inputs in short bursts the server sheds and then drains, so
  // every period of the wave starts from the same state. Each burst loses a
  // number of requests that follows the host's speed, so the calm stretch
  // is long enough (1.6 s periods, 154 rps mean) that the bursts' losses are
  // a small share of the requests offered: with 375 ms calm stretches the
  // server ran near saturation and the hostile metrics spread 0.10-0.20.
  Workload adversarial = distinct;
  adversarial.name = "adversarial-mixed";
  adversarial.inputs = Inputs::kAdversarial;
  adversarial.check = Check::kStructural;
  adversarial.hardened = true;
  adversarial.open_share = 1.0;
  adversarial.slo_ms = 100.0;
  adversarial.high_rps = 2000.0;
  adversarial.high_ms = 25.0;
  adversarial.low_rps = 125.0;
  adversarial.low_ms = 1575.0;
  out.push_back(adversarial);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<models::ConvNet> make_net(const Workload& w) {
  Rng rng(kWeightSeed);
  auto net = models::make_model("vgg16", w.classes, w.width, rng);
  net->set_training(false);
  net->set_numeric_regime(w.regime);
  return net;
}

core::PruneSettings prune_settings(const Workload& w) {
  // VGG16 has 5 blocks.
  return core::PruneSettings::uniform(5, w.channel_drop, w.spatial_drop);
}

serving::ServerConfig server_config(const Workload& w) {
  serving::ServerConfig config;
  config.policy.max_batch = w.max_batch;
  config.policy.max_wait = std::chrono::microseconds(2000);
  config.policy.num_workers = 1;
  config.queue_capacity = 64;
  config.prune = prune_settings(w);
  if (w.hardened) {
    serving::LatencyController::Config lc;
    lc.target_p95_ms = w.target_p95_ms;
    config.latency = lc;
    config.admission.enabled = true;
    config.admission.max_queue_ms = w.admission_ms;
    config.compute_cap = w.compute_cap;
  }
  return config;
}

std::vector<Tensor> make_inputs(const Workload& w, uint64_t seed,
                                int count) {
  std::vector<Tensor> pool;
  pool.reserve(static_cast<size_t>(count));
  // Not seed * 0x9E3779B97F4A7C15: SplitMix64 steps its state by that
  // constant, so each seed's stream would be seed 0's shifted by `seed`
  // draws, and neighbouring seeds would share almost every input.
  Rng rng(seed + 17);
  switch (w.inputs) {
    case Inputs::kIid:
      for (int i = 0; i < count; ++i) {
        pool.push_back(Tensor::randn({3, w.image, w.image}, rng));
      }
      break;
    case Inputs::kShared: {
      Tensor base;
      for (int i = 0; i < count; ++i) {
        if (i % kSharedRun == 0) {
          base = Tensor::randn({3, w.image, w.image}, rng);
        }
        Tensor x = Tensor::randn({3, w.image, w.image}, rng, 0.f,
                                 kSharedNoise);
        for (int64_t k = 0; k < x.size(); ++k) x.data()[k] += base.data()[k];
        pool.push_back(x);
      }
      break;
    }
    case Inputs::kAdversarial: {
      serving::AdversarialGenerator gen(3, w.image, w.image,
                                        serving::AdversarialProfile::kMixed,
                                        seed);
      for (int i = 0; i < count; ++i) pool.push_back(gen.next_input());
      break;
    }
  }
  return pool;
}

}  // namespace antidote::suite
