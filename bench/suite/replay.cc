// Per-layer replay: the workload's inputs run at max_batch through a
// bench-owned replica (ConvNet + DynamicPruningEngine + ExecutionContext),
// first untraced, then with the obs::Tracer armed. Plan counters come from
// the untraced passes, phase times from the traced ones.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "core/engine.h"
#include "nn/execution_context.h"
#include "obs/trace.h"
#include "suite.h"

namespace antidote::suite {

namespace {

using Clock = std::chrono::steady_clock;

// Ring capacity per trace slot; large enough that the traced passes of
// every workload fit without wrapping (bench.trace_dropped_events shows it).
constexpr size_t kTraceEventsPerSlot = size_t{1} << 16;
constexpr int kMaxTracedPasses = 12;

struct PassCounters {
  double groups_raw = 0, groups = 0, merged = 0, extra_mac_frac = 0;
  double kept_mac_frac = 0, capped = 0, channel_keep = 0, spatial_keep = 0;
  int passes = 0;
};

}  // namespace

ReplayResult run_replay(const Workload& w, const std::vector<Tensor>& pool,
                        double seconds) {
  ReplayResult out;
  Metrics& m = out.metrics;
  auto net = make_net(w);
  core::DynamicPruningEngine engine(*net, prune_settings(w));
  if (w.hardened) net->set_compute_cap(w.compute_cap);
  const int n = w.max_batch;
  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net->inference_plan(3, w.image, w.image);
  plan.reserve(ctx.workspace(), n);

  const int64_t sample_floats = pool[0].size();
  int64_t next_input = 0;
  const auto run_pass = [&] {
    ctx.begin_pass();
    Tensor x = ctx.alloc({n, 3, w.image, w.image});
    for (int i = 0; i < n; ++i) {
      const Tensor& src = pool[static_cast<size_t>(next_input++) % pool.size()];
      std::memcpy(x.data() + i * sample_floats, src.data(),
                  static_cast<size_t>(sample_floats) * sizeof(float));
    }
    const Clock::time_point t0 = Clock::now();
    net->forward(x, ctx);
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  for (int i = 0; i < 3; ++i) run_pass();  // warm caches and EWMAs

  // Untraced passes: forward time and plan counters.
  const int64_t hits0 = plan.pack_cache_hits();
  const int64_t misses0 = plan.pack_cache_misses();
  const int64_t bypass0 = plan.pack_cache_bypass();
  const double dense_macs =
      static_cast<double>(plan.dense_macs_per_sample()) * n;
  std::vector<double> untraced_ms;
  PassCounters pc;
  const Clock::time_point stop =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 0.7 * 1e6));
  while (untraced_ms.size() < 8 || Clock::now() < stop) {
    untraced_ms.push_back(run_pass());
    pc.groups_raw += plan.last_mask_groups_raw();
    pc.groups += plan.last_mask_groups();
    pc.merged += plan.last_mask_groups() < plan.last_mask_groups_raw();
    pc.extra_mac_frac += plan.last_coarsen_extra_mac_frac();
    pc.kept_mac_frac += static_cast<double>(plan.last_macs()) / dense_macs;
    pc.capped += plan.last_capped_samples();
    const auto keep = engine.last_keep_stats();
    pc.channel_keep += keep.mean_channel_keep;
    pc.spatial_keep += keep.mean_spatial_keep;
    ++pc.passes;
  }
  const double passes = pc.passes;
  const int64_t hits = plan.pack_cache_hits() - hits0;
  const int64_t misses = plan.pack_cache_misses() - misses0;
  const double forward_p50 = median(untraced_ms);
  const double channel_keep = pc.channel_keep / passes;
  const double spatial_keep = pc.spatial_keep / passes;
  const double predicted =
      plan::predict_batch_ms(plan.cost_snapshot(), channel_keep, spatial_keep);

  m["plan.forward_ms_p50"] = {forward_p50, "ms"};
  m["plan.kept_mac_pct"] = {100.0 * pc.kept_mac_frac / passes, "%"};
  m["plan.groups_raw_mean"] = {pc.groups_raw / passes, "count"};
  m["plan.groups_mean"] = {pc.groups / passes, "count"};
  m["plan.coarsen_merge_pct"] = {100.0 * pc.merged / passes, "%"};
  m["plan.coarsen_extra_mac_pct"] = {100.0 * pc.extra_mac_frac / passes, "%"};
  m["plan.pack_hit_pct"] = {
      hits + misses > 0 ? 100.0 * static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
      "%"};
  m["plan.pack_bypass_per_pass"] = {
      static_cast<double>(plan.pack_cache_bypass() - bypass0) / passes,
      "count"};
  m["plan.arena_mib"] = {
      static_cast<double>(plan.arena_bytes(n)) / (1024.0 * 1024.0), "MiB"};
  m["plan.capped_samples_per_pass"] = {pc.capped / passes, "count"};
  m["plan.cost_residual_pct"] = {
      100.0 * (predicted - forward_p50) / forward_p50, "%"};
  m["core.channel_keep"] = {channel_keep, "ratio"};
  m["core.spatial_keep"] = {spatial_keep, "ratio"};

  // Traced passes: phase spans, over the rest of the budget and at most
  // kMaxTracedPasses so the rings never wrap.
  const int traced_passes = std::clamp(
      static_cast<int>(seconds * 0.3 * 1000.0 / std::max(forward_p50, 1e-3)),
      4, kMaxTracedPasses);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(kTraceEventsPerSlot);
  run_pass();
  tracer.clear();  // drop the first armed pass (slot claims, cold rings)
  std::vector<double> traced_ms;
  double traced_macs = 0.0;
  for (int p = 0; p < traced_passes; ++p) {
    traced_ms.push_back(run_pass());
    traced_macs += static_cast<double>(plan.last_macs());
  }
  tracer.disable();

  double step_conv = 0, step_gate = 0, step_other = 0;
  double phase_ms[static_cast<int>(obs::Phase::kCount)] = {};
  double tiles = 0;
  for (const obs::PhaseStat& s : tracer.aggregate()) {
    phase_ms[static_cast<int>(s.phase)] += s.total_ms;
    if (s.phase == obs::Phase::kTile) tiles += static_cast<double>(s.calls);
    if (s.phase != obs::Phase::kStep || s.op < 0) continue;
    switch (plan.ops()[static_cast<size_t>(s.op)].kind) {
      case plan::OpKind::kConv: step_conv += s.total_ms; break;
      case plan::OpKind::kGate: step_gate += s.total_ms; break;
      default: step_other += s.total_ms; break;
    }
  }
  const auto per_pass = [&](obs::Phase p) {
    return phase_ms[static_cast<int>(p)] / traced_passes;
  };
  const double gemm_ms = phase_ms[static_cast<int>(obs::Phase::kGemm)];
  const double traced_p50 = median(traced_ms);

  m["plan.step_ms.conv"] = {step_conv / traced_passes, "ms"};
  m["plan.step_ms.other"] = {step_other / traced_passes, "ms"};
  m["core.gate_ms"] = {step_gate / traced_passes, "ms"};
  m["nn.im2col_ms"] = {per_pass(obs::Phase::kIm2col), "ms"};
  m["nn.gather_ms"] = {per_pass(obs::Phase::kGather), "ms"};
  m["nn.pack_ms"] = {per_pass(obs::Phase::kPack), "ms"};
  m["nn.epilogue_ms"] = {per_pass(obs::Phase::kEpilogue), "ms"};
  m["nn.scatter_ms"] = {per_pass(obs::Phase::kScatter), "ms"};
  m["nn.quant_ms"] = {per_pass(obs::Phase::kQuant), "ms"};
  m["nn.tile_count"] = {tiles / traced_passes, "count"};
  m["tensor.gemm_ms"] = {per_pass(obs::Phase::kGemm), "ms"};
  m["tensor.gemm_gmacs"] = {
      gemm_ms > 0.0 ? traced_macs / (gemm_ms * 1e6) : 0.0, "GMAC/s"};
  m["bench.trace_overhead_pct"] = {
      100.0 * (traced_p50 - forward_p50) / forward_p50, "%"};
  m["bench.trace_dropped_events"] = {
      static_cast<double>(tracer.dropped_events()), "count"};

  // Chrome trace events of the traced passes, one lane per trace slot.
  std::string& ev = out.plan_events_json;
  char buf[256];
  for (int slot = 0; slot < tracer.slots_in_use(); ++slot) {
    const obs::TraceRing& ring = tracer.ring(slot);
    for (size_t i = 0; i < ring.size(); ++i) {
      const obs::TraceEvent& e = ring.chronological(i);
      const std::string op =
          e.op >= 0 ? plan.ops()[static_cast<size_t>(e.op)].name : "-";
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s:%s\",\"cat\":\"plan\",\"ph\":\"X\","
                    "\"pid\":2,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                    op.c_str(),
                    obs::phase_name(static_cast<obs::Phase>(e.phase)), slot,
                    static_cast<double>(e.t0_ns) / 1e3,
                    static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
      ev += buf;
    }
  }
  engine.remove();
  return out;
}

}  // namespace antidote::suite
