#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <optional>
#include <thread>

#include "base/error.h"
#include "base/flags.h"
#include "base/rng.h"
#include "base/timer.h"
#include "core/antidote.h"
#include "models/summary.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "serving/serving.h"

namespace antidote::cli {

namespace {

// Registers the flags shared by every data-touching command.
void add_common_flags(FlagSet& flags) {
  flags.add_string("model", "small_cnn",
                   "architecture: vgg16 | resnet20 | resnet56 | small_cnn");
  flags.add_double("width", 1.0, "channel width multiplier");
  flags.add_int("classes", 4, "number of classes");
  flags.add_int("image-size", 16, "synthetic image height/width");
  flags.add_int("resolution", 0,
                "workload resolution (synthetic image height/width); "
                "overrides --image-size when > 0 — use for the large "
                "ImageNet-style classes (e.g. --resolution=224)");
  flags.add_int("train-size", 256, "synthetic training samples");
  flags.add_int("test-size", 128, "synthetic test samples");
  flags.add_int("seed", 7, "global seed (init, data, shuffling)");
  flags.add_int("batch", 32, "batch size");
}

// The effective square image size: --resolution wins when given (the
// 224x224 workload-class knob), --image-size otherwise.
int image_size_from_flags(const FlagSet& flags) {
  const int resolution = flags.get_int("resolution");
  return resolution > 0 ? resolution : flags.get_int("image-size");
}

data::DatasetPair make_data(const FlagSet& flags) {
  data::SyntheticSpec spec;
  spec.name = "cli-syn";
  spec.num_classes = flags.get_int("classes");
  spec.height = spec.width = image_size_from_flags(flags);
  spec.train_size = flags.get_int("train-size");
  spec.test_size = flags.get_int("test-size");
  spec.seed = static_cast<uint64_t>(flags.get_int("seed")) * 7919 + 3;
  return data::make_synthetic_pair(spec);
}

std::unique_ptr<models::ConvNet> make_net(const FlagSet& flags) {
  Rng rng(static_cast<uint64_t>(flags.get_int("seed")));
  return models::make_model(flags.get_string("model"),
                            flags.get_int("classes"),
                            static_cast<float>(flags.get_double("width")),
                            rng);
}

// Expands a ratio list flag: empty -> all zeros; one entry -> broadcast;
// otherwise must match the model's block count.
std::vector<float> block_ratios(const std::vector<float>& raw,
                                int num_blocks, const char* flag_name) {
  if (raw.empty()) return std::vector<float>(static_cast<size_t>(num_blocks));
  if (raw.size() == 1) {
    return std::vector<float>(static_cast<size_t>(num_blocks), raw[0]);
  }
  AD_CHECK_EQ(static_cast<int>(raw.size()), num_blocks)
      << " --" << flag_name << " needs 1 or " << num_blocks << " entries";
  return raw;
}

core::PruneSettings settings_from_flags(const FlagSet& flags,
                                        models::ConvNet& net) {
  core::PruneSettings s;
  s.channel_drop = block_ratios(flags.get_float_list("channel-drop"),
                                net.num_blocks(), "channel-drop");
  s.spatial_drop = block_ratios(flags.get_float_list("spatial-drop"),
                                net.num_blocks(), "spatial-drop");
  const std::string order = flags.get_string("order");
  if (order == "attention") {
    s.order = core::MaskOrder::kAttention;
  } else if (order == "random") {
    s.order = core::MaskOrder::kRandom;
  } else if (order == "inverse") {
    s.order = core::MaskOrder::kInverseAttention;
  } else {
    AD_CHECK(false) << " --order must be attention|random|inverse, got "
                    << order;
  }
  return s;
}

void add_prune_flags(FlagSet& flags) {
  flags.add_float_list("channel-drop", "",
                       "per-block channel drop ratios (1 value broadcasts)");
  flags.add_float_list("spatial-drop", "",
                       "per-block spatial drop ratios (1 value broadcasts)");
  flags.add_string("order", "attention",
                   "mask ordering: attention | random | inverse");
}

// True when the settings drop any channel or position.
bool drops_anything(const core::PruneSettings& s) {
  const auto nonzero = [](const std::vector<float>& v) {
    return std::any_of(v.begin(), v.end(), [](float x) { return x > 0.f; });
  };
  return nonzero(s.channel_drop) || nonzero(s.spatial_drop);
}

// Registers the plan flags every plan-running command shares.
void add_plan_flags(FlagSet& flags) {
  flags.add_string("quantize", "f32",
                   "numeric regime: f32 | int8 (int8 runs conv steps "
                   "through the quantized kernels; spatially-masked groups "
                   "fall back to f32)");
  flags.add_string("coarsen", "auto",
                   "similar-mask union coarsening: off | auto (auto merges "
                   "near-identical mask groups into union supersets when "
                   "the plan's latency model predicts a win; output stays "
                   "bitwise identical)");
}

// Applies the plan flags to `net`. Both settings are sticky: they hold for
// the cached plan and for every plan `net` compiles later.
void apply_plan_flags(const FlagSet& flags, models::ConvNet& net) {
  const std::string q = flags.get_string("quantize");
  AD_CHECK(q == "f32" || q == "int8")
      << " --quantize must be f32|int8, got " << q;
  net.set_numeric_regime(q == "int8" ? plan::NumericRegime::kInt8
                                     : plan::NumericRegime::kF32);
  const std::string c = flags.get_string("coarsen");
  AD_CHECK(c == "off" || c == "auto")
      << " --coarsen must be off|auto, got " << c;
  net.set_coarsen_policy(c == "off" ? plan::CoarsenMode::kOff
                                    : plan::CoarsenMode::kAuto);
}

core::TrainConfig train_config(const FlagSet& flags) {
  core::TrainConfig tc;
  tc.epochs = flags.get_int("epochs");
  tc.batch_size = flags.get_int("batch");
  tc.base_lr = flags.get_double("lr");
  tc.augment = flags.get_bool("augment");
  tc.seed = static_cast<uint64_t>(flags.get_int("seed")) + 17;
  tc.verbose = true;
  return tc;
}

void report_eval(models::ConvNet& net, const data::Dataset& test, int batch,
                 int64_t dense_macs) {
  const core::EvalResult r = core::evaluate(net, test, batch);
  std::printf("test accuracy:  %.4f\n", r.accuracy);
  std::printf("MACs per image: %.0f (dense %lld, reduction %.1f%%)\n",
              r.mean_macs_per_sample, static_cast<long long>(dense_macs),
              100.0 * (1.0 - r.mean_macs_per_sample /
                                 static_cast<double>(dense_macs)));
}

int cmd_summary(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli summary");
  add_common_flags(flags);
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  auto net = make_net(flags);
  const int size = image_size_from_flags(flags);
  std::cout << net->model_name() << " (width "
            << flags.get_double("width") << "):\n"
            << models::summarize(*net, 3, size, size).to_string();
  return 0;
}

int cmd_train(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli train");
  add_common_flags(flags);
  flags.add_int("epochs", 8, "training epochs (cosine schedule)");
  flags.add_double("lr", 0.08, "peak learning rate");
  flags.add_bool("augment", false, "pad-4 crop + hflip augmentation");
  flags.add_string("out", "", "checkpoint path to write (optional)");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  auto data = make_data(flags);
  auto net = make_net(flags);
  core::Trainer trainer(*net, *data.train, train_config(flags));
  trainer.fit();
  const int size = image_size_from_flags(flags);
  const int64_t dense =
      models::measure_dense_flops(*net, 3, size, size).total_macs;
  report_eval(*net, *data.test, flags.get_int("batch"), dense);
  if (const std::string out = flags.get_string("out"); !out.empty()) {
    nn::save_checkpoint(*net, out);
    std::printf("checkpoint written: %s\n", out.c_str());
  }
  return 0;
}

int cmd_ttd(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli ttd");
  add_common_flags(flags);
  add_prune_flags(flags);
  flags.add_int("epochs", 1, "epochs per ascent level");
  flags.add_int("final-epochs", 2, "consolidation epochs at target ratios");
  flags.add_double("lr", 0.05, "peak learning rate");
  flags.add_double("warmup", 0.1, "ratio-ascent warm-up value");
  flags.add_double("step", 0.05, "ratio-ascent step size");
  flags.add_bool("augment", false, "pad-4 crop + hflip augmentation");
  flags.add_string("from", "", "checkpoint to initialize from (optional)");
  flags.add_string("out", "", "checkpoint path to write (optional)");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  auto data = make_data(flags);
  auto net = make_net(flags);
  if (const std::string from = flags.get_string("from"); !from.empty()) {
    nn::load_checkpoint(*net, from);
  }
  core::TtdConfig cfg;
  cfg.target = settings_from_flags(flags, *net);
  cfg.warmup_ratio = static_cast<float>(flags.get_double("warmup"));
  cfg.step = static_cast<float>(flags.get_double("step"));
  cfg.max_epochs_per_level = flags.get_int("epochs");
  cfg.final_epochs = flags.get_int("final-epochs");
  cfg.train = train_config(flags);
  cfg.train.epochs = 1;
  core::TtdTrainer ttd(*net, *data.train, cfg);
  const core::TtdResult result = ttd.run();
  std::printf("TTD: %d epochs over %zu levels, final train acc %.4f\n",
              result.total_epochs, result.levels.size(),
              result.final_train_accuracy);
  const int size = image_size_from_flags(flags);
  const int64_t dense =
      models::measure_dense_flops(*net, 3, size, size).total_macs;
  report_eval(*net, *data.test, flags.get_int("batch"), dense);
  ttd.engine().remove();
  if (const std::string out = flags.get_string("out"); !out.empty()) {
    nn::save_checkpoint(*net, out);
    std::printf("checkpoint written: %s\n", out.c_str());
  }
  return 0;
}

int cmd_eval(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli eval");
  add_common_flags(flags);
  add_prune_flags(flags);
  add_plan_flags(flags);
  flags.add_string("ckpt", "", "checkpoint to evaluate (required)");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  AD_CHECK(!flags.get_string("ckpt").empty()) << " --ckpt is required";
  auto data = make_data(flags);
  auto net = make_net(flags);
  nn::load_checkpoint(*net, flags.get_string("ckpt"));
  apply_plan_flags(flags, *net);
  const int size = image_size_from_flags(flags);
  const int64_t dense =
      models::measure_dense_flops(*net, 3, size, size).total_macs;
  core::DynamicPruningEngine engine(*net, settings_from_flags(flags, *net));
  report_eval(*net, *data.test, flags.get_int("batch"), dense);
  engine.remove();
  return 0;
}

int cmd_sensitivity(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli sensitivity");
  add_common_flags(flags);
  flags.add_string("ckpt", "", "checkpoint to analyze (required)");
  flags.add_bool("spatial", false, "sweep spatial instead of channel ratios");
  flags.add_bool("per-site", false, "per-layer curves instead of per-block");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  AD_CHECK(!flags.get_string("ckpt").empty()) << " --ckpt is required";
  auto data = make_data(flags);
  auto net = make_net(flags);
  nn::load_checkpoint(*net, flags.get_string("ckpt"));

  core::SensitivitySweep sweep;
  sweep.spatial = flags.get_bool("spatial");
  sweep.batch_size = flags.get_int("batch");
  const auto curves =
      flags.get_bool("per-site")
          ? core::site_sensitivity(*net, *data.test, sweep)
          : core::block_sensitivity(*net, *data.test, sweep);

  std::printf("%-8s", "ratio");
  const char* unit = flags.get_bool("per-site") ? "site" : "block";
  for (const auto& c : curves) std::printf("  %s%d", unit, c.block + 1);
  std::printf("\n");
  for (size_t i = 0; i < sweep.ratios.size(); ++i) {
    std::printf("%-8.1f", sweep.ratios[i]);
    for (const auto& c : curves) std::printf("  %6.3f", c.accuracy[i]);
    std::printf("\n");
  }
  return 0;
}

// --- tracing / profiling helpers -------------------------------------------

// Flags shared by `trace` and `plan-dump --profile`.
void add_trace_flags(FlagSet& flags) {
  flags.add_int("passes", 3, "traced forward passes (after one warm-up)");
  flags.add_int("distinct", 4,
                "unique images duplicated to fill the batch (duplicates "
                "draw identical masks, so the batch groups into <= this "
                "many compacted GEMMs)");
  flags.add_int("events", 16384, "trace-ring capacity per worker");
  flags.add_bool("counters", false,
                 "read perf_event hardware counters per span (needs "
                 "perf_event_paranoid <= 2; falls back to timing-only)");
}

// A batch of `batch` images cycling through `distinct` unique random ones
// (duplicates draw identical masks, so the batch groups into <= distinct
// compacted GEMMs). The same seed gives the same batch.
Tensor duplicated_batch(int image_size, int batch, int distinct,
                        uint64_t seed) {
  Rng rng(seed * 31 + 11);
  AD_CHECK_GT(distinct, 0);
  Tensor uniq = Tensor::randn({distinct, 3, image_size, image_size}, rng);
  Tensor x({batch, 3, image_size, image_size});
  const int64_t sample = uniq.size() / distinct;
  for (int i = 0; i < batch; ++i) {
    std::memcpy(x.data() + i * sample, uniq.data() + (i % distinct) * sample,
                static_cast<size_t>(sample) * sizeof(float));
  }
  return x;
}

// One plan forward of `x`, staged into the context's arena the way a
// serving worker stages its batch.
void run_staged_pass(models::ConvNet& net, nn::ExecutionContext& ctx,
                     const Tensor& x) {
  ctx.begin_pass();
  Tensor staged = ctx.alloc(x.shape());
  std::memcpy(staged.data(), x.data(),
              static_cast<size_t>(x.size()) * sizeof(float));
  net.forward(staged, ctx);
}

// Runs `passes` plan forwards of duplicated_batch() (one warm-up pass
// first, then Tracer::clear(), so the recorded passes see warm CPU caches
// and a reserved arena). Returns the plan.
plan::InferencePlan& run_traced_passes(models::ConvNet& net, int image_size,
                                       int batch, int distinct, int passes,
                                       uint64_t seed) {
  net.set_training(false);
  const Tensor x = duplicated_batch(image_size, batch, distinct, seed);
  nn::ExecutionContext ctx;
  plan::InferencePlan& plan = net.inference_plan(3, image_size, image_size);
  plan.reserve(ctx.workspace(), batch);
  run_staged_pass(net, ctx, x);
  obs::Tracer::instance().clear();  // discard the warm-up's spans
  for (int p = 0; p < passes; ++p) run_staged_pass(net, ctx, x);
  return plan;
}

// Builds the pruning engine for trace/profile runs. Falls back to a 0.3
// channel drop when the user requested none: an all-dense run has no mask
// groups, and the whole point of the timeline is the grouped regime.
std::unique_ptr<core::DynamicPruningEngine> make_trace_engine(
    const FlagSet& flags, models::ConvNet& net, bool* defaulted) {
  core::PruneSettings settings = settings_from_flags(flags, net);
  *defaulted = false;
  if (!drops_anything(settings)) {
    settings.channel_drop.assign(settings.channel_drop.size(), 0.3f);
    *defaulted = true;
  }
  return std::make_unique<core::DynamicPruningEngine>(net, settings);
}

// Per-op/per-phase flame-style report from the tracer's aggregation.
// `step` rows are wall time on the driving thread; phase rows are CPU time
// summed across the workers that executed them (wrk = how many, spread =
// max worker / mean worker — a straggler shows up as spread >> 1).
void print_profile_report(const plan::InferencePlan& plan, int passes) {
  const std::vector<obs::PhaseStat> stats =
      obs::Tracer::instance().aggregate();
  double total_step_ms = 0.0;
  for (const obs::PhaseStat& s : stats) {
    if (s.phase == obs::Phase::kStep && s.op >= 0) total_step_ms += s.total_ms;
  }
  std::printf(
      "\nprofile: %d passes, %llu spans (%llu dropped), total step wall "
      "%.3f ms (%.3f ms/pass)\n",
      passes,
      static_cast<unsigned long long>(obs::Tracer::instance().total_events()),
      static_cast<unsigned long long>(
          obs::Tracer::instance().dropped_events()),
      total_step_ms, total_step_ms / std::max(1, passes));
  std::printf(
      "%-4s %-18s %-9s %6s %9s %9s %6s %6s %8s %8s %7s %4s %7s\n", "#",
      "name", "phase", "calls", "cpu_ms", "ms/pass", "%", "IPC", "L1dM/kI",
      "LLCM/kI", "stall%", "wrk", "spread");
  const auto counter_cols = [](const obs::PhaseStat& s, char* buf,
                               size_t cap) {
    const obs::HwCounters& c = s.counters;
    const bool ipc_ok = c.has(obs::CounterId::kCycles) &&
                        c.has(obs::CounterId::kInstructions) && c.cycles > 0;
    const bool inst_ok =
        c.has(obs::CounterId::kInstructions) && c.instructions > 0;
    char ipc[16] = "-", l1d[16] = "-", llc[16] = "-", stall[16] = "-";
    if (ipc_ok) {
      std::snprintf(ipc, sizeof(ipc), "%.2f",
                    static_cast<double>(c.instructions) /
                        static_cast<double>(c.cycles));
    }
    if (inst_ok && c.has(obs::CounterId::kL1dMisses)) {
      std::snprintf(l1d, sizeof(l1d), "%.2f",
                    1000.0 * static_cast<double>(c.l1d_misses) /
                        static_cast<double>(c.instructions));
    }
    if (inst_ok && c.has(obs::CounterId::kLlcMisses)) {
      std::snprintf(llc, sizeof(llc), "%.2f",
                    1000.0 * static_cast<double>(c.llc_misses) /
                        static_cast<double>(c.instructions));
    }
    if (ipc_ok && c.has(obs::CounterId::kStalledCycles)) {
      std::snprintf(stall, sizeof(stall), "%.1f",
                    100.0 * static_cast<double>(c.stalled_cycles) /
                        static_cast<double>(c.cycles));
    }
    std::snprintf(buf, cap, "%6s %8s %8s %7s", ipc, l1d, llc, stall);
  };
  char counters[64];
  const int num_ops = static_cast<int>(plan.ops().size());
  for (int op = -1; op < num_ops; ++op) {
    bool printed_op = false;
    for (const obs::PhaseStat& s : stats) {
      if (s.op != op) continue;
      const bool is_step = s.phase == obs::Phase::kStep;
      if (!printed_op) {
        printed_op = true;
        if (op >= 0) {
          std::printf("%-4d %-18s", op,
                      plan.ops()[static_cast<size_t>(op)].name.c_str());
        } else {
          std::printf("%-4s %-18s", "-", "(outside plan)");
        }
      } else {
        std::printf("%-4s %-18s", "", "");
      }
      counter_cols(s, counters, sizeof(counters));
      const double mean_slot_ms =
          s.active_slots > 0 ? s.total_ms / s.active_slots : 0.0;
      char spread[16] = "-";
      if (s.active_slots > 1 && mean_slot_ms > 0.0) {
        std::snprintf(spread, sizeof(spread), "%.2fx",
                      s.max_slot_ms / mean_slot_ms);
      }
      std::printf(
          " %-9s %6llu %9.3f %9.3f %5.1f%% %s %4d %7s\n",
          obs::phase_name(s.phase), static_cast<unsigned long long>(s.calls),
          s.total_ms, s.total_ms / std::max(1, passes),
          is_step && total_step_ms > 0.0 ? 100.0 * s.total_ms / total_step_ms
                                         : 0.0,
          counters, s.active_slots, spread);
    }
  }
}

// Per-op union-coarsening decisions of the plan's most recent pass, plus a
// measured off-vs-auto comparison (the "predicted vs measured merge win"
// line): the same batch is re-run under exact-identity grouping and under
// coarsening, timed whole-forward, so the planner's critical-path
// prediction can be checked against a realized number.
void print_coarsen_report(models::ConvNet& net, plan::InferencePlan& plan,
                          int image_size, int batch, int distinct,
                          int passes, uint64_t seed) {
  const plan::CoarsenMode mode = plan.coarsen();
  std::printf("\nmask coarsening: %s, last pass groups "
              "%d -> %d, union-added MACs %lld (%.2f%% of executed)\n",
              plan::coarsen_mode_name(mode),
              plan.last_mask_groups_raw(), plan.last_mask_groups(),
              static_cast<long long>(plan.last_coarsen_extra_macs()),
              100.0 * plan.last_coarsen_extra_mac_frac());
  std::printf("%-4s %-18s %12s %9s %12s %22s %8s\n", "#", "name",
              "groups", "extra_ch", "extra_MACs", "predicted_cost",
              "pred_win");
  for (size_t i = 0; i < plan.ops().size(); ++i) {
    const plan::PlanOp& op = plan.ops()[i];
    if (op.last_groups_raw <= 0) continue;
    char groups_col[24], pred_col[32], win_col[16];
    std::snprintf(groups_col, sizeof(groups_col), "%d -> %d",
                  op.last_groups_raw, op.last_groups);
    std::snprintf(pred_col, sizeof(pred_col), "%.3g -> %.3g",
                  op.last_coarsen_pred_before, op.last_coarsen_pred_after);
    if (op.last_coarsen_pred_after > 0.0) {
      std::snprintf(win_col, sizeof(win_col), "%.2fx",
                    op.last_coarsen_pred_before /
                        op.last_coarsen_pred_after);
    } else {
      std::snprintf(win_col, sizeof(win_col), "-");
    }
    std::printf("%-4zu %-18s %12s %9lld %12lld %22s %8s\n", i,
                op.name.c_str(), groups_col,
                static_cast<long long>(op.last_coarsen_extra_ch),
                static_cast<long long>(op.last_coarsen_extra_macs),
                pred_col, win_col);
  }
  if (mode != plan::CoarsenMode::kAuto) return;

  // Measured merge win: the same duplicated batch, timed whole-forward
  // under exact-identity grouping and under coarsening (warm arena, one
  // warm-up pass per mode).
  const Tensor x = duplicated_batch(image_size, batch, distinct, seed);
  nn::ExecutionContext ctx;
  plan.reserve(ctx.workspace(), batch);
  const auto timed = [&](plan::CoarsenMode timed_mode) {
    net.set_coarsen_policy(timed_mode);
    run_staged_pass(net, ctx, x);  // warm-up under this mode
    WallTimer timer;
    for (int p = 0; p < std::max(1, passes); ++p) run_staged_pass(net, ctx, x);
    return timer.millis() / std::max(1, passes);
  };
  const double off_ms = timed(plan::CoarsenMode::kOff);
  const double auto_ms = timed(plan::CoarsenMode::kAuto);
  net.set_coarsen_policy(mode);
  std::printf("measured: exact-identity %.3f ms/pass vs coarsened %.3f "
              "ms/pass (%.2fx win)\n",
              off_ms, auto_ms, auto_ms > 0.0 ? off_ms / auto_ms : 0.0);
}

// Records phase spans over a few plan passes and writes them as Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev). Each trace slot is
// one thread lane, so cross-group parallelism — several `group` spans
// overlapping in time on different lanes — is directly visible, as are
// straggler workers.
int cmd_trace(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli trace");
  add_common_flags(flags);
  add_prune_flags(flags);
  add_plan_flags(flags);
  add_trace_flags(flags);
  flags.add_string("out", "trace.json", "Chrome trace-event JSON path");
  flags.add_string("ckpt", "", "checkpoint to load first (optional)");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  const bool counters = flags.get_bool("counters");
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.enable(static_cast<size_t>(flags.get_int("events")),
                     counters)) {
    std::fprintf(stderr,
                 "trace: profiling is compiled out; rebuild with "
                 "-DANTIDOTE_PROFILE=ON\n");
    return 1;
  }
  auto net = make_net(flags);
  if (const std::string ckpt = flags.get_string("ckpt"); !ckpt.empty()) {
    nn::load_checkpoint(*net, ckpt);
  }
  apply_plan_flags(flags, *net);
  bool defaulted = false;
  auto engine = make_trace_engine(flags, *net, &defaulted);
  if (defaulted) {
    std::printf(
        "trace: no drop ratios given; defaulting to --channel-drop=0.3 so "
        "mask groups appear on the timeline\n");
  }
  const int passes = flags.get_int("passes");
  plan::InferencePlan& plan = run_traced_passes(
      *net, image_size_from_flags(flags), flags.get_int("batch"),
      flags.get_int("distinct"), passes,
      static_cast<uint64_t>(flags.get_int("seed")));
  tracer.disable();
  if (counters && !obs::thread_counters().available()) {
    std::printf(
        "trace: hardware counters unavailable (container or "
        "perf_event_paranoid > 2?); spans carry timing only\n");
  }
  const std::string out = flags.get_string("out");
  const bool ok = tracer.write_chrome_trace(out, [&](int op) {
    return op >= 0 && op < static_cast<int>(plan.ops().size())
               ? plan.ops()[static_cast<size_t>(op)].name
               : std::string("op") + std::to_string(op);
  });
  if (!ok) {
    std::fprintf(stderr, "trace: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf(
      "trace: %llu spans over %d worker lanes (%llu dropped), last pass "
      "mask groups %d -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
      static_cast<unsigned long long>(tracer.total_events()),
      tracer.slots_in_use(),
      static_cast<unsigned long long>(tracer.dropped_events()),
      plan.last_mask_groups(), out.c_str());
  return 0;
}

// Prints a model's compiled InferencePlan: the fused op table with
// per-op dense FLOPs, fusion flags (+bn/+res/+relu, mN = masked by the
// gate of block N) and the exact ahead-of-time arena footprint.
int cmd_plan_dump(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli plan-dump");
  add_common_flags(flags);
  add_prune_flags(flags);
  add_plan_flags(flags);
  add_trace_flags(flags);
  flags.add_string("ckpt", "", "checkpoint to load first (optional)");
  flags.add_bool("profile", false,
                 "run traced passes and append a per-op/per-phase profile "
                 "(self-ms, hardware counters, per-worker spread)");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }
  const bool profile = flags.get_bool("profile");
  auto net = make_net(flags);
  if (const std::string ckpt = flags.get_string("ckpt"); !ckpt.empty()) {
    nn::load_checkpoint(*net, ckpt);
  }
  std::unique_ptr<core::DynamicPruningEngine> engine;
  bool drops_defaulted = false;
  if (profile) {
    // The profile wants the masked regime on the table, so it inherits the
    // trace commands' default-drop fallback.
    engine = make_trace_engine(flags, *net, &drops_defaulted);
  } else {
    const core::PruneSettings settings = settings_from_flags(flags, *net);
    if (drops_anything(settings)) {
      engine = std::make_unique<core::DynamicPruningEngine>(*net, settings);
    }
  }
  net->set_training(false);
  apply_plan_flags(flags, *net);
  const int size = image_size_from_flags(flags);
  plan::InferencePlan& plan = net->inference_plan(3, size, size);
  std::cout << net->model_name() << " @ 3x" << size << "x" << size
            << (engine ? " (gated)" : " (dense)") << "\n"
            << plan.to_string();
  const int batch = flags.get_int("batch");
  // One staged pass of the --distinct batch measures the arena's high-water
  // beside the ahead-of-time size that must bound it.
  nn::ExecutionContext peak_ctx;
  plan.reserve(peak_ctx.workspace(), batch);
  run_staged_pass(*net, peak_ctx,
                  duplicated_batch(size, batch, flags.get_int("distinct"),
                                   static_cast<uint64_t>(flags.get_int("seed"))));
  std::printf("arena bytes: %zu @ batch 1, %zu @ batch %d (measured peak %zu)\n",
              plan.arena_bytes(1), plan.arena_bytes(batch), batch,
              peak_ctx.workspace().peak_bytes());
  // Per-op kernel scratch and the arena's high-water op: which step's
  // worst-case scratch (on top of the activations) actually sets the
  // reserved footprint.
  std::printf("per-op kernel scratch @ batch %d:\n", batch);
  size_t peak_scratch = 0;
  const int peak_op = plan.peak_scratch_op(batch, &peak_scratch);
  for (size_t i = 0; i < plan.ops().size(); ++i) {
    const size_t scratch = plan.op_scratch_bytes(static_cast<int>(i), batch);
    if (scratch == 0) continue;
    const plan::PlanOp& op = plan.ops()[i];
    const std::string tile_note =
        op.tile_pos > 0 ? " (tile " + std::to_string(op.tile_pos) + ")" : "";
    std::printf("  %-3zu %-18s %12zu B%s%s\n", i, op.name.c_str(), scratch,
                tile_note.c_str(),
                static_cast<int>(i) == peak_op ? "  <- arena peak" : "");
  }
  if (peak_op < 0) {
    std::printf("  arena peak set by activations "
                "(no kernel scratch on top)\n");
  }
  if (!profile) return 0;

  // Counters are always attempted under --profile (they degrade to "-"
  // columns when perf_event is unavailable); --counters only matters for
  // the `trace` command, whose default is timing-only.
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.enable(static_cast<size_t>(flags.get_int("events")), true)) {
    std::fprintf(stderr,
                 "plan-dump: --profile needs profiling compiled in; "
                 "rebuild with -DANTIDOTE_PROFILE=ON\n");
    return 1;
  }
  if (drops_defaulted) {
    std::printf(
        "profile: no drop ratios given; defaulting to --channel-drop=0.3 "
        "so the masked phases show up\n");
  }
  const int passes = flags.get_int("passes");
  // run_traced_passes recompiles the plan (set_training invalidates it),
  // so the reports read the plan it returns, not the one printed above.
  plan::InferencePlan& traced =
      run_traced_passes(*net, size, batch, flags.get_int("distinct"), passes,
                        static_cast<uint64_t>(flags.get_int("seed")));
  tracer.disable();
  if (!obs::thread_counters().available()) {
    std::printf(
        "profile: hardware counters unavailable (container or "
        "perf_event_paranoid > 2?); timing columns only\n");
  }
  print_profile_report(traced, passes);
  if (engine != nullptr) {
    print_coarsen_report(*net, traced, size, batch,
                         flags.get_int("distinct"), passes,
                         static_cast<uint64_t>(flags.get_int("seed")));
  }
  return 0;
}

// Runs a load generator against an in-process InferenceServer. The
// default is closed-loop: `--clients` threads each keep exactly one
// request in flight, so offered load adapts to what the server sustains
// and queue backpressure is exercised rather than overflowed.
// --adversarial switches the clients to hostile traffic (worst-case mask
// diversity, compute inflation, open-loop bursts; see
// serving/adversarial.h), the workload the admission/cap hardening knobs
// (--admission-ms, --compute-cap, --deadline-ms) exist to survive.
int cmd_serve_bench(const std::vector<std::string>& args) {
  FlagSet flags("antidote_cli serve-bench");
  add_common_flags(flags);
  add_prune_flags(flags);
  add_plan_flags(flags);
  flags.add_string("ckpt", "", "checkpoint loaded into every replica "
                   "(optional; random init otherwise)");
  flags.add_int("workers", 1, "batch workers (one model replica each)");
  flags.add_int("max-batch", 8, "micro-batching: max requests per batch");
  flags.add_double("max-wait-ms", 2.0,
                   "micro-batching: max hold time for an under-full batch; "
                   "a worker holds only when the batch's first request "
                   "arrived less than this after the previous one");
  flags.add_int("queue-capacity", 64, "request queue bound (backpressure)");
  flags.add_double("budget-ms", 0.0,
                   "p95 batch-latency budget for the controller "
                   "(0 = fixed ratios, no latency control)");
  flags.add_int("clients", 8, "closed-loop client threads");
  flags.add_int("requests", 512, "measured requests");
  flags.add_int("warmup", 64, "requests served before stats reset");
  flags.add_string("adversarial", "off",
                   "worst-case workload profile: off | masks | compute | "
                   "burst | mixed (see docs/serving.md)");
  flags.add_double("admission-ms", 0.0,
                   "cost-aware admission budget: shed a submit when the "
                   "predicted queue drain exceeds this "
                   "(0 = off; needs --budget-ms for the cost model)");
  flags.add_double("compute-cap", 1.0,
                   "per-request kept-MAC ceiling enforced by the plan "
                   "executor; masks over the cap are clamped and counted "
                   "(1.0 = uncapped)");
  flags.add_double("deadline-ms", 0.0,
                   "per-request deadline; requests already dead at dequeue "
                   "are answered unexecuted (0 = none)");
  flags.add_string("json", "",
                   "write a BENCH JSON summary (seeded meta + overload "
                   "metrics) to this path");
  flags.parse(args);
  if (flags.help_requested()) {
    std::cout << flags.usage();
    return 0;
  }

  const int image_size = image_size_from_flags(flags);
  const int num_classes = flags.get_int("classes");
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed"));
  const std::string ckpt = flags.get_string("ckpt");
  const std::string model = flags.get_string("model");
  const float width = static_cast<float>(flags.get_double("width"));

  // Settings shape needs a model; probe one, then hand the settings to the
  // server config and build identical replicas from the factory.
  auto probe = [&] {
    Rng rng(seed);
    return models::make_model(model, num_classes, width, rng);
  }();
  core::PruneSettings prune = settings_from_flags(flags, *probe);
  probe.reset();

  serving::ServerConfig config;
  config.policy.num_workers = flags.get_int("workers");
  config.policy.max_batch = flags.get_int("max-batch");
  config.policy.max_wait = std::chrono::microseconds(
      static_cast<int64_t>(flags.get_double("max-wait-ms") * 1000.0));
  config.queue_capacity =
      static_cast<size_t>(flags.get_int("queue-capacity"));
  // Serve densely (no gates at all) unless pruning is actually requested;
  // zero-drop gates would still pay the attention overhead every forward.
  const double budget_ms = flags.get_double("budget-ms");
  if (budget_ms > 0.0 || drops_anything(prune)) {
    config.prune = prune;
  }
  if (budget_ms > 0.0) {
    serving::LatencyController::Config lc;
    lc.target_p95_ms = budget_ms;
    config.latency = lc;
  }
  const double admission_ms = flags.get_double("admission-ms");
  if (admission_ms > 0.0) {
    AD_CHECK_GT(budget_ms, 0.0)
        << " --admission-ms needs --budget-ms: the latency controller's "
           "cost model is what prices a queued request";
    config.admission.enabled = true;
    config.admission.max_queue_ms = admission_ms;
  }
  config.compute_cap = flags.get_double("compute-cap");

  serving::InferenceServer server(
      [&](int replica) {
        Rng rng(seed);  // same seed: every replica gets the same weights
        auto net = models::make_model(model, num_classes, width, rng);
        if (!ckpt.empty()) nn::load_checkpoint(*net, ckpt);
        // Replicas compile their plans lazily per shape; the plan flags
        // set here apply to every one of them, so quantized serving never
        // executes an f32 conv pass first and --coarsen=off replicas are
        // never coarsened.
        apply_plan_flags(flags, *net);
        (void)replica;
        return net;
      },
      config);

  // Warm-up and measured phases run back to back but fully separated, so
  // the measured stats never mix with warm-up requests. Each client thread
  // drives its own seeded AdversarialGenerator (profile `off` degenerates
  // to the plain closed-loop randn stream), so a run is reproducible from
  // (--seed, client id, request index) alone. Burst pacing fires open-loop
  // try_submit volleys — sheds and rejections are the point — while the
  // other profiles stay closed-loop.
  const int num_clients = flags.get_int("clients");
  const serving::AdversarialProfile adversarial =
      serving::adversarial_profile_from_name(flags.get_string("adversarial"));
  const double deadline_ms = flags.get_double("deadline-ms");
  auto run_phase = [&](int request_count, uint64_t seed_base) {
    std::atomic<int> issued{0};
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(num_clients));
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        serving::AdversarialGenerator gen(
            3, image_size, image_size, adversarial,
            seed_base + static_cast<uint64_t>(c));
        const auto deadline =
            [&]() -> std::optional<serving::Clock::time_point> {
          if (deadline_ms <= 0.0) return std::nullopt;
          return serving::Clock::now() +
                 std::chrono::microseconds(
                     static_cast<int64_t>(deadline_ms * 1000.0));
        };
        bool done = false;
        while (!done) {
          const serving::AdversarialPacing pacing =
              gen.pacing(server.queue().capacity());
          if (pacing.open_loop) {
            // Coordinated volley: fire without waiting, then drain what
            // was admitted so the phase's request accounting stays exact.
            std::vector<std::future<serving::InferenceResult>> volley;
            volley.reserve(static_cast<size_t>(pacing.burst));
            for (int b = 0; b < pacing.burst; ++b) {
              if (issued.fetch_add(1) >= request_count) {
                done = true;
                break;
              }
              auto future = server.try_submit(gen.next_input(), deadline());
              if (future.valid()) volley.push_back(std::move(future));
            }
            for (auto& f : volley) f.get();
          } else {
            if (issued.fetch_add(1) >= request_count) break;
            auto future = server.submit(gen.next_input(), deadline());
            if (!future.valid()) {
              if (server.queue().closed()) break;  // server shut down
              continue;  // shed by admission control; counted server-side
            }
            future.get();
          }
          if (pacing.gap.count() > 0) std::this_thread::sleep_for(pacing.gap);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };
  run_phase(flags.get_int("warmup"), seed * 1000003ULL);
  server.stats().reset();
  if (serving::LatencyController* lc = server.controller()) {
    lc->reset_keep_summary();
  }
  const int measured = flags.get_int("requests");
  WallTimer run_timer;
  run_phase(measured, seed * 2000003ULL);
  const double measured_seconds = run_timer.seconds();
  server.shutdown();

  server.stats().to_table().emit("serve-bench (" + model + ", " +
                                 std::to_string(num_clients) + " clients)");
  if (serving::LatencyController* lc = server.controller()) {
    const auto keep = lc->keep_summary();
    std::printf("latency controller: budget %.2f ms, window p95 %.2f ms, "
                "drop offset %+.2f\n",
                budget_ms, lc->p95_ms(), lc->offset());
    std::printf("accuracy proxy: mean channel keep %.3f, "
                "mean spatial keep %.3f over %llu samples\n",
                keep.mean_channel_keep, keep.mean_spatial_keep,
                static_cast<unsigned long long>(keep.samples));
  }
  std::printf("measured: %d requests in %.2f s\n", measured,
              measured_seconds);
  const serving::ServerStats::Snapshot snap = server.stats().snapshot();
  if (adversarial != serving::AdversarialProfile::kOff) {
    std::printf(
        "adversarial: profile %s, seed %llu — shed %llu, capped %llu, "
        "expired %llu of %llu offered\n",
        serving::adversarial_profile_name(adversarial),
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(snap.shed),
        static_cast<unsigned long long>(snap.capped_requests),
        static_cast<unsigned long long>(snap.expired_unexecuted),
        static_cast<unsigned long long>(snap.offered_requests));
  }
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    AD_CHECK(f != nullptr) << " serve-bench: cannot write " << json_path;
    std::fprintf(
        f,
        "{\n"
        "  \"meta\": {\"bench\": \"serve_bench\", \"model\": \"%s\", "
        "\"adversarial\": \"%s\", \"seed\": %llu, \"clients\": %d, "
        "\"workers\": %d, \"max_batch\": %d, \"budget_ms\": %.3f, "
        "\"admission_ms\": %.3f, \"compute_cap\": %.3f, "
        "\"deadline_ms\": %.3f},\n"
        "  \"metrics\": {\"completed\": %llu, \"offered\": %llu, "
        "\"throughput_rps\": %.3f, \"e2e_p50_ms\": %.4f, "
        "\"e2e_p95_ms\": %.4f, \"e2e_p99_ms\": %.4f, \"shed\": %llu, "
        "\"shed_rate_pct\": %.3f, \"rejected\": %llu, \"capped\": %llu, "
        "\"capped_rate_pct\": %.3f, \"expired_unexecuted\": %llu, "
        "\"expired_rate_pct\": %.3f, \"deadline_misses\": %llu, "
        "\"held_batches\": %llu, \"held_batches_filled\": %llu, "
        "\"measured_s\": %.3f}\n"
        "}\n",
        model.c_str(), serving::adversarial_profile_name(adversarial),
        static_cast<unsigned long long>(seed), num_clients,
        config.policy.num_workers, config.policy.max_batch, budget_ms,
        admission_ms, config.compute_cap, deadline_ms,
        static_cast<unsigned long long>(snap.completed_requests),
        static_cast<unsigned long long>(snap.offered_requests),
        snap.throughput_rps, snap.e2e_p50_ms, snap.e2e_p95_ms,
        snap.e2e_p99_ms, static_cast<unsigned long long>(snap.shed),
        snap.shed_rate_pct, static_cast<unsigned long long>(snap.rejected),
        static_cast<unsigned long long>(snap.capped_requests),
        snap.capped_rate_pct,
        static_cast<unsigned long long>(snap.expired_unexecuted),
        snap.expired_rate_pct,
        static_cast<unsigned long long>(snap.deadline_misses),
        static_cast<unsigned long long>(snap.held_batches),
        static_cast<unsigned long long>(snap.held_batches_filled),
        measured_seconds);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

struct CommandEntry {
  const char* name;
  int (*run)(const std::vector<std::string>&);
  const char* help;
};

constexpr CommandEntry kCommands[] = {
    {"summary", cmd_summary,
     "print a layer table (params, MACs) for a model"},
    {"train", cmd_train, "train a model on a synthetic dataset"},
    {"ttd", cmd_ttd, "training with targeted dropout + ratio ascent"},
    {"eval", cmd_eval, "evaluate a checkpoint under dynamic pruning"},
    {"sensitivity", cmd_sensitivity,
     "per-block (or per-site) pruning sensitivity sweep"},
    {"plan-dump", cmd_plan_dump,
     "print a model's compiled inference plan (fused ops, FLOPs, arena); "
     "--profile adds per-op/per-phase timings and hardware counters"},
    {"trace", cmd_trace,
     "record plan passes and write a Chrome trace-event JSON timeline"},
    {"serve-bench", cmd_serve_bench,
     "load test of the batched serving runtime; --adversarial switches to "
     "hostile traffic (mask diversity, compute inflation, bursts)"},
};

std::string usage_text() {
  std::string usage = "usage: antidote_cli <command> [flags]\ncommands:\n";
  for (const CommandEntry& c : kCommands) {
    std::string line = "  ";
    line += c.name;
    line.append(line.size() < 15 ? 15 - line.size() : 1, ' ');
    usage += line + c.help + "\n";
  }
  usage += "run `antidote_cli <command> --help` for the command's flags\n";
  return usage;
}

// Edit distance for did-you-mean suggestions on unknown commands.
size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t next =
          std::min({row[j] + 1, row[j - 1] + 1,
                    diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

}  // namespace

int run_cli(const std::vector<std::string>& args) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
      std::cout << usage_text();
      return args.empty() ? 1 : 0;
    }
    const std::string command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    for (const CommandEntry& c : kCommands) {
      if (command == c.name) return c.run(rest);
    }
    std::cerr << "unknown command: " << command << "\n";
    const CommandEntry* closest = nullptr;
    size_t best = std::string::npos;
    for (const CommandEntry& c : kCommands) {
      const size_t d = edit_distance(command, c.name);
      if (best == std::string::npos || d < best) {
        best = d;
        closest = &c;
      }
    }
    if (closest != nullptr && best <= 3) {
      std::cerr << "did you mean '" << closest->name << "'?\n";
    }
    std::cerr << usage_text();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace antidote::cli
