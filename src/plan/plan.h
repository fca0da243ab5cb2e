// InferencePlan — the statically compiled form of a ConvNet's test-phase
// forward pass.
//
// AntiDote's runtime is dynamic per *sample* (the attention gates choose
// masks input by input), but everything else — layer order, tensor shapes,
// buffer lifetimes, BatchNorm statistics — is fixed once the model is
// built and put in eval mode. Following SoD²'s observation that dynamic
// networks still admit aggressive static optimization of the
// non-input-dependent parts, the plan compiler lowers the module tree into
// a flat array of PlanOp steps with:
//
//   - conv -> BN -> ReLU (-> +residual) collapsed into a single fused step:
//     the BatchNorm eval transform is folded into per-channel epilogue
//     constants (running mean and 1/sqrt(var+eps) precomputed at compile
//     time) and applied together with the residual add and the activation
//     on the cache-hot GEMM output of each sample, instead of as separate
//     full-tensor passes. The epilogue evaluates the exact expression the
//     BatchNorm2d module uses, so fused dense outputs are BITWISE
//     identical to the module walk (the classic W' = W * gamma/sqrt(var)
//     weight rewrite changes rounding; we deliberately fold constants, not
//     weights, and keep bit-equality as a hard invariant).
//   - every inter-op activation pre-assigned an offset in a per-pass arena
//     region via buffer lifetime analysis, and the whole pass footprint
//     (activations + the worst-case kernel scratch, including the
//     packed-GEMM panels) computed ahead of time, so an executor can
//     reserve the exact arena before the FIRST forward and never grow or
//     heap-allocate mid-pass.
//   - the per-sample ConvRuntimeMask stream flowing through unchanged:
//     gate steps run the installed gate modules, which hand keep sets to
//     their consumer Conv2d; the consumer's fused step picks them up. A
//     core::AttentionGate that masks this pass makes no pass of its own
//     over its map: its producer conv's fused epilogue writes the
//     attention means while it writes the map, and the gate step only
//     selects and zeroes the dropped planes and positions in the
//     producer's own buffer (the builder guarantees the gate is that
//     buffer's sole reader), so the gate allocates nothing.
//   - masked conv steps executed BATCH-GRANULAR and MASK-GROUPED: a drop
//     ratio quantizes a batch into a small number of distinct kept sets,
//     so the executor buckets samples by canonical mask key
//     (core::mask_key) each pass and runs every bucket as ONE compacted
//     multi-sample GEMM (gathered activations side by side, kept-filter
//     weight panel packed once per group into the group's workspace), with
//     gather/scatter/epilogue parallelized across samples — instead of
//     paying per-sample kernel dispatch, im2col and weight gathering.
//   - mask groups executed CONCURRENTLY when a pass produces several:
//     whole groups dispatch to pool workers, each over a private arena
//     slice carved from the reserved arena (Workspace::bind_external),
//     with the kernels' internal parallel_fors running inline under the
//     nested-dispatch guard. Groups cover disjoint samples, so outputs
//     are bitwise identical to sequential group order — and the
//     all-distinct-mask worst case stops degenerating to serial
//     per-sample dispatch.
//   - per-op dense FLOPs, measured (EWMA-smoothed) step timings and
//     observed mask-group fractions, which the serving LatencyController
//     turns into a grouping-aware latency cost model whose group cost is
//     the critical-path worker (max over workers), not the group sum.
//
// A plan holds non-owning pointers into the model's modules (weights, BN
// affine parameters, gates), so it is owned by the model and must be
// recompiled (ConvNet::invalidate_plan) when the module structure or the
// BN running statistics change; ConvNet does this automatically on
// set_training and install_gate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/conv_kernels.h"
#include "nn/execution_context.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace antidote::core {
class AttentionGate;
}  // namespace antidote::core

namespace antidote::plan {

// Cross-group parallelism cap: at most this many mask groups execute
// concurrently (each over its own arena slice), bounding the slice region
// of arena_bytes() on many-core machines. The effective width of a pass
// is min(total compute threads, distinct groups, this cap).
inline constexpr int kMaxGroupWorkers = 16;

enum class OpKind {
  kConv,           // fused conv (+BN) (+residual) (+ReLU)
  kGate,           // runs an installed gate module (masks its consumer)
  kMaxPool,        // 2-d max pooling
  kGlobalAvgPool,  // [N,C,H,W] -> [N,C]
  kLinear,         // classifier head
  kShortcut,       // option-A residual shortcut (subsample + zero-pad)
};

const char* op_kind_name(OpKind kind);

// Numeric execution regime of a compiled plan. kF32 is the bitwise
// reference regime; kInt8 runs conv steps through the quantized kernels
// (per-output-channel symmetric weights, dynamic activations at one scale
// per mask group per step, u8xs8->s32 igemm with dequant folded into the
// fused epilogue's input).
// Non-conv steps (pool, linear, shortcut, gates) always execute in f32,
// as do spatially-masked conv groups (the shift-GEMM fallback): int8 is
// a per-conv-step regime, not a whole-graph datatype change.
enum class NumericRegime {
  kF32,
  kInt8,
};

const char* regime_name(NumericRegime regime);

// --- similar-mask union coarsening ----------------------------------------
//
// Exact-identity grouping collapses only equal kept sets, so a
// high-entropy batch degrades toward per-sample execution. Executing the
// UNION of near-identical kept sets is numerically safe for hard top-k
// gates — the union's extra channels/positions were zeroed upstream in the
// feature map, so their contributions are exact zeros and the grouped
// output stays bitwise identical to the module walk — and trades a few
// extra MACs for far fewer group dispatches. Which groups to merge is a
// LATENCY decision, not a similarity threshold: the planner simulates the
// executor's critical-path group schedule (ceil(G/W) strided dispatch over
// W pool workers) and merges exactly while the predicted critical path
// improves, with per-op MAC, panel-pack (regime-aware bytes/MAC) and
// dispatch-overhead terms.
//
// Merge eligibility is guarded structurally, independent of the cost
// terms: two groups merge only if their kept OUT-FILTER sets are equal (a
// filter kept by one sample has real weights, so a filter-union would
// write nonzero rows the other sample's walk leaves zero) and their kept
// channel and position sets intersect (disjoint masks never merge at any
// budget — their union is pure duplication).

enum class CoarsenMode { kOff, kAuto };

const char* coarsen_mode_name(CoarsenMode mode);

// --- spatially-tiled lowering ---------------------------------------------
//
// Every conv step runs one tile loop over its output positions (the
// channel path of nn::conv_group_masked; a dense step is one keep-all
// group per sample): lowering fills a [patch x tile] panel, the (i)gemm
// consumes it, and the tile's columns are stored before the next tile is
// lowered. Untiled is one tile of every position, whose panel scales
// linearly with resolution — at 224x224 the early VGG panels run to
// ~100 MB per sample and the GEMM operand falls out of LLC — while a
// cache-sized tile keeps lowering scratch O(patch x tile). Tiling splits
// only independent GEMM output columns, so f32 output (dense and grouped)
// is bitwise identical to the untiled path; int8 quantizes a step's kept
// input planes once, at one scale per mask group, and lowers every tile
// from them, so tiled int8 output is bitwise identical to untiled int8
// too.

enum class TileMode {
  kOff,    // never tile
  kAuto,   // per-op width from geometry + the cache-budget heuristic
  kFixed,  // every eligible op uses TilePolicy::n (clamped to its domain)
};

const char* tile_mode_name(TileMode mode);

struct TilePolicy {
  TileMode mode = TileMode::kAuto;
  int n = 0;  // fixed tile width (kFixed only)
};

// The plan compiler's per-op tile choice: 0 (untiled) when the op's full
// f32 working set — im2col panel plus output panel — fits the cache
// budget or the op is too small for tiling to pay (out_positions below
// kTileMinPositions); otherwise the largest width whose tile working set
// fits, floored at kTileMinWidth and rounded to the GEMM's 16-column
// register panel. Deterministic in the geometry alone (regime-independent,
// so a regime flip never changes the tile).
int64_t choose_conv_tile(const ConvGeom& geom, int out_c,
                         const TilePolicy& policy);

// Cache budget of the auto heuristic: the tile working set
// (patch + out_c) * 4 * tile bytes is kept under this. Sized toward a
// per-core LLC slice rather than the whole cache, so concurrently
// executing groups stay resident too.
inline constexpr int64_t kTileCacheBudgetBytes = 768 * 1024;
// Ops with fewer output positions than this never auto-tile (CIFAR-sized
// domains already fit; tiling them would only add loop overhead).
inline constexpr int64_t kTileMinPositions = 4096;
// Lower bound of an auto tile width (amortizes the per-tile GEMM setup).
inline constexpr int64_t kTileMinWidth = 64;

// Bounds of CoarsenPolicy::mac_bias (set_coarsen clamps into them).
inline constexpr double kMinCoarsenMacBias = 0.25;
inline constexpr double kMaxCoarsenMacBias = 4.0;

// Floor of the per-request compute cap (set_compute_cap clamps into
// [kMinComputeCap, 1.0]); below ~5% kept MACs the truncated masks carry
// too few channels to produce a meaningful prediction anyway.
inline constexpr double kMinComputeCap = 0.05;

struct CoarsenPolicy {
  CoarsenMode mode = CoarsenMode::kAuto;
  // Relative weight of the MAC term against the per-group pack+dispatch
  // terms in the merge decision. 1.0 is the honest latency model; the
  // serving LatencyController lowers it under budget pressure (union-added
  // MACs look cheaper -> merge harder) and relaxes it back toward neutral
  // when p95 sits inside the band.
  double mac_bias = 1.0;
};

// One exact-identity bucket's summary handed to coarsen_plan. Bitsets are
// packed little-endian (core::pack_kept_bits); keep-all components pack as
// all-ones, so intersection/union popcounts need no special casing.
struct CoarsenGroup {
  int size = 0;      // samples in the bucket
  int kept_ch = 0;   // popcount of the channel bits
  int kept_pos = 0;  // popcount of the position bits (= the op's full
                     // output-position count when it has no spatial domain)
  int kept_out = 0;  // kept output filters
  // Whether the bucket's mask carries a PROPER position subset (non-empty
  // positions vector). Groups of different position kinds never merge:
  // partial-position groups execute the input-stationary shift-GEMM and
  // keep-all groups the im2col channel path, whose accumulation orders
  // differ — one merged group can only run one of them, so a mixed merge
  // could not stay bitwise for both members. The flag tracks the ORIGINAL
  // kind; a union of proper subsets that saturates the domain still
  // executes as an explicit full position set on the shift-GEMM path.
  bool pos_partial = false;
  // Kept out-filter index vector (merge-eligibility equality compare);
  // never null while planning.
  const std::vector<int>* out_channels = nullptr;
};

// Per-op constants of the coarsening latency model, all expressed in
// MAC-equivalents so the terms compare directly with the group GEMM work.
struct CoarsenCost {
  double kk = 1.0;  // kernel positions (k_h * k_w)
  // MAC-equivalents per packed panel element: the kept-filter weight panel
  // (kept_out * kept_ch * kk elements) is gathered once per group per
  // pass, and its cost in time is its byte traffic divided by the op's
  // regime-aware bytes/MAC (PR 7's cost axis) — int8 panels move 4x fewer
  // bytes, so int8 merges are driven by proportionally cheaper pack terms.
  double pack_macs_per_elem = 0.0;
  // Fixed per-group dispatch cost (kernel entry, parallel_for handoff,
  // gather/scatter setup) in MAC-equivalents.
  double overhead_macs = 0.0;
  int threads = 1;  // process compute threads (caller + pool)
};

struct CoarsenDecision {
  int clusters = 0;  // final group count (== ngroups when nothing merged)
  // Predicted critical-path cost (MAC-equivalents) of the exact-identity
  // schedule and of the adopted merged schedule.
  double predicted_before = 0.0;
  double predicted_after = 0.0;
  // Union-added MACs per pass of the adopted schedule vs exact-identity
  // buckets (model count: kept_out * kept_ch * kk * kept_pos per sample).
  int64_t extra_macs = 0;
};

// Integer scratch ints coarsen_plan needs for `ngroups` buckets.
inline constexpr int coarsen_iscratch_ints(int ngroups) {
  return 5 * ngroups;
}

// Agglomerative latency-aware merge planner over one op's exact-identity
// buckets. `bits` is the groups' packed-bitset slab — ngroups rows of
// (ch_words + pos_words) u64 each, channel words first — and is CLOBBERED
// (rows accumulate unions while the chain runs). The chain greedily merges
// the eligible pair with the cheapest union-added MAC cost all the way
// down, evaluating the executor's exact strided critical path at every
// state, and adopts the argmin state — a single merge often cannot shrink
// ceil(G/W), so the win only appears several merges later (8 -> 7 groups
// at W=4 changes nothing; 8 -> 4 halves the rounds).
//
// `cluster` receives ngroups entries: cluster[i] = final group of bucket
// i, ids dense and numbered by smallest member index (the executor's
// deterministic group order). `iscratch` holds
// coarsen_iscratch_ints(ngroups) ints. Heap-allocation-free.
CoarsenDecision coarsen_plan(const CoarsenGroup* groups, int ngroups,
                             int ch_words, int pos_words,
                             const CoarsenCost& cost, double mac_bias,
                             uint64_t* bits, int* cluster, int* iscratch);

// Scalar element count of a (per-sample) shape — shared by the compiler's
// buffer sizing and the executor's pointer arithmetic.
inline int64_t shape_floats(const Shape& s) {
  int64_t n = 1;
  for (int d : s) n *= d;
  return n;
}

// BatchNorm folded into a conv step. mean/inv_std are compile-time
// constants from the running statistics; gamma/beta point at the live
// affine parameters (updated in place by the optimizer and checkpoint
// loads). The epilogue computes gamma*((v - mean)*inv_std) + beta — the
// BatchNorm2d eval expression verbatim, for bitwise equality.
struct FusedBatchNorm {
  std::vector<float> mean;
  std::vector<float> inv_std;
  const float* gamma = nullptr;
  const float* beta = nullptr;
};

struct PlanOp {
  OpKind kind = OpKind::kConv;
  std::string name;

  int input = -1;     // buffer id consumed
  int output = -1;    // buffer id produced
  int residual = -1;  // kConv: buffer added in the epilogue (-1 = none)
  Shape in_shape;     // per-sample, e.g. {C,H,W}
  Shape out_shape;    // per-sample

  // kConv
  nn::Conv2d* conv = nullptr;
  ConvGeom geom;  // per-sample geometry, resolved at compile time
  bool fuse_bn = false;
  bool fuse_relu = false;
  FusedBatchNorm bn;

  // kGate
  nn::Module* gate = nullptr;
  // kGate: `gate` as a core::AttentionGate (null for other gate modules);
  // the step masks its input in place on passes where the gate masks.
  // kConv: the AttentionGate that is the sole reader of this step's
  // output; on those passes the fused epilogue writes the gate's attention.
  core::AttentionGate* attention = nullptr;

  // kMaxPool
  int pool_k = 0;
  int pool_stride = 0;

  // kLinear
  nn::Linear* linear = nullptr;

  // kShortcut
  int shortcut_stride = 1;

  // Cost-model metadata: which settings block's drop ratios mask this
  // conv's input (via the gate feeding it), and whether spatial skips can
  // reach it.
  int prune_block = -1;
  bool prune_spatial = false;

  // kConv, int8 regime: per-output-channel symmetric quantization of the
  // conv weight, computed once by set_regime(NumericRegime::kInt8) at
  // plan-"compile" time (empty under f32). Keep-all groups (every dense
  // step) read these rows in place; masked channel groups gather
  // kept-filter panels from them into their workspace.
  nn::Int8ConvWeights int8_w;

  // Per-pass union-mask storage for coarsened groups: cluster c of a
  // coarsened pass materializes its union kept sets into coarse_masks[c].
  // One slot per sample of the largest batch the plan has been sized for,
  // each with the op's full kept-set domains as capacity, so a warm
  // coarsened pass stays heap-allocation-free.
  std::vector<nn::ConvRuntimeMask> coarse_masks;

  // Per-pass clamped-mask storage for the compute cap: when any sample's
  // runtime mask demands more than the plan's kept-MAC ceiling at this
  // step, the whole batch's masks are copied here (offenders truncated)
  // and the executor runs off this storage instead. Sized like
  // coarse_masks, so a warm capped pass stays heap-allocation-free.
  std::vector<nn::ConvRuntimeMask> capped_masks;

  // kConv: chosen output-position tile width (0 = untiled). Set at
  // plan-compile time from the tile policy and geometry; shared by the
  // executor and the arena-sizing formulas so they always agree.
  int64_t tile_pos = 0;

  // --- introspection ---
  int64_t dense_macs = 0;  // per sample
  int64_t last_macs = 0;   // whole batch, most recent run
  // EXECUTED group count of the most recent run (post-coarsening;
  // 0 = ran dense).
  int last_groups = 0;
  // Exact-identity bucket count of the most recent run, before any
  // coarsening (== last_groups when coarsening is off or declined).
  int last_groups_raw = 0;
  // Samples of the most recent run whose masks exceeded the compute cap
  // and were clamped (0 when uncapped or every mask fit).
  int last_capped = 0;
  // Most recent coarsening decision: union-added MACs of the adopted
  // schedule (model count, 0 when nothing merged), total extra kept
  // channels summed over samples (union kept_ch minus the sample's own),
  // and the planner's predicted critical-path costs (MAC-equivalents)
  // before/after merging.
  int64_t last_coarsen_extra_macs = 0;
  int64_t last_coarsen_extra_ch = 0;
  double last_coarsen_pred_before = 0.0;
  double last_coarsen_pred_after = 0.0;
  // Smoothed RAW measured step time (per batch). The cost model pairs it
  // with ewma_units below: predicted time at hypothetical conditions is
  // ewma_ms * hypothetical_units / ewma_units. Time and units are
  // smoothed SEPARATELY and divided once at prediction — normalizing each
  // sample by its own units before averaging would average reciprocals
  // and systematically inflate the estimate when conditions fluctuate.
  double ewma_ms = 0.0;
  // Smoothed cost units of the runs behind ewma_ms: executed-MAC fraction
  // x group-cost fraction for masked runs, 1 for dense runs (the model's
  // "cost scales with critical-path group dispatches x compacted size"
  // axis).
  double ewma_units = 1.0;
  // Smoothed group-cost fraction of masked runs: ceil(groups / width) /
  // batch — the critical-path worker's group dispatches under cross-group
  // parallelism (max over workers, not the group sum). 1 until a masked
  // batch has executed.
  double ewma_group_frac = 1.0;
};

// One inter-op activation. Planned buffers live at a fixed per-sample
// float offset inside the pass's activation region (scaled by the batch
// size at run time); unplanned buffers (the network input, gate outputs)
// are carried as tensors produced elsewhere — a gate's output is its
// input buffer (in-place masking, or an identity gate) or a tensor its
// module returned.
struct PlanBuffer {
  Shape per_sample_shape;
  int64_t per_sample_floats = 0;  // rounded up to the arena alignment
  int64_t offset_floats = 0;      // per-sample units; meaningful if planned
  int def_op = -1;                // producing op (-1: network input)
  int last_use_op = -1;
  bool planned = true;
};

// Snapshot of one op's measured cost: the per-op latency model that
// predict_batch_ms, the serving LatencyController and admission control
// all price batches with.
struct OpCost {
  OpKind kind = OpKind::kConv;
  double ewma_ms = 0.0;  // raw smoothed per-batch step time
  // Observed mean group-COST fraction (ceil(groups / parallel width) /
  // batch): with groups dispatched across pool workers, a masked step
  // costs the critical-path worker's dispatches x compacted size — a max
  // over workers, not the sum over groups.
  double group_frac = 1.0;
  // Smoothed cost units behind ewma_ms (keep fraction x group fraction of
  // the measured runs); predictions rescale by hypothetical units / this.
  double measured_units = 1.0;
  int prune_block = -1;
  bool prune_spatial = false;
};

// Predicted per-batch time of one op at hypothetical keep fractions:
// fixed-cost ops (prune_block < 0) cost their smoothed time, prunable ops
// rescale theirs by (keep x observed group fraction) / measured units,
// where keep is channel_keep, times spatial_keep when spatial drops also
// scale the op. Rescaling one ratio of two smoothed series keeps a
// fluctuating group count from inflating the estimate the way averaged
// per-sample reciprocals would.
double predict_op_ms(const OpCost& op, double channel_keep,
                     double spatial_keep);

// Predicted per-batch latency of a cost snapshot at uniform keep
// fractions: predict_op_ms summed in op order.
double predict_batch_ms(const std::vector<OpCost>& ops, double channel_keep,
                        double spatial_keep);

class InferencePlan {
 public:
  // Executes the plan. `x` is the [N,C,H,W] batch (any storage); the
  // returned logits borrow plan-owned arena memory and are invalidated by
  // the context's next begin_pass(). Reserves the arena and sizes the
  // plan's per-pass storage if the caller did not (a no-op once a batch
  // this large has been seen), so for an unreserved caller the plan
  // allocates only on the first pass at each new largest batch size.
  Tensor run(const Tensor& x, nn::ExecutionContext& ctx);

  // Exact bytes one pass of batch size `n` draws from the arena:
  // activation region + worst-case kernel scratch
  // (including the cross-group per-worker slice region, which scales with
  // the process's fixed thread budget — ANTIDOTE_THREADS — capped at
  // kMaxGroupWorkers). Known before the first forward ever runs.
  size_t arena_bytes(int n) const;
  // Pre-grows `ws` and sizes the plan's per-pass storage (the coarsened
  // and capped mask slots, the per-worker slice views) so a pass of batch
  // size `n` performs zero arena growths, and the plan itself zero heap
  // allocations, starting with the very first one.
  void reserve(Workspace& ws, int n);

  // Switches the plan's numeric regime. Entering kInt8 quantizes every
  // conv step's weight per output channel (a one-time compile-style cost;
  // idempotent — already-quantized steps are kept). Measured step times
  // carry over unchanged; the EWMAs relearn the new regime as its passes
  // land. Call before reserve() — the int8 paths need quantized-column
  // scratch the f32 sizing omits.
  void set_regime(NumericRegime regime);
  NumericRegime regime() const { return regime_; }

  // Installs the similar-mask union coarsening policy (mac_bias clamped
  // to [kMinCoarsenMacBias, kMaxCoarsenMacBias]). Safe at any time — the
  // policy only gates the per-pass merge decision, never the arena
  // footprint: arena_bytes(n) accounts the coarsening scratch
  // unconditionally, and coarsening only ever REDUCES the executed group
  // count, so the existing max-over-G kernel-scratch worst cases still
  // bound every coarsened schedule.
  void set_coarsen(CoarsenPolicy policy);
  const CoarsenPolicy& coarsen() const { return coarsen_; }

  // Installs the spatial tiling policy and recomputes every conv step's
  // tile width (choose_conv_tile). Changing the policy changes the
  // arena's scratch requirements, so call before reserve() — like
  // set_regime. Narrower tiles fit an arena reserved for wider ones; a
  // change that widens any step's tile (kOff, or auto choosing untiled,
  // runs one tile of every position) needs a new reserve().
  void set_tile(TilePolicy policy);
  const TilePolicy& tile() const { return tile_; }

  // Installs the per-request compute cap: the maximum kept-MAC fraction
  // (kept channels x kept positions x kept filters over the op's dense
  // domains) any sample's runtime mask may demand of a conv step. Samples
  // over the cap get their kept sets truncated in canonical index order —
  // channels first, then spatial positions — before bucketing, so a
  // hostile maximum-keep input degrades gracefully instead of inflating
  // the step's compute. 1.0 (the default) disables capping; values are
  // clamped to [kMinComputeCap, 1.0]. Capped passes skip union
  // coarsening: a union could re-add truncated channels whose upstream
  // activations are NOT zero, silently undoing the cap. Safe at any time;
  // the arena footprint is unaffected (capping only ever shrinks kept
  // sets, and capped_masks storage is accounted by reserve()).
  void set_compute_cap(double cap);
  double compute_cap() const { return compute_cap_; }
  // Samples clamped by the cap in the most recent run (max over conv
  // steps: a sample capped anywhere counts once).
  int last_capped_samples() const;
  // Peak-arena breakdown at batch n: index of the conv op whose scratch
  // sets the pass's high-water mark (-1 when no op has scratch), plus
  // that op's scratch bytes via *op_scratch. Exposed for plan-dump's
  // footprint report.
  int peak_scratch_op(int n, size_t* op_scratch = nullptr) const;
  // One op's worst-case kernel scratch bytes at batch n under the current
  // regime and tile choice (0 for non-conv ops).
  size_t op_scratch_bytes(int op_index, int n) const;

  const std::vector<PlanOp>& ops() const { return ops_; }
  const std::vector<PlanBuffer>& buffers() const { return buffers_; }
  int64_t activation_floats_per_sample() const { return act_floats_; }

  // Sum over ops of the most recent run's executed MACs (masked ops report
  // their actual, reduced counts).
  int64_t last_macs() const;
  int64_t dense_macs_per_sample() const;

  // Executed mask-group count of the most recent run: the max over masked
  // conv steps of how many compacted GEMM groups actually dispatched,
  // AFTER union coarsening (0 when the last run executed fully dense).
  int last_mask_groups() const;
  // Exact-identity bucket count of the most recent run, before coarsening
  // (== last_mask_groups() when coarsening is off or declined every merge).
  int last_mask_groups_raw() const;
  // Union-added MACs of the most recent run, summed over masked conv
  // steps (model count; 0 when nothing merged).
  int64_t last_coarsen_extra_macs() const;
  // Those extra MACs as a fraction of the run's executed MACs — the
  // extra-arithmetic overhead the coarsened schedule accepted in exchange
  // for fewer group dispatches.
  double last_coarsen_extra_mac_frac() const;
  // Always 0: every mask group packs its kept-filter panel into its own
  // workspace, so there is no panel cache to hit, miss or bypass. Kept
  // only because the benchmark's replay reads them for two per-layer
  // metrics until its next revision drops those.
  int64_t pack_cache_hits() const { return 0; }
  int64_t pack_cache_misses() const { return 0; }
  int64_t pack_cache_bypass() const { return 0; }

  // Thread-unsafe snapshot for the owner thread; the scheduler hands it
  // to the LatencyController as its cost model.
  std::vector<OpCost> cost_snapshot() const;

  // Human-readable op table (antidote_cli plan-dump).
  std::string to_string() const;

 private:
  friend class PlanBuilder;

  std::vector<PlanOp> ops_;
  std::vector<PlanBuffer> buffers_;
  int input_buffer_ = 0;
  int output_buffer_ = -1;
  NumericRegime regime_ = NumericRegime::kF32;
  CoarsenPolicy coarsen_;
  TilePolicy tile_;
  double compute_cap_ = 1.0;  // 1.0 = uncapped
  // Applies the compute cap to a masked conv pass: returns `masks`
  // untouched when every sample fits, otherwise copies the batch into
  // op.capped_masks (offenders truncated) and returns a span over it.
  std::span<const nn::ConvRuntimeMask> cap_runtime_masks(
      PlanOp& op, std::span<const nn::ConvRuntimeMask> masks, int n);
  int64_t act_floats_ = 0;  // per-sample high water of planned offsets

  // Reused across runs (sized at compile time, no per-pass allocation).
  std::vector<Tensor> slots_;
  // Per-worker arena-slice views for cross-group parallel execution,
  // rebound to slices of the pass arena each masked pass
  // (Workspace::bind_external — rebinding is heap-free). Created by
  // size_pass_storage(); behind a unique_ptr so the plan stays movable.
  // Each worker's slice view gets its own cache line: a Workspace object
  // is well under 64 bytes, so adjacent workers' bump pointers would
  // otherwise share a line and false-share on every slice allocation —
  // visible as inflated L1d misses in the kGroup phase counters.
  struct GroupSlices {
    struct alignas(64) Slot {
      Workspace ws;
    };
    Slot slot[kMaxGroupWorkers];
  };
  std::unique_ptr<GroupSlices> group_slices_;
  // Sizes every conv step's coarse_masks and capped_masks to n slots with
  // full-domain capacities, and creates the slice views. Does work only
  // when n exceeds every batch size sized before; reserve() and run() both
  // call it, so warm passes never grow this storage on the heap.
  void size_pass_storage(int n);
  // Shared ascending identity indices, sized at the plan's largest channel
  // count; spans over a prefix stand in for an empty (= keep all) channel
  // or filter set, replacing the per-pass iota rebuilds the executor used
  // to pay inside every conv op.
  std::vector<int> iota_;
};

}  // namespace antidote::plan
