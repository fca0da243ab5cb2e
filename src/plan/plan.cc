#include "plan/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>

#include "base/error.h"
#include "base/parallel.h"
#include "base/timer.h"
#include "core/gate.h"
#include "core/mask.h"
#include "nn/conv_kernels.h"
#include "obs/trace.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace antidote::plan {

namespace {

// The sample-wise fused epilogue (BatchNorm, residual add, ReLU) lives in
// nn::fused_epilogue — SIMD-vectorized, bitwise identical to the module
// walk. This builds its parameter block from a conv step.
nn::FusedEpilogueParams epilogue_params(const PlanOp& op) {
  nn::FusedEpilogueParams p;
  p.bn = op.fuse_bn;
  p.relu = op.fuse_relu;
  if (op.fuse_bn) {
    p.mean = op.bn.mean.data();
    p.inv_std = op.bn.inv_std.data();
    p.gamma = op.bn.gamma;
    p.beta = op.bn.beta;
  }
  return p;
}

// Total compute threads of this process (caller + pool workers) — fixed
// for the process lifetime (ANTIDOTE_THREADS), so arena sizing computed
// against it stays exact for every pass.
int compute_threads() { return 1 + global_pool().size(); }

// Number of mask groups executing concurrently for a pass that bucketed
// into `groups`: the executor and the arena sizing MUST agree on this.
int group_parallel_width(int threads, int groups) {
  return std::max(1, std::min({threads, groups, kMaxGroupWorkers}));
}

// Whether a conv's spatial grid is preserved (stride 1, out == in): the
// only geometry under which spatial position masks are valid, and hence
// the only one whose coarsening state carries a position-bitset domain.
bool conv_grid_preserving(const ConvGeom& g) {
  return g.stride == 1 && g.out_h() == g.in_h && g.out_w() == g.in_w;
}

// Fixed per-group dispatch cost of the coarsening latency model, in
// MAC-equivalents: kernel entry, parallel_for handoff and gather/scatter
// setup — the part of a group's cost that does not scale with its size,
// i.e. exactly what merging groups eliminates.
constexpr double kCoarsenOverheadMacs = 20000.0;

// Arena bytes the in-pass coarsening planner draws between its mark and
// rewind: two packed-bitset slabs (immutable originals + the planner's
// working unions), the group summaries, the cluster assignment and the
// planner's integer scratch. Sized for the n-bucket worst case.
size_t coarsen_scratch_bytes(const ConvGeom& g, int n) {
  const int wpg =
      core::mask_bits_words(g.in_c) +
      (conv_grid_preserving(g) ? core::mask_bits_words(g.in_h * g.in_w) : 0);
  const size_t nn_ = static_cast<size_t>(n);
  return 2 * Workspace::align_up(sizeof(uint64_t) * nn_ *
                                 static_cast<size_t>(wpg)) +
         Workspace::align_up(sizeof(CoarsenGroup) * nn_) +
         Workspace::align_up(sizeof(int) * nn_) +
         Workspace::align_up(sizeof(int) *
                             static_cast<size_t>(coarsen_iscratch_ints(n)));
}

// Exact worst-case kernel scratch of one conv step at batch n, mirroring
// the executor's allocation sequence byte for byte: the group-key
// bucketing arrays plus the group kernels' scratch. A dense step runs one
// keep-all group per sample, which the group-of-n bound already covers.
// The kernel term covers both execution regimes:
//   - sequential (1 group, or a single compute thread): groups run
//     between rewinds, so the bound is the single-group-of-n worst case
//     (monotone in group size).
//   - cross-group parallel (G >= 2 groups over W = min(threads, G, cap)
//     workers): the executor carves W slices each sized for the largest
//     group, and with G groups the largest group holds at most n - G + 1
//     samples — maximize W * scratch(n - G + 1) over G.
// The bound depends on the process thread budget (compute_threads), which
// is fixed for the process lifetime, so it is still exact per pass.
size_t conv_step_scratch_bytes(const PlanOp& op, int n, bool int8_regime) {
  if (op.kind != OpKind::kConv) return 0;
  const ConvGeom& g = op.geom;
  const int out_c = op.out_shape[0];
  const size_t nn_ = static_cast<size_t>(n);
  // Position masks only ever reach a conv through a spatially-aligned
  // gate (the gate clears them otherwise), so the untiled spatial
  // shift-GEMM bound — O(gs * pos), immune to tiling — is accounted only
  // for gate consumers marked prune_spatial. This is what keeps a tiled
  // plan's reserved arena sub-linear in the output grid: without it every
  // grid-preserving conv would pay the spatial path's full-width scratch
  // whether or not spatial masks can occur.
  const bool spatial = op.prune_spatial;
  size_t masked_kernel = nn::conv_group_masked_scratch_bytes(
      g, out_c, n, int8_regime, op.tile_pos, spatial);
  const int threads = compute_threads();
  for (int groups = 2; groups <= n; ++groups) {
    const int width = group_parallel_width(threads, groups);
    if (width < 2) break;  // single-threaded: the parallel regime never runs
    masked_kernel = std::max(
        masked_kernel,
        static_cast<size_t>(width) *
            nn::conv_group_masked_scratch_bytes(g, out_c, n - groups + 1,
                                                int8_regime, op.tile_pos,
                                                spatial));
  }
  // The coarsening terms are accounted whatever the coarsening mode:
  // set_coarsen may switch it between passes, and a switch must never grow
  // a reserved arena. The planner scratch itself is rewound before any
  // group kernel runs, so it shares a max with the kernel term rather than
  // stacking on it.
  return Workspace::align_up(sizeof(uint64_t) * nn_) +   // mask keys
         Workspace::align_up(sizeof(int) * nn_) +        // sample order
         Workspace::align_up(sizeof(int) * (nn_ + 1)) +  // group bounds
         Workspace::align_up(sizeof(int) * nn_) +        // coarsened order
         Workspace::align_up(sizeof(int) * (nn_ + 1)) +  // coarsened bounds
         Workspace::align_up(sizeof(void*) * nn_) +      // group mask ptrs
         std::max(coarsen_scratch_bytes(g, n), masked_kernel);
}

// Dense-path memory traffic per MAC of a conv step under `regime`:
// (weight operand + im2col panel) at the regime's element size plus the
// always-f32 output, over the step's dense MACs. The coarsening planner
// prices a merged group's panel pack with it.
//
// Spatially-tiled steps (op.tile_pos > 0) replace the full im2col panel
// term with the actual DRAM traffic of the tiled schedule: the input
// plane is read once per pass, and the panel itself is one cache-resident
// tile re-lowered in place — its DRAM cost is a single tile's worth, not
// patch*pos. This is what teaches the cost model that tiling turned the
// lowering from a memory-bound stream into a cache-resident one.
double conv_bytes_per_mac(const PlanOp& op, NumericRegime regime) {
  if (op.kind != OpKind::kConv || op.dense_macs <= 0) return 0.0;
  const ConvGeom& g = op.geom;
  const int64_t out_c = op.out_shape[0];
  const int64_t patch =
      static_cast<int64_t>(g.in_c) * g.k_h * g.k_w;
  const int64_t pos = g.out_positions();
  const double es = regime == NumericRegime::kInt8 ? 1.0 : 4.0;
  const bool tiled = op.tile_pos > 0 && op.tile_pos < pos;
  const double panel_elems =
      tiled ? static_cast<double>(g.in_c) * g.in_h * g.in_w +
                  static_cast<double>(patch * op.tile_pos)
            : static_cast<double>(patch * pos);
  const double bytes = static_cast<double>(out_c * patch) * es +
                       panel_elems * es +
                       static_cast<double>(out_c * pos) * 4.0;
  return bytes / static_cast<double>(op.dense_macs);
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv: return "conv";
    case OpKind::kGate: return "gate";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kGlobalAvgPool: return "gap";
    case OpKind::kLinear: return "linear";
    case OpKind::kShortcut: return "shortcut";
  }
  return "?";
}

const char* regime_name(NumericRegime regime) {
  switch (regime) {
    case NumericRegime::kF32: return "f32";
    case NumericRegime::kInt8: return "int8";
  }
  return "?";
}

const char* coarsen_mode_name(CoarsenMode mode) {
  switch (mode) {
    case CoarsenMode::kOff: return "off";
    case CoarsenMode::kAuto: return "auto";
  }
  return "?";
}

int64_t choose_conv_tile(const ConvGeom& geom, int out_c) {
  const int64_t pos = geom.out_positions();
  // The tile working set per output column is one lowered patch column
  // plus one output column, sized at f32 (the int8 operand tile is a
  // quarter of that, so geometry alone decides — the chosen width is
  // regime-independent, a set_regime flip never resizes the arena, and
  // int8 output does not depend on the width at all).
  const int64_t patch = static_cast<int64_t>(geom.in_c) * geom.k_h * geom.k_w;
  const int64_t col_bytes = (patch + out_c) * 4;
  if (pos < kTileMinPositions) return 0;           // small grids: not worth it
  if (col_bytes * pos <= kTileCacheBudgetBytes) return 0;  // already resident
  int64_t width = kTileCacheBudgetBytes / std::max<int64_t>(col_bytes, 1);
  width = std::max(width, kTileMinWidth);
  width &= ~int64_t{15};  // round down to whole 16-column GEMM panels
  width = std::max(width, kTileMinWidth);
  if (width >= pos) return 0;
  return width;
}

CoarsenDecision coarsen_plan(const CoarsenGroup* groups, int ngroups,
                             int ch_words, int pos_words,
                             const CoarsenCost& cost, uint64_t* bits,
                             int* cluster, int* iscratch) {
  AD_CHECK_GT(ngroups, 0);
  const int wpg = ch_words + pos_words;
  // Mutable per-cluster state lives in the caller's integer scratch; the
  // planner itself never allocates (it runs inside the zero-alloc pass).
  int* kc = iscratch;                    // kept channels of cluster root
  int* kp = iscratch + ngroups;          // kept positions of cluster root
  int* gs = iscratch + 2 * ngroups;      // samples in cluster
  int* parent = iscratch + 3 * ngroups;  // merge tree (parent[i] < i)
  int* best_parent = iscratch + 4 * ngroups;  // argmin-state snapshot
  for (int i = 0; i < ngroups; ++i) {
    kc[i] = groups[i].kept_ch;
    kp[i] = groups[i].kept_pos;
    gs[i] = groups[i].size;
    parent[i] = i;
    best_parent[i] = i;
  }

  // Per-sample model MACs / per-group panel-pack MAC-equivalents of the
  // cluster rooted at i (out-filter sets never change under a merge — the
  // eligibility guard requires them equal — so the original group's
  // kept_out stays valid for its cluster).
  const auto macs_of = [&](int i) {
    return static_cast<double>(groups[i].kept_out) * kc[i] * cost.kk * kp[i];
  };
  const auto pack_of = [&](int i) {
    return static_cast<double>(groups[i].kept_out) * kc[i] * cost.kk *
           cost.pack_macs_per_elem;
  };

  // Predicted cost of the current state under the executor's EXACT
  // schedule. With W >= 2 workers, whole groups dispatch in the strided
  // order (worker w runs clusters w, w+W, ...), each group single-threaded
  // inline — the op's latency is the critical-path worker (the PR 5
  // ceil(G/W) group-cost axis, computed per assignment instead of
  // averaged). With W < 2 (one cluster, or a single compute thread) the
  // groups run sequentially and every kernel parallelizes INTERNALLY
  // across the whole pool, so the MAC term divides by the thread count —
  // this is why merging all the way to one group can beat any strided
  // schedule on a batch of near-identical masks.
  const auto critical_path = [&](int alive_count) {
    const int width =
        std::max(1, std::min({cost.threads, alive_count, kMaxGroupWorkers}));
    if (width < 2) {
      double total = 0.0;
      for (int i = 0; i < ngroups; ++i) {
        if (parent[i] != i) continue;
        total += gs[i] * macs_of(i) / cost.threads + pack_of(i) +
                 cost.overhead_macs;
      }
      return total;
    }
    double lane[kMaxGroupWorkers] = {};
    int idx = 0;
    for (int i = 0; i < ngroups; ++i) {
      if (parent[i] != i) continue;
      lane[idx % width] +=
          gs[i] * macs_of(i) + pack_of(i) + cost.overhead_macs;
      ++idx;
    }
    double worst = 0.0;
    for (int w = 0; w < width; ++w) worst = std::max(worst, lane[w]);
    return worst;
  };

  double base_macs = 0.0;  // exact-identity batch MACs (model count)
  for (int i = 0; i < ngroups; ++i) base_macs += gs[i] * macs_of(i);

  CoarsenDecision dec;
  dec.clusters = ngroups;
  dec.predicted_before = critical_path(ngroups);
  dec.predicted_after = dec.predicted_before;
  double best = dec.predicted_before;
  double cur_macs = base_macs;
  double best_macs = base_macs;
  int alive = ngroups;

  // Agglomerative chain: merge the eligible pair with the smallest
  // union-added MAC cost, all the way down, and adopt the argmin state of
  // the whole chain — one merge alone often cannot shrink the critical
  // path (8 -> 7 groups at W=4 removes nothing from the longest worker),
  // so stopping at the first non-improving merge would never reach the
  // 8 -> 4 or 8 -> 1 payoff states.
  while (alive >= 2) {
    int bi = -1, bj = -1, bkc = 0, bkp = 0;
    double bdelta = 0.0;
    for (int i = 0; i < ngroups; ++i) {
      if (parent[i] != i) continue;
      const uint64_t* ri = bits + static_cast<int64_t>(i) * wpg;
      for (int j = i + 1; j < ngroups; ++j) {
        if (parent[j] != j) continue;
        // Hard eligibility guards, independent of any budget: equal kept
        // out-filter sets (a filter union would write rows the other
        // sample's walk leaves zero), and intersecting channel/position
        // sets (disjoint masks never merge — their union is pure
        // duplication, and the union of zeroed-upstream sets only stays
        // "a few extra MACs" when the sets actually overlap).
        if (!(*groups[i].out_channels == *groups[j].out_channels)) continue;
        // Position KIND must match too: partial-position groups run the
        // shift-GEMM, keep-all groups the im2col channel path, and a
        // merged group can only run one of them bitwise (see
        // CoarsenGroup::pos_partial). Kind is an original-mask property,
        // so the roots' flags stay valid for their clusters.
        if (pos_words > 0 &&
            groups[i].pos_partial != groups[j].pos_partial) {
          continue;
        }
        const uint64_t* rj = bits + static_cast<int64_t>(j) * wpg;
        const int ich = core::mask_intersect_bits(ri, rj, ch_words);
        if (ich == 0) continue;
        const int ukc = kc[i] + kc[j] - ich;
        int ukp = kp[i];
        if (pos_words > 0) {
          const int ipos = core::mask_intersect_bits(ri + ch_words,
                                                     rj + ch_words, pos_words);
          if (ipos == 0) continue;
          ukp = kp[i] + kp[j] - ipos;
        }
        const double mu =
            static_cast<double>(groups[i].kept_out) * ukc * cost.kk * ukp;
        const double delta = (gs[i] + gs[j]) * mu - gs[i] * macs_of(i) -
                             gs[j] * macs_of(j);
        if (bi < 0 || delta < bdelta) {
          bi = i;
          bj = j;
          bkc = ukc;
          bkp = ukp;
          bdelta = delta;
        }
      }
    }
    if (bi < 0) break;  // no eligible pair left
    core::union_bits_inplace(bits + static_cast<int64_t>(bi) * wpg,
                             bits + static_cast<int64_t>(bj) * wpg, wpg);
    kc[bi] = bkc;
    kp[bi] = bkp;
    gs[bi] += gs[bj];
    parent[bj] = bi;
    cur_macs += bdelta;
    --alive;
    const double level = critical_path(alive);
    // Adopt strict critical-path improvements, and also exact ties that
    // add no MACs over the incumbent: when the workers are saturated
    // (lanes of one group each), merging near-duplicate buckets leaves
    // the critical path unchanged while still deleting whole pack +
    // dispatch terms of TOTAL work — the lane model just cannot see
    // freed-lane savings, so cost ties break toward fewer groups.
    if (level < best - 1e-9 ||
        (level <= best + 1e-9 && cur_macs <= best_macs + 1e-9)) {
      best = std::min(best, level);
      best_macs = cur_macs;
      std::memcpy(best_parent, parent,
                  sizeof(int) * static_cast<size_t>(ngroups));
    }
  }

  // Adopt the argmin state. best_parent[i] < i for every non-root, so one
  // ascending sweep resolves the dense cluster ids (numbered by smallest
  // member = root index order, the executor's deterministic group order).
  int next_id = 0;
  for (int i = 0; i < ngroups; ++i) {
    cluster[i] = best_parent[i] == i ? next_id++
                                     : cluster[best_parent[i]];
  }
  dec.clusters = next_id;
  dec.predicted_after = best;
  dec.extra_macs = std::llround(best_macs - base_macs);
  return dec;
}

size_t InferencePlan::arena_bytes(int n) const {
  AD_CHECK_GT(n, 0);
  const size_t nn = static_cast<size_t>(n);
  // Room for the caller-staged input batch plus the pass itself.
  const size_t input_bytes = Workspace::align_up(
      static_cast<size_t>(
          shape_floats(buffers_[static_cast<size_t>(input_buffer_)]
                           .per_sample_shape)) *
      nn * sizeof(float));
  // Pass footprint: the activation region is one allocation, and each
  // op's kernel scratch sits on top of it between a mark and a rewind.
  const size_t act = Workspace::align_up(static_cast<size_t>(act_floats_) *
                                         nn * sizeof(float));
  size_t scratch = 0;
  for (const PlanOp& op : ops_) {
    scratch = std::max(scratch, conv_step_scratch_bytes(
                                    op, n, regime_ == NumericRegime::kInt8));
  }
  return input_bytes + act + scratch;
}

void InferencePlan::reserve(Workspace& ws, int n) {
  ws.reserve(arena_bytes(n));
  size_pass_storage(n);
}

void InferencePlan::size_pass_storage(int n) {
  const size_t slots = static_cast<size_t>(n);
  for (PlanOp& op : ops_) {
    if (op.kind != OpKind::kConv || op.coarse_masks.size() >= slots) continue;
    // At most n coarsened clusters, each bounded by the op's full kept-set
    // domains. Sized whatever the coarsening mode says: it can change
    // between passes, and a warm pass must stay heap-allocation-free
    // either way.
    op.coarse_masks.resize(slots);
    for (nn::ConvRuntimeMask& m : op.coarse_masks) {
      m.channels.reserve(static_cast<size_t>(op.geom.in_c));
      if (conv_grid_preserving(op.geom)) {
        m.positions.reserve(static_cast<size_t>(op.geom.in_h * op.geom.in_w));
      }
      m.out_channels.reserve(static_cast<size_t>(op.out_shape[0]));
    }
  }
  // The per-worker slice views (and their one-entry block tables), so even
  // the first cross-group parallel pass performs zero heap allocations —
  // rebinding them to real slices is heap-free.
  if (group_slices_ == nullptr) {
    group_slices_ = std::make_unique<GroupSlices>();
    for (GroupSlices::Slot& s : group_slices_->slot) {
      s.ws.bind_external(nullptr, 0);
    }
  }
}

void InferencePlan::set_regime(NumericRegime regime) {
  if (regime == regime_) return;
  for (PlanOp& op : ops_) {
    if (op.kind != OpKind::kConv) continue;
    if (regime == NumericRegime::kInt8 && op.int8_w.empty()) {
      nn::quantize_conv_weights(op.conv->weight().value.data(),
                                op.out_shape[0], op.geom.in_c,
                                op.geom.k_h * op.geom.k_w, op.int8_w);
    }
  }
  regime_ = regime;
}

int64_t InferencePlan::last_macs() const {
  int64_t total = 0;
  for (const PlanOp& op : ops_) total += op.last_macs;
  return total;
}

int64_t InferencePlan::dense_macs_per_sample() const {
  int64_t total = 0;
  for (const PlanOp& op : ops_) total += op.dense_macs;
  return total;
}

int InferencePlan::last_mask_groups() const {
  int groups = 0;
  for (const PlanOp& op : ops_) groups = std::max(groups, op.last_groups);
  return groups;
}

void InferencePlan::set_compute_cap(double cap) {
  compute_cap_ = std::clamp(cap, kMinComputeCap, 1.0);
}

int InferencePlan::last_capped_samples() const {
  int capped = 0;
  for (const PlanOp& op : ops_) capped = std::max(capped, op.last_capped);
  return capped;
}

double predict_op_ms(const OpCost& op, double channel_keep,
                     double spatial_keep) {
  if (op.prune_block < 0) return op.ewma_ms;
  double keep = channel_keep;
  if (op.prune_spatial) keep *= spatial_keep;
  const double measured = op.measured_units > 1e-4 ? op.measured_units : 1.0;
  return op.ewma_ms * (keep * op.group_frac) / measured;
}

double predict_batch_ms(const std::vector<OpCost>& ops, double channel_keep,
                        double spatial_keep) {
  double total = 0.0;
  for (const OpCost& op : ops) {
    total += predict_op_ms(op, channel_keep, spatial_keep);
  }
  return total;
}

size_t InferencePlan::op_scratch_bytes(int op_index, int n) const {
  AD_CHECK_GE(op_index, 0);
  AD_CHECK_LT(op_index, static_cast<int>(ops_.size()));
  return conv_step_scratch_bytes(ops_[static_cast<size_t>(op_index)], n,
                                 regime_ == NumericRegime::kInt8);
}

int InferencePlan::peak_scratch_op(int n, size_t* op_scratch) const {
  // Every op's scratch sits on the same activation region, so the op with
  // the largest scratch sets the arena's high-water mark.
  int arg = -1;
  size_t best_scratch = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const size_t scratch = conv_step_scratch_bytes(
        ops_[i], n, regime_ == NumericRegime::kInt8);
    if (scratch > best_scratch) {
      arg = static_cast<int>(i);
      best_scratch = scratch;
    }
  }
  if (op_scratch != nullptr) *op_scratch = best_scratch;
  return arg;
}

int InferencePlan::last_mask_groups_raw() const {
  int groups = 0;
  for (const PlanOp& op : ops_) groups = std::max(groups, op.last_groups_raw);
  return groups;
}

int64_t InferencePlan::last_coarsen_extra_macs() const {
  int64_t total = 0;
  for (const PlanOp& op : ops_) total += op.last_coarsen_extra_macs;
  return total;
}

double InferencePlan::last_coarsen_extra_mac_frac() const {
  const int64_t executed = last_macs();
  if (executed <= 0) return 0.0;
  return static_cast<double>(last_coarsen_extra_macs()) /
         static_cast<double>(executed);
}

std::vector<OpCost> InferencePlan::cost_snapshot() const {
  std::vector<OpCost> out;
  out.reserve(ops_.size());
  for (const PlanOp& op : ops_) {
    out.push_back({op.kind, op.ewma_ms, op.ewma_group_frac, op.ewma_units,
                   op.prune_block, op.prune_spatial});
  }
  return out;
}

Tensor InferencePlan::run(const Tensor& x, nn::ExecutionContext& ctx) {
  AD_CHECK_EQ(x.ndim(),
              static_cast<int>(buffers_[static_cast<size_t>(input_buffer_)]
                                   .per_sample_shape.size()) +
                  1)
      << " plan input rank";
  const int n = x.dim(0);
  const PlanBuffer& in_buf = buffers_[static_cast<size_t>(input_buffer_)];
  for (size_t d = 0; d < in_buf.per_sample_shape.size(); ++d) {
    AD_CHECK_EQ(x.dim(static_cast<int>(d) + 1), in_buf.per_sample_shape[d])
        << " plan input shape (op table compiled for another shape)";
  }

  Workspace& ws = ctx.workspace();
  // Everything below the input-staging term of arena_bytes(): the caller
  // already staged (or heap-owns) the input.
  ws.reserve(arena_bytes(n) -
             Workspace::align_up(static_cast<size_t>(shape_floats(in_buf.per_sample_shape)) *
                      static_cast<size_t>(n) * sizeof(float)));
  size_pass_storage(n);
  float* act_base = ws.alloc_floats(act_floats_ * n);

  slots_[static_cast<size_t>(input_buffer_)] = x;
  const auto slot_out = [&](const PlanOp& op) {
    const PlanBuffer& buf = buffers_[static_cast<size_t>(op.output)];
    Shape batch_shape;
    batch_shape.push_back(n);
    for (int d : buf.per_sample_shape) batch_shape.push_back(d);
    Tensor t = Tensor::borrow(act_base + buf.offset_floats * n, batch_shape);
    slots_[static_cast<size_t>(op.output)] = t;
    return t;
  };

  const int threads = compute_threads();
  for (size_t oi = 0; oi < ops_.size(); ++oi) {
    PlanOp& op = ops_[oi];
    const int op_index = static_cast<int>(oi);
    // Phase spans inside the kernels attribute to this op via the
    // thread-local current-op (group workers set their own below).
    obs::ScopedOp op_attr(op_index);
    obs::PhaseScope step_span(obs::Phase::kStep, op_index);
    WallTimer step_timer;
    const Tensor& in = slots_[static_cast<size_t>(op.input)];
    switch (op.kind) {
      case OpKind::kConv: {
        Tensor out = slot_out(op);
        const ConvGeom& g = op.geom;
        const int out_c = op.out_shape[0];
        const int64_t pos = g.out_positions();
        const int64_t in_floats = shape_floats(op.in_shape);
        const int64_t out_floats = shape_floats(op.out_shape);
        const float* wp = op.conv->weight().value.data();
        const float* bp =
            op.conv->has_bias() ? op.conv->bias().value.data() : nullptr;
        const float* res_base =
            op.residual >= 0
                ? slots_[static_cast<size_t>(op.residual)].data()
                : nullptr;
        const std::span<const nn::ConvRuntimeMask> masks =
            op.conv->take_runtime_masks();
        const Workspace::Mark scratch = ws.mark();
        // Int8 regime: the group kernel runs its channel path quantized and
        // keeps groups carrying spatial positions on the f32 shift-GEMM.
        const bool int8 = regime_ == NumericRegime::kInt8;
        const nn::Int8ConvWeights* qw = int8 ? &op.int8_w : nullptr;
        // The group kernel reads only the channel and filter identities.
        const nn::ConvIdentityIndices ids{iota_.data(), iota_.data()};
        int64_t macs = 0;
        if (!masks.empty()) {
          AD_CHECK_EQ(static_cast<int>(masks.size()), n)
              << " runtime mask count vs batch size";
          // Bucket the batch by canonical mask key: a drop ratio quantizes
          // the samples into a handful of distinct kept sets, and every
          // bucket executes as ONE compacted multi-sample GEMM instead of
          // per-sample gather/pack/dispatch. Sorting (key, index) keeps
          // the partition deterministic; equal keys are confirmed with an
          // exact kept-set comparison, so a hash collision can only split
          // a bucket, never corrupt one.
          uint64_t* keys = ws.alloc<uint64_t>(n);
          int* order = ws.alloc<int>(n);
          for (int b = 0; b < n; ++b) {
            keys[b] = core::mask_key(masks[static_cast<size_t>(b)]);
            order[b] = b;
          }
          std::sort(order, order + n, [&](int a, int b) {
            return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
          });
          int* group_begin = ws.alloc<int>(n + 1);
          int groups = 0;
          group_begin[0] = 0;
          for (int i = 1; i <= n; ++i) {
            if (i == n || keys[order[i]] != keys[order[i - 1]] ||
                !core::mask_equal(masks[static_cast<size_t>(order[i])],
                                  masks[static_cast<size_t>(order[i - 1])])) {
              group_begin[++groups] = i;
            }
          }
          // Similar-mask union coarsening: merge near-identical buckets
          // into union-mask clusters when the latency model predicts a
          // win (fewer group dispatches beating the union-added MACs).
          // Bitwise-safe for hard top-k gates: the union's extra
          // channels/positions were zeroed upstream, their products are
          // exact zeros, and the f32 microkernel's strictly sequential
          // per-element accumulation (no FMA, accumulators seeded from
          // +0) preserves every real partial sum bit-for-bit when exact
          // zeros interleave. gmask != nullptr selects the coarsened
          // schedule below.
          op.last_groups_raw = groups;
          op.last_coarsen_extra_macs = 0;
          op.last_coarsen_extra_ch = 0;
          op.last_coarsen_pred_before = 0.0;
          op.last_coarsen_pred_after = 0.0;
          const nn::ConvRuntimeMask* const* gmask = nullptr;
          if (coarsen_ == CoarsenMode::kAuto && groups >= 2) {
            // The coarsened order/bounds and per-group mask pointers must
            // outlive the planner scratch (the kernels read them), so
            // they are carved BEFORE the planner's rewind mark.
            int* c_order = ws.alloc<int>(n);
            int* c_begin = ws.alloc<int>(n + 1);
            const nn::ConvRuntimeMask** gmask_rw =
                ws.alloc<const nn::ConvRuntimeMask*>(n);
            const Workspace::Mark coarsen_mark = ws.mark();
            const bool spatial = conv_grid_preserving(g);
            const int ch_words = core::mask_bits_words(g.in_c);
            const int pos_domain = g.in_h * g.in_w;
            const int pos_words =
                spatial ? core::mask_bits_words(pos_domain) : 0;
            const int wpg = ch_words + pos_words;
            uint64_t* base_bits =
                ws.alloc<uint64_t>(static_cast<int64_t>(groups) * wpg);
            uint64_t* work_bits =
                ws.alloc<uint64_t>(static_cast<int64_t>(groups) * wpg);
            CoarsenGroup* cg = ws.alloc<CoarsenGroup>(groups);
            int* cluster = ws.alloc<int>(groups);
            int* iscratch = ws.alloc<int>(coarsen_iscratch_ints(groups));
            for (int gi = 0; gi < groups; ++gi) {
              const nn::ConvRuntimeMask& m =
                  masks[static_cast<size_t>(order[group_begin[gi]])];
              uint64_t* row = base_bits + static_cast<int64_t>(gi) * wpg;
              core::pack_kept_bits(m.channels, g.in_c, row);
              if (pos_words > 0) {
                core::pack_kept_bits(m.positions, pos_domain,
                                     row + ch_words);
              }
              CoarsenGroup& cgi = cg[gi];
              cgi.size = group_begin[gi + 1] - group_begin[gi];
              cgi.kept_ch = m.channels.empty()
                                ? g.in_c
                                : static_cast<int>(m.channels.size());
              cgi.kept_pos = !spatial          ? static_cast<int>(pos)
                             : m.positions.empty()
                                 ? pos_domain
                                 : static_cast<int>(m.positions.size());
              cgi.kept_out = m.out_channels.empty()
                                 ? out_c
                                 : static_cast<int>(m.out_channels.size());
              cgi.pos_partial = pos_words > 0 && !m.positions.empty();
              cgi.out_channels = &m.out_channels;
            }
            std::memcpy(work_bits, base_bits,
                        sizeof(uint64_t) * static_cast<size_t>(groups) *
                            static_cast<size_t>(wpg));
            CoarsenCost cc;
            cc.kk = static_cast<double>(g.k_h * g.k_w);
            const double bpm = conv_bytes_per_mac(op, regime_);
            if (bpm > 0.0) {
              cc.pack_macs_per_elem = (int8 ? 1.0 : 4.0) / bpm;
            }
            cc.overhead_macs = kCoarsenOverheadMacs;
            cc.threads = threads;
            const CoarsenDecision dec =
                coarsen_plan(cg, groups, ch_words, pos_words, cc,
                             work_bits, cluster, iscratch);
            // Zero-growth invariant: coarsening only ever REDUCES the
            // group count, so arena_bytes(n)'s max-over-G kernel worst
            // cases still bound the coarsened schedule.
            AD_CHECK_LE(dec.clusters, groups);
            op.last_coarsen_pred_before = dec.predicted_before;
            op.last_coarsen_pred_after = dec.predicted_after;
            if (dec.clusters < groups) {
              op.last_coarsen_extra_macs = dec.extra_macs;
              // The planner clobbered work rows past its argmin state, so
              // multi-member clusters re-union their members' ORIGINAL
              // rows into the root's work row.
              int* csize = iscratch;               // member buckets
              int* cfirst = iscratch + groups;     // root bucket index
              int* scount = iscratch + 2 * groups; // samples per cluster
              int* cursor = iscratch + 3 * groups;
              for (int c = 0; c < dec.clusters; ++c) {
                csize[c] = 0;
                cfirst[c] = -1;
                scount[c] = 0;
              }
              for (int gi = 0; gi < groups; ++gi) {
                const int c = cluster[gi];
                if (cfirst[c] < 0) cfirst[c] = gi;
                ++csize[c];
                scount[c] += cg[gi].size;
                uint64_t* urow =
                    work_bits + static_cast<int64_t>(cfirst[c]) * wpg;
                const uint64_t* brow =
                    base_bits + static_cast<int64_t>(gi) * wpg;
                if (gi == cfirst[c]) {
                  std::memcpy(urow, brow,
                              sizeof(uint64_t) * static_cast<size_t>(wpg));
                } else {
                  core::union_bits_inplace(urow, brow, wpg);
                }
              }
              // Coarsened sample partition: clusters in root-bucket order
              // (dense ids are numbered by smallest member), members in
              // bucket order, samples in the key-sorted order — fully
              // deterministic.
              c_begin[0] = 0;
              for (int c = 0; c < dec.clusters; ++c) {
                c_begin[c + 1] = c_begin[c] + scount[c];
                cursor[c] = c_begin[c];
              }
              for (int gi = 0; gi < groups; ++gi) {
                const int c = cluster[gi];
                for (int i = group_begin[gi]; i < group_begin[gi + 1];
                     ++i) {
                  c_order[cursor[c]++] = order[i];
                }
              }
              int64_t extra_ch = 0;
              for (int gi = 0; gi < groups; ++gi) {
                const int c = cluster[gi];
                if (csize[c] < 2) {
                  if (gi == cfirst[c]) {
                    gmask_rw[c] =
                        &masks[static_cast<size_t>(order[group_begin[gi]])];
                  }
                  continue;
                }
                const uint64_t* urow =
                    work_bits + static_cast<int64_t>(cfirst[c]) * wpg;
                extra_ch += static_cast<int64_t>(
                                core::popcount_words(urow, ch_words) -
                                cg[gi].kept_ch) *
                            cg[gi].size;
                if (gi != cfirst[c]) continue;
                nn::ConvRuntimeMask& um =
                    op.coarse_masks[static_cast<size_t>(c)];
                core::bits_to_kept(urow, g.in_c, um.channels);
                if (pos_words > 0) {
                  core::bits_to_kept(urow + ch_words, pos_domain,
                                     um.positions);
                  // A union of PROPER position subsets that saturates the
                  // domain must stay on the members' shift-GEMM path: keep
                  // it as an explicit full index set instead of the
                  // keep-all canonical form, which would switch the group
                  // to the im2col channel path and its different (though
                  // value-equal) accumulation order. Fits the reserved
                  // pos_domain capacity, so no allocation once warm.
                  if (cg[gi].pos_partial && um.positions.empty()) {
                    um.positions.resize(static_cast<size_t>(pos_domain));
                    std::iota(um.positions.begin(), um.positions.end(), 0);
                  }
                } else {
                  um.positions.clear();
                }
                // Merge eligibility required equal kept out-filter sets,
                // so the root's vector is the cluster's (copy into
                // reserved capacity — no allocation once warm).
                um.out_channels = *cg[gi].out_channels;
                gmask_rw[c] = &um;
              }
              op.last_coarsen_extra_ch = extra_ch;
              gmask = gmask_rw;
              order = c_order;
              group_begin = c_begin;
              groups = dec.clusters;
            }
            ws.rewind(coarsen_mark);
          }
          // Groups run in strided lanes: lane w runs groups w, w + width,
          // ... At width 1 the one lane runs inline on the owner's arena and
          // every kernel parallelizes internally. At width >= 2 each lane
          // runs on a pool worker over a private arena slice carved here on
          // the owner thread (workers never touch the owning arena), and
          // every kernel-internal parallel_for runs inline under the
          // nested-dispatch guard. Groups cover disjoint samples, so either
          // way the output is bitwise identical to sequential group order.
          const int width = group_parallel_width(threads, groups);
          const auto run_lane = [&](int lane, Workspace& lane_ws) {
            int64_t lane_macs = 0;
            for (int gi = lane; gi < groups; gi += width) {
              const int gb = group_begin[gi];
              const int ge = group_begin[gi + 1];
              obs::PhaseScope group_span(obs::Phase::kGroup, op_index);
              const nn::ConvRuntimeMask& gm =
                  gmask != nullptr ? *gmask[gi]
                                   : masks[static_cast<size_t>(order[gb])];
              const std::span<const int> gsamples(
                  order + gb, static_cast<size_t>(ge - gb));
              lane_macs += nn::conv_group_masked(
                  in.data(), in_floats, g, wp, out_c, bp, gm, gsamples, ids,
                  out.data(), out_floats, lane_ws, op.tile_pos, qw);
            }
            return lane_macs;
          };
          if (width < 2) {
            macs = run_lane(0, ws);
          } else {
            int max_gs = 1;
            for (int gi = 0; gi < groups; ++gi) {
              max_gs = std::max(max_gs,
                                group_begin[gi + 1] - group_begin[gi]);
            }
            // Slices are fixed-capacity external views (overflow is a hard
            // error, not a growth), so size them for the spatial path if
            // any mask of this pass actually carries positions — even on
            // an op the sizing model believes cannot receive them.
            bool any_spatial = op.prune_spatial;
            for (int b = 0; b < n && !any_spatial; ++b) {
              any_spatial = !masks[static_cast<size_t>(b)].positions.empty();
            }
            const size_t slice_bytes = nn::conv_group_masked_scratch_bytes(
                g, out_c, max_gs, int8, op.tile_pos, any_spatial);
            char* slab =
                ws.alloc<char>(static_cast<int64_t>(width) *
                               static_cast<int64_t>(slice_bytes));
            // One cache line per worker tally: plain adjacent int64s here
            // would false-share across all active workers on every group.
            struct alignas(64) WorkerTally {
              int64_t macs = 0;
            };
            WorkerTally worker_macs[kMaxGroupWorkers];
            parallel_for(
                0, width,
                [&](int64_t w0, int64_t w1) {
                  for (int64_t w = w0; w < w1; ++w) {
                    // Pool workers carry no current-op: establish it so
                    // the group spans and the kernels' nested phase spans
                    // attribute to this conv step.
                    obs::ScopedOp worker_attr(op_index);
                    Workspace& slice = group_slices_->slot[w].ws;
                    slice.bind_external(slab + w * slice_bytes, slice_bytes);
                    worker_macs[w].macs = run_lane(static_cast<int>(w), slice);
                  }
                },
                /*grain=*/1);
            for (int w = 0; w < width; ++w) macs += worker_macs[w].macs;
          }
          op.last_groups = groups;
        } else {
          // Dense step: one keep-all group per sample. Each reads the
          // weights in place and its scatter writes every output row, so
          // the output needs no zero-fill.
          const nn::ConvRuntimeMask keep_all;
          for (int b = 0; b < n; ++b) {
            macs += nn::conv_group_masked(
                in.data(), in_floats, g, wp, out_c, bp, keep_all,
                std::span<const int>(&b, 1), ids, out.data(), out_floats, ws,
                op.tile_pos, qw);
          }
          op.last_groups = 0;
          op.last_groups_raw = 0;
          op.last_coarsen_extra_macs = 0;
          op.last_coarsen_extra_ch = 0;
          op.last_coarsen_pred_before = 0.0;
          op.last_coarsen_pred_after = 0.0;
        }
        // The gate reading this output, when it masks this pass, gets its
        // attention from the epilogue, which then runs even with nothing
        // fused.
        core::AttentionGate::AttentionOut att;
        if (op.attention != nullptr && op.attention->masks_in_place()) {
          att = op.attention->attention_out(n, out_c, g.out_h(), g.out_w());
        }
        if (op.fuse_bn || op.fuse_relu || res_base != nullptr ||
            att.channel != nullptr || att.spatial != nullptr) {
          const nn::FusedEpilogueParams ep = epilogue_params(op);
          obs::PhaseScope epilogue_span(obs::Phase::kEpilogue, op_index);
          parallel_for(
              0, n,
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  nn::EpilogueAttention sums;
                  if (att.channel != nullptr) {
                    sums.channel_mean = att.channel + b * out_c;
                  }
                  if (att.spatial != nullptr) {
                    sums.spatial_mean = att.spatial + b * pos;
                  }
                  nn::fused_epilogue(out.data() + b * out_floats,
                                     res_base != nullptr
                                         ? res_base + b * out_floats
                                         : nullptr,
                                     out_c, pos, ep, sums);
                }
              },
              /*grain=*/1);
        }
        ws.rewind(scratch);
        op.conv->note_external_execution(macs, !masks.empty());
        op.last_macs = macs;
        break;
      }
      case OpKind::kGate: {
        // Either way the gate hands keep sets to its consumer Conv2d, whose
        // fused step picks them up next. A masking AttentionGate zeroes the
        // producer's buffer in place from the attention its epilogue wrote,
        // with its kept counts lowered to the compute cap; any other gate
        // runs its module forward, uncapped. Masks and map match the module
        // walk bitwise at drop ratios with the same kept counts.
        Tensor& map = slots_[static_cast<size_t>(op.input)];
        if (op.attention != nullptr && op.attention->masks_in_place()) {
          op.attention->mask_in_place(map, compute_cap_);
          op.last_capped = op.attention->last_stats().capped;
          slots_[static_cast<size_t>(op.output)] = map;
        } else {
          op.last_capped = 0;
          slots_[static_cast<size_t>(op.output)] = op.gate->forward(map, ctx);
        }
        break;
      }
      case OpKind::kMaxPool: {
        Tensor out = slot_out(op);
        nn::max_pool_forward_into(in.data(), n, op.in_shape[0],
                                  op.in_shape[1], op.in_shape[2], op.pool_k,
                                  op.pool_stride, out.data());
        break;
      }
      case OpKind::kGlobalAvgPool: {
        Tensor out = slot_out(op);
        ops::channel_mean_nchw_into(in, out.data());
        break;
      }
      case OpKind::kLinear: {
        Tensor out = slot_out(op);
        const int in_f = op.linear->in_features();
        const int out_f = op.linear->out_features();
        // y[N, out] = x[N, in] * W[out, in]^T — the Linear module's exact
        // kernel call and bias loop.
        gemm_nt(n, out_f, in_f, 1.f, in.data(),
                op.linear->weight().value.data(), 0.f, out.data());
        if (op.linear->has_bias()) {
          const float* bp = op.linear->bias().value.data();
          for (int i = 0; i < n; ++i) {
            float* row = out.data() + static_cast<int64_t>(i) * out_f;
            for (int j = 0; j < out_f; ++j) row[j] += bp[j];
          }
        }
        op.last_macs = static_cast<int64_t>(n) * out_f * in_f;
        op.linear->note_external_execution(op.last_macs);
        break;
      }
      case OpKind::kShortcut: {
        Tensor out = slot_out(op);
        nn::shortcut_subsample_into(in.data(), n, op.in_shape[0],
                                    op.in_shape[1], op.in_shape[2],
                                    op.out_shape[0], op.shortcut_stride,
                                    out.data());
        break;
      }
    }
    const double ms = step_timer.millis();
    // Raw time and its cost units (keep fraction x group fraction) are
    // smoothed as separate series; the cost model divides the two
    // averages once at prediction time (see the ewma_ms contract).
    double units = 1.0;
    double group_frac = -1.0;  // < 0: this run carried no masks
    if (op.kind == OpKind::kConv && op.last_macs > 0 && op.dense_macs > 0) {
      units = static_cast<double>(op.last_macs) /
              (static_cast<double>(op.dense_macs) * static_cast<double>(n));
      if (op.last_groups > 0) {
        // Cross-group parallelism makes group cost the CRITICAL-PATH
        // worker, not the group sum: with W workers the longest worker
        // runs ceil(G / W) group dispatches, so that — not G — is the
        // dispatch count the measured time reflects.
        const int width = group_parallel_width(threads, op.last_groups);
        group_frac =
            static_cast<double>((op.last_groups + width - 1) / width) /
            static_cast<double>(n);
        units *= group_frac;
      }
    }
    if (op.ewma_ms == 0.0) {
      // Seed every series from the first sample — blending group_frac
      // from its 1.0 prior while units seeds to the measured value would
      // make the cost model's numerator and denominator disagree for
      // many batches.
      op.ewma_ms = ms;
      op.ewma_units = units;
      if (group_frac >= 0.0) op.ewma_group_frac = group_frac;
    } else {
      op.ewma_ms = 0.8 * op.ewma_ms + 0.2 * ms;
      op.ewma_units = 0.8 * op.ewma_units + 0.2 * units;
      if (group_frac >= 0.0) {
        op.ewma_group_frac = 0.8 * op.ewma_group_frac + 0.2 * group_frac;
      }
    }
  }
  return slots_[static_cast<size_t>(output_buffer_)];
}

std::string InferencePlan::to_string() const {
  std::ostringstream os;
  os << "InferencePlan: " << ops_.size() << " ops, "
     << dense_macs_per_sample() << " dense MACs/sample, "
     << activation_floats_per_sample() << " activation floats/sample, "
     << "arena " << arena_bytes(1) << " B at batch 1, "
     << "simd " << nn::simd_lane_width() << "-lane ("
     << nn::simd_isa_name() << "), regime " << regime_name(regime_);
  if (regime_ == NumericRegime::kInt8) {
    os << " (igemm " << nn::int8_isa_name() << ")";
  }
  os << ", vnni " << (nn::cpu_supports_vnni() ? "yes" : "no")
     << ", group workers <= "
     << group_parallel_width(compute_threads(), kMaxGroupWorkers) << "\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "%-3s %-9s %-18s %-16s %-14s %12s %10s %6s %6s\n", "#", "op",
                "name", "out(shape)", "epilogue", "MACs/sample", "ewma_ms",
                "groups", "tile");
  os << line;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const PlanOp& op = ops_[i];
    std::string shape_str;
    for (size_t d = 0; d < op.out_shape.size(); ++d) {
      shape_str += (d == 0 ? "" : "x") + std::to_string(op.out_shape[d]);
    }
    std::string fused;
    if (op.kind == OpKind::kConv) {
      if (op.fuse_bn) fused += "+bn";
      if (op.residual >= 0) fused += "+res";
      if (op.fuse_relu) fused += "+relu";
      if (op.prune_block >= 0) {
        fused += "(m" + std::to_string(op.prune_block) + ")";
      }
    }
    // groups: distinct-mask buckets of the op's last run ("-" = ran dense
    // or has not run yet).
    const std::string groups_str =
        op.last_groups > 0 ? std::to_string(op.last_groups) : "-";
    // tile: output-position tile width of the spatially-tiled lowering
    // ("-" = untiled: non-conv op, or a grid whose panel fits the cache).
    const std::string tile_str =
        op.tile_pos > 0 ? std::to_string(op.tile_pos) : "-";
    std::snprintf(line, sizeof(line),
                  "%-3zu %-9s %-18s %-16s %-14s %12lld %10.4f %6s %6s\n", i,
                  op_kind_name(op.kind), op.name.c_str(), shape_str.c_str(),
                  fused.c_str(), static_cast<long long>(op.dense_macs),
                  op.ewma_ms, groups_str.c_str(), tile_str.c_str());
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "mask coarsening: %s; last pass groups "
                "%d -> %d, union-added MACs %lld (%.2f%% of executed)\n",
                coarsen_mode_name(coarsen_),
                last_mask_groups_raw(), last_mask_groups(),
                static_cast<long long>(last_coarsen_extra_macs()),
                100.0 * last_coarsen_extra_mac_frac());
  os << line;
  return os.str();
}

}  // namespace antidote::plan
