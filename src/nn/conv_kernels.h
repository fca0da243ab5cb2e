// Convolution kernels shared by the Conv2d module and the InferencePlan
// executor.
//
// Both callers must produce bit-identical results for the same input, so
// the dense im2col+GEMM lowering and the masked (channel / spatial /
// filter skipping) execution live here exactly once. Two granularities are
// provided:
//
//   - per-sample kernels (conv_sample_*): the module walk's building
//     blocks. Callers own the batch loop, output placement and any fused
//     epilogue; the kernels own the arithmetic and draw every scratch
//     buffer from the caller's Workspace between a mark/rewind pair the
//     *caller* brackets.
//   - the mask-group kernel (conv_group_masked): the plan executor's only
//     conv step. A *mask group* is a set of batch samples whose runtime
//     masks are identical; the kernel gathers every member's kept inputs
//     into ONE compacted activation block and runs a single multi-sample
//     GEMM instead of per-sample scatter kernels. A dense step is the
//     keep-everything point of the same computation: one call per sample
//     with an empty mask. Channel masks pack the kept filter rows ONCE
//     per group into a weight panel in the group's workspace; full kept
//     sets, spatial masks and f32 groups narrower than one GEMM panel
//     read the weights in place. Per-element accumulation order is
//     unchanged, so grouped outputs are bitwise identical to the
//     per-sample kernels'.
//
// The matching *_bytes functions report the worst-case arena high-water
// of one call, mirroring the allocation sequence (including the
// packed-GEMM panels) byte for byte so the plan compiler can size an arena
// before the first pass ever runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/conv2d.h"
#include "nn/int8_kernels.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace antidote::nn {

// --- SIMD-vectorized hot-path primitives ----------------------------------
//
// The scalar glue around the GEMM (fused epilogue, mask gather/scatter,
// bias) runs at SIMD width (AVX2/NEON via base/simd.h, compile-time
// selected by the ANTIDOTE_SIMD build option). Every primitive is bitwise
// identical to its *_scalar reference: per-element IEEE ops in the same
// order with the same roundings (no FMA contraction — see base/simd.h),
// ragged tails finished by the identical scalar expression. The *_scalar
// functions are genuinely scalar (autovectorization suppressed); the
// parity suite asserts bit-equality and the micro-benchmarks use them as
// the scalar leg.

// Compiled lane width (8 = AVX2, 4 = NEON, 1 = scalar fallback) and ISA
// name of the kernels in this library build.
int simd_lane_width();
const char* simd_isa_name();

// Per-channel fused conv epilogue: for each output channel row of `pos`
// values, optionally BatchNorm (the exact BatchNorm2d eval expression:
// gamma * ((v - mean) * inv_std) + beta), then optional residual add,
// then optional ReLU — in that order, matching the module walk op for op.
struct FusedEpilogueParams {
  const float* mean = nullptr;     // [out_c] (bn only)
  const float* inv_std = nullptr;  // [out_c] (bn only)
  const float* gamma = nullptr;    // [out_c] (bn only)
  const float* beta = nullptr;     // [out_c] (bn only)
  bool bn = false;
  bool relu = false;
};

// The attention a downstream gate reads, accumulated by the epilogue from
// the values it writes (one sample; either pointer may be null):
//   - channel_mean[out_c]: each row's mean as ops::channel_mean_nchw_into
//     computes it — element j into double chain j % 8, the chains combined
//     in its fixed tree, divided by pos;
//   - spatial_mean[pos]: each position's mean over the rows as
//     ops::spatial_mean_nchw computes it — rows added in ascending
//     order starting from +0, then scaled by 1/out_c.
// So a gate fed by the epilogue sees the attention values bit for bit,
// without a second pass over the map.
struct EpilogueAttention {
  float* channel_mean = nullptr;
  float* spatial_mean = nullptr;
};

// Applies the epilogue in place over yb [out_c, pos]; `resb` (nullable)
// is the residual with the same layout. With attention sums requested the
// pass runs even when nothing is fused (it then only reads yb); with
// neither, a no-op combination (no bn, no residual, no relu) returns
// immediately.
void fused_epilogue(float* yb, const float* resb, int out_c, int64_t pos,
                    const FusedEpilogueParams& p,
                    const EpilogueAttention& att = {});
void fused_epilogue_scalar(float* yb, const float* resb, int out_c,
                           int64_t pos, const FusedEpilogueParams& p,
                           const EpilogueAttention& att = {});

// Mask gather: out[j] = plane[idx[j]] for `n` kept positions.
void gather_positions(const float* plane, const int* idx, int64_t n,
                      float* out);
void gather_positions_scalar(const float* plane, const int* idx, int64_t n,
                             float* out);

// Group scatter row: dst[j] = src[j] + bias (one kept filter's compacted
// GEMM output row placed into its output plane with the bias fused in).
void scatter_bias_row(const float* src, float* dst, int64_t n, float bias);
void scatter_bias_row_scalar(const float* src, float* dst, int64_t n,
                             float bias);

// In-place bias add over one output row.
void add_bias_row(float* row, int64_t n, float bias);

// Identity index sets used when a channel or filter set is empty (= keep
// all). Both spans may alias one shared ascending iota array (the plan
// compiler builds one sized at its largest channel count).
struct ConvIdentityIndices {
  const int* channels = nullptr;  // [g.in_c]
  const int* out = nullptr;       // [out_c]
};

// Dense sample: yb[out_c, out_positions] = W * im2col(xb). `cols` is
// caller-provided scratch of g.patch_rows() * g.out_positions() floats
// (hoisted out of the batch loop). Applies `bias` (nullable) over every
// output position. Returns the MACs executed.
int64_t conv_sample_dense(const float* xb, const ConvGeom& g, const float* w,
                          int out_c, const float* bias, float* cols, float* yb,
                          Workspace& ws);

// Masked sample: executes only the kept channels/positions/filters of `m`
// and scatters into yb, which the caller must have zero-filled. Applies
// `bias` (nullable) to the kept output channels over every position,
// matching the dense path's semantics for the skipped entries (they stay
// zero pre-bias). Returns the MACs executed.
int64_t conv_sample_masked(const float* xb, const ConvGeom& g, const float* w,
                           int out_c, const float* bias,
                           const ConvRuntimeMask& m,
                           const ConvIdentityIndices& ids, float* yb,
                           Workspace& ws);

// --- mask-grouped batch kernels -------------------------------------------

// Per-conv int8 weights, quantized once at plan-compile time
// (per-output-channel symmetric; see nn/int8_kernels.h for the scheme).
// `q` holds [out_c][row_stride] zero-padded rows; `wsum`/`scale` are the
// full-row byte sums and dequant scales. Over full kept sets they equal
// the packed int8 panel byte for byte, so keep-all groups read them in
// place.
struct Int8ConvWeights {
  std::vector<int8_t> q;
  std::vector<float> scale;   // [out_c]
  std::vector<int32_t> wsum;  // [out_c]
  int64_t row_stride = 0;     // int8_align4(in_c * kk)
  bool empty() const { return q.empty(); }
};

// Quantizes the dense [out_c][in_c*kk] f32 weight tensor into `out`
// (idempotent re-sizing; deterministic across builds).
void quantize_conv_weights(const float* w, int out_c, int in_c, int kk,
                           Int8ConvWeights& out);

// Packs the kept-filter weight panel of the channel/filter path for the
// kept sets into `dst` (ok*ck*kk floats): panel[oi][ci*kk + t] =
// w[oc[oi], ch[ci], t].
void pack_weight_panel_into(const float* w, int in_c, int kk,
                            std::span<const int> ch, std::span<const int> oc,
                            float* dst);

// Packs the int8 kept-filter panel of one mask group into caller storage:
// rows of int8_align4(ck*kk) bytes gathered from the plan's
// Int8ConvWeights (qdst holds ok of them), with the per-row byte sums (for
// the u8-bias correction) and dequant scales gathered alongside
// (wsum_dst/scale_dst hold ok entries).
void pack_weight_panel_i8_into(const Int8ConvWeights& qw, int kk,
                               std::span<const int> ch,
                               std::span<const int> oc, int8_t* qdst,
                               int32_t* wsum_dst, float* scale_dst);

// One mask group of a batch conv step, and the executor's only conv step:
// a dense step is one call per sample with an empty (keep-all) mask.
// `samples` are the member batch indices (all sharing kept sets `m`).
// Bias semantics match conv_sample_masked; the caller applies any fused
// epilogue afterwards. The kernel writes every element of each member's
// output, whatever the output held before, and zero-fills only what its
// arithmetic does not write: a spatial group zero-fills its members'
// outputs before accumulating into them, a group that drops filters
// zero-fills the dropped filters' rows, and a channel-path group that keeps
// every filter stores every element. Other samples' outputs are untouched.
// Returns the MACs executed for the whole group (in int8 the LOGICAL,
// f32-equivalent count, so cost accounting is regime-comparable).
//
// Channel/filter masks (and keep-all) run one pipeline in both regimes;
// `qw` selects int8 (the plan's quantized weights; nullptr means f32):
//   1. the kept-filter weight panel, packed into `ws` only when some
//      channel or filter is dropped. With full kept sets the weights
//      already are the panel, byte for byte: the f32 tensor `w`, or qw's
//      rows, wsum and scale.
//   2. int8 only: every member's kept input planes quantized ONCE into
//      padded biased-u8 planes (nn/int8_kernels.h) at one scale per group,
//      the largest |x| over those planes.
//   3. per tile of `tile` output positions (untiled is one tile of every
//      position): lower the members' kept channels side by side into one
//      operand — f32 im2col rows, split over (member, kept channel) pairs,
//      or u8 quads from the quantized planes — then ONE (i)gemm over the
//      group into a compacted y_sub tile, then the scatter places each
//      member's columns into its kept filters' rows, bias fused.
//      An f32 group whose operand is narrower than one gemm_nn panel
//      (gs * tile width < kGemmPanelCols) would run on gemm_nn's scalar edge
//      tile. It packs no panel (step 1 is skipped), allocates no y_sub and
//      no GEMM panels, and runs a filter-lane kernel instead: 16 kept
//      filters on the SIMD lanes by 4 lowered columns, each kept
//      (channel, tap) row's 16 weights gathered in place from `w`, the
//      16-filter tiles split over the pool, each tile's outputs stored
//      straight into the members' rows with the bias added. Every output
//      sums its products from +0 in ascending row order with a separate
//      multiply and add, gemm_nn's order, so the narrow result is bitwise
//      the wide one.
// Tiling splits only independent GEMM output columns (per-column
// accumulation order untouched) and every tile of an int8 step quantizes
// at the same scale, so tiled output is bitwise identical to untiled in
// both regimes.
//
// Spatial masks run the fused shift-GEMM in both regimes (in int8 a
// documented mixed-regime fallback): the members' kept input columns are
// gathered once into zero-padded 16-column panels; each 4-filter register
// tile reads its weights in place from `w` and, per kernel offset in
// ascending order, writes its products into its own four rows of an
// [ok x gs*(pk+1)] buffer (each member's kept columns and one +0.0 slot;
// 1/kk of a stacked-offset GEMM output), then adds them into the output
// planes through an inverse table (inv[offset][e] = the kept column
// feeding output e, or the +0.0 slot) with SIMD gathers. Per output
// element the products sum in ascending kept-channel order from +0 and the
// offsets add in ascending order, as in conv_sample_masked, so the output
// is bitwise identical to it; tiles own disjoint output rows and run in
// parallel. It ignores `tile`: it accumulates across kernel offsets into
// whole output planes, so column tiling would not keep it a pure
// output-column split.
//
// Everything the call draws from `ws` is rewound before it returns. The
// caller may run several groups concurrently, each on a pool worker with
// `ws` bound to a private arena slice (Workspace::bind_external); the
// internal parallel_fors then run inline under the nested-dispatch guard.
// Distinct groups cover distinct samples, so outputs are disjoint and the
// result is bitwise identical to sequential group order.
int64_t conv_group_masked(const float* x_base, int64_t in_floats,
                          const ConvGeom& g, const float* w, int out_c,
                          const float* bias, const ConvRuntimeMask& m,
                          std::span<const int> samples,
                          const ConvIdentityIndices& ids, float* y_base,
                          int64_t out_floats, Workspace& ws,
                          int64_t tile = 0,
                          const Int8ConvWeights* qw = nullptr);

// Worst-case arena bytes of one conv_group_masked call with a group of
// `gs` samples, maximized over every mask shape the geometry admits (full
// index sets; the channel path of the regime — f32: the kept-filter panel,
// the lowered tile, y_sub and the GEMM's panels, or for a group narrower
// than one gemm_nn panel the lowered tile alone; `int8_regime`, whose
// calls pass `qw`: the int8 panel with its wsum and scale, the group's u8
// planes, one u8 operand tile and y_sub; the spatial path, in both regimes
// — column panels, inverse table and product buffer — only when the conv
// preserves the grid AND `spatial_masks`).
// Monotone in gs (a narrow group's lowered tile is smaller than any wider
// group's), so a batch's worst case over any grouping is the
// single-group-of-n value (groups run sequentially between rewinds); it
// covers a dense step's one-member keep-all calls too, and sizes one
// worker's arena slice when groups run concurrently.
// `tile` must match the execution call; the spatial path never tiles, so
// its untiled O(gs * pos) footprint stays in the max whenever it is
// accounted. Callers that know position masks can never reach the conv
// (no spatially-aligned gate feeds it) pass spatial_masks = false, which
// is what lets a tiled plan's reserved arena stay sub-linear in the
// output grid; the default keeps the unconditional bound.
size_t conv_group_masked_scratch_bytes(const ConvGeom& g, int out_c, int gs,
                                       bool int8_regime = false,
                                       int64_t tile = 0,
                                       bool spatial_masks = true);

// Option-A residual shortcut kernel: spatial subsampling by `stride` with
// zero-padded extra channels (out_c >= in_c). Zero-fills y, then copies
// the subsampled grid. Shared by models::shortcut_option_a and the
// InferencePlan executor so both produce identical values.
void shortcut_subsample_into(const float* x, int n, int in_c, int h, int w,
                             int out_c, int stride, float* y);

}  // namespace antidote::nn
