#include "nn/conv_kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <utility>

#include "base/error.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "obs/trace.h"
#include "tensor/gemm.h"

namespace antidote::nn {

int simd_lane_width() { return simd::kLanes; }
const char* simd_isa_name() { return simd::kIsaName; }

namespace {

// One instantiation per epilogue shape so the per-element branches of the
// reference collapse to straight-line vector code. The vector body and
// the scalar tail evaluate the exact same expression with the same
// roundings (madd is mul-then-add; see base/simd.h), so the result is
// bitwise identical to fused_epilogue_scalar. kCh and kSp accumulate the
// attention sums from the values as written: element j of a row goes into
// double chain j % 8 (simd::Chains8 for whole vectors, which start at
// multiples of the lane width, then the tail), and every row is added to
// the spatial sums in ascending row order.
template <bool kBn, bool kRes, bool kRelu, bool kCh, bool kSp>
void epilogue_rows(float* yb, const float* resb, int out_c, int64_t pos,
                   const FusedEpilogueParams& p, const EpilogueAttention& a) {
  constexpr bool kWrites = kBn || kRes || kRelu;
  if constexpr (kSp) std::fill(a.spatial_mean, a.spatial_mean + pos, 0.f);
  for (int ch = 0; ch < out_c; ++ch) {
    float* row = yb + static_cast<int64_t>(ch) * pos;
    const float* rrow =
        kRes ? resb + static_cast<int64_t>(ch) * pos : nullptr;
    const float mean_v = kBn ? p.mean[ch] : 0.f;
    const float inv_std = kBn ? p.inv_std[ch] : 0.f;
    const float gamma = kBn ? p.gamma[ch] : 0.f;
    const float beta = kBn ? p.beta[ch] : 0.f;
    const simd::vf vmean = simd::set1(mean_v);
    const simd::vf vinv = simd::set1(inv_std);
    const simd::vf vgamma = simd::set1(gamma);
    const simd::vf vbeta = simd::set1(beta);
    const simd::vf vzero = simd::zero();
    float* sp = a.spatial_mean;
    simd::Chains8 chains;
    int64_t j = 0;
    for (; j + simd::kLanes <= pos; j += simd::kLanes) {
      simd::vf v = simd::load(row + j);
      if constexpr (kBn) {
        const simd::vf xh = simd::mul(simd::sub(v, vmean), vinv);
        v = simd::madd(vgamma, xh, vbeta);
      }
      if constexpr (kRes) v = simd::add(v, simd::load(rrow + j));
      if constexpr (kRelu) v = simd::max(v, vzero);
      if constexpr (kWrites) simd::store(row + j, v);
      if constexpr (kCh) chains.add(v, j);
      if constexpr (kSp) simd::store(sp + j, simd::add(simd::load(sp + j), v));
    }
    double acc[8] = {};
    if constexpr (kCh) chains.store(acc);
    for (; j < pos; ++j) {  // ragged tail: the identical scalar expression
      float v = row[j];
      if constexpr (kBn) {
        const float xh = (v - mean_v) * inv_std;
        v = gamma * xh + beta;
      }
      if constexpr (kRes) v += rrow[j];
      if constexpr (kRelu) v = v > 0.f ? v : 0.f;
      row[j] = v;
      if constexpr (kCh) acc[j & 7] += v;
      if constexpr (kSp) sp[j] += v;
    }
    if constexpr (kCh) {
      const double sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
      a.channel_mean[ch] =
          static_cast<float>(sum / static_cast<double>(pos));
    }
  }
  if constexpr (kSp) {
    const float inv = 1.f / static_cast<float>(out_c);
    const simd::vf vinv = simd::set1(inv);
    float* sp = a.spatial_mean;
    int64_t j = 0;
    for (; j + simd::kLanes <= pos; j += simd::kLanes) {
      simd::store(sp + j, simd::mul(simd::load(sp + j), vinv));
    }
    for (; j < pos; ++j) sp[j] *= inv;
  }
}

using EpilogueFn = void (*)(float*, const float*, int, int64_t,
                            const FusedEpilogueParams&,
                            const EpilogueAttention&);

// Variant i: bit 4 = bn, 3 = residual, 2 = relu, 1 = channel sums,
// 0 = spatial sums.
template <size_t... I>
constexpr std::array<EpilogueFn, sizeof...(I)> epilogue_table(
    std::index_sequence<I...>) {
  return {&epilogue_rows<(I & 16) != 0, (I & 8) != 0, (I & 4) != 0,
                         (I & 2) != 0, (I & 1) != 0>...};
}
constexpr auto kEpilogues = epilogue_table(std::make_index_sequence<32>());

}  // namespace

void fused_epilogue(float* yb, const float* resb, int out_c, int64_t pos,
                    const FusedEpilogueParams& p, const EpilogueAttention& a) {
  const size_t variant = (p.bn ? 16 : 0) | (resb != nullptr ? 8 : 0) |
                         (p.relu ? 4 : 0) |
                         (a.channel_mean != nullptr ? 2 : 0) |
                         (a.spatial_mean != nullptr ? 1 : 0);
  if (variant != 0) kEpilogues[variant](yb, resb, out_c, pos, p, a);
}

ANTIDOTE_NO_VECTORIZE
void fused_epilogue_scalar(float* yb, const float* resb, int out_c,
                           int64_t pos, const FusedEpilogueParams& p,
                           const EpilogueAttention& a) {
  if (a.spatial_mean != nullptr) {
    for (int64_t j = 0; j < pos; ++j) a.spatial_mean[j] = 0.f;
  }
  for (int ch = 0; ch < out_c; ++ch) {
    float* row = yb + static_cast<int64_t>(ch) * pos;
    const float* rrow =
        resb != nullptr ? resb + static_cast<int64_t>(ch) * pos : nullptr;
    const float mean_v = p.bn ? p.mean[ch] : 0.f;
    const float inv_std = p.bn ? p.inv_std[ch] : 0.f;
    const float gamma = p.bn ? p.gamma[ch] : 0.f;
    const float beta = p.bn ? p.beta[ch] : 0.f;
    double acc[8] = {};
    for (int64_t j = 0; j < pos; ++j) {
      float v = row[j];
      if (p.bn) {
        const float xh = (v - mean_v) * inv_std;
        v = gamma * xh + beta;
      }
      if (rrow != nullptr) v += rrow[j];
      if (p.relu) v = v > 0.f ? v : 0.f;
      row[j] = v;
      acc[j & 7] += v;
      if (a.spatial_mean != nullptr) a.spatial_mean[j] += v;
    }
    if (a.channel_mean != nullptr) {
      const double sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
      a.channel_mean[ch] =
          static_cast<float>(sum / static_cast<double>(pos));
    }
  }
  if (a.spatial_mean != nullptr) {
    const float inv = 1.f / static_cast<float>(out_c);
    for (int64_t j = 0; j < pos; ++j) a.spatial_mean[j] *= inv;
  }
}

void gather_positions(const float* plane, const int* idx, int64_t n,
                      float* out) {
  int64_t j = 0;
  for (; j + simd::kLanes <= n; j += simd::kLanes) {
    simd::store(out + j, simd::gather(plane, idx + j));
  }
  for (; j < n; ++j) out[j] = plane[idx[j]];
}

ANTIDOTE_NO_VECTORIZE
void gather_positions_scalar(const float* plane, const int* idx, int64_t n,
                             float* out) {
  for (int64_t j = 0; j < n; ++j) out[j] = plane[idx[j]];
}

void scatter_bias_row(const float* src, float* dst, int64_t n, float bias) {
  const simd::vf vbias = simd::set1(bias);
  int64_t j = 0;
  for (; j + simd::kLanes <= n; j += simd::kLanes) {
    simd::store(dst + j, simd::add(simd::load(src + j), vbias));
  }
  for (; j < n; ++j) dst[j] = src[j] + bias;
}

ANTIDOTE_NO_VECTORIZE
void scatter_bias_row_scalar(const float* src, float* dst, int64_t n,
                             float bias) {
  for (int64_t j = 0; j < n; ++j) dst[j] = src[j] + bias;
}

void add_bias_row(float* row, int64_t n, float bias) {
  const simd::vf vbias = simd::set1(bias);
  int64_t j = 0;
  for (; j + simd::kLanes <= n; j += simd::kLanes) {
    simd::store(row + j, simd::add(simd::load(row + j), vbias));
  }
  for (; j < n; ++j) row[j] += bias;
}

int64_t conv_sample_dense(const float* xb, const ConvGeom& g, const float* w,
                          int out_c, const float* bias, float* cols, float* yb,
                          Workspace& ws) {
  const int64_t patch = g.patch_rows();
  const int64_t pos = g.out_positions();
  im2col(xb, g, cols);
  gemm_nn(out_c, static_cast<int>(pos), static_cast<int>(patch), 1.f, w, cols,
          0.f, yb, &ws);
  if (bias != nullptr) {
    for (int oc = 0; oc < out_c; ++oc) {
      add_bias_row(yb + static_cast<int64_t>(oc) * pos, pos, bias[oc]);
    }
  }
  return static_cast<int64_t>(out_c) * pos * patch;
}

int64_t conv_sample_masked(const float* xb, const ConvGeom& g, const float* w,
                           int out_c, const float* bias,
                           const ConvRuntimeMask& m,
                           const ConvIdentityIndices& ids, float* yb,
                           Workspace& ws) {
  const int in_c = g.in_c, h = g.in_h, wd = g.in_w;
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t pos = g.out_positions();
  const int64_t kk = static_cast<int64_t>(g.k_h) * g.k_w;

  const std::span<const int> ch =
      m.channels.empty()
          ? std::span<const int>(ids.channels, static_cast<size_t>(in_c))
          : std::span<const int>(m.channels);
  const std::span<const int> oc_set =
      m.out_channels.empty()
          ? std::span<const int>(ids.out, static_cast<size_t>(out_c))
          : std::span<const int>(m.out_channels);
  const int ck = static_cast<int>(ch.size());
  const int ok = static_cast<int>(oc_set.size());
  int64_t macs = 0;

  const Workspace::Mark per_sample = ws.mark();
  if (m.positions.empty()) {
    // Channel / filter skipping only: gather kept-channel patch rows and
    // kept-filter weight rows into one GEMM.
    const int patch_k = ck * g.k_h * g.k_w;
    float* w_packed = ws.alloc_floats(static_cast<int64_t>(ok) * patch_k);
    for (int oi = 0; oi < ok; ++oi) {
      const float* src =
          w + static_cast<int64_t>(oc_set[static_cast<size_t>(oi)]) * in_c * kk;
      float* dst = w_packed + static_cast<int64_t>(oi) * patch_k;
      for (int ci = 0; ci < ck; ++ci) {
        const float* block =
            src + static_cast<int64_t>(ch[static_cast<size_t>(ci)]) * kk;
        std::copy(block, block + kk, dst + static_cast<int64_t>(ci) * kk);
      }
    }
    float* cols = ws.alloc_floats(static_cast<int64_t>(patch_k) * pos);
    im2col_gather(xb, g, ch, cols);
    float* y_sub = ws.alloc_floats(static_cast<int64_t>(ok) * pos);
    gemm_nn(ok, static_cast<int>(pos), patch_k, 1.f, w_packed, cols, 0.f,
            y_sub, &ws);
    for (int oi = 0; oi < ok; ++oi) {
      const int oc = oc_set[static_cast<size_t>(oi)];
      std::copy(y_sub + static_cast<int64_t>(oi) * pos,
                y_sub + static_cast<int64_t>(oi + 1) * pos,
                yb + static_cast<int64_t>(oc) * pos);
    }
    macs = static_cast<int64_t>(ok) * pos * patch_k;
  } else {
    // Spatial (column) skipping: input-stationary "shift-GEMM". Only the
    // kept input columns contribute; for each kernel offset (ky, kx) one
    // [ok x ck] x [ck x pk] GEMM produces their contribution, which is
    // scatter-added at the offset output position. The result equals the
    // dense convolution over the column-masked input *exactly* (pruned
    // columns are zero and contribute nothing), while executing only
    // ok * pk * ck * k^2 MACs — dense x keep ratios. This avoids any
    // train/test mismatch: targeted dropout during TTD training computes
    // the same function densely.
    AD_CHECK(g.stride == 1 && oh == h && ow == wd)
        << " spatial runtime mask requires a grid-preserving Conv2d";
    AD_CHECK(m.positions.front() >= 0 &&
             m.positions.back() < static_cast<int>(pos))
        << " spatial runtime mask position out of range";
    const int pk = static_cast<int>(m.positions.size());

    // Gather kept input values: B[ci][j] = x[ch[ci], positions[j]].
    float* cols = ws.alloc_floats(static_cast<int64_t>(ck) * pk);
    for (int ci = 0; ci < ck; ++ci) {
      const float* plane =
          xb + static_cast<int64_t>(ch[static_cast<size_t>(ci)]) * h * wd;
      gather_positions(plane, m.positions.data(), pk,
                       cols + static_cast<int64_t>(ci) * pk);
    }

    // All k^2 kernel-offset weight slices stack into one [k^2*ok x ck]
    // matrix, so the whole shift-GEMM runs as a single (blocked) GEMM
    // against the shared gathered-input matrix instead of k^2 tiny ones
    // — each output row is an independent dot product, so the values
    // (and the scatter order below) are unchanged.
    float* w_packed = ws.alloc_floats(kk * ok * ck);
    float* y_sub = ws.alloc_floats(kk * static_cast<int64_t>(ok) * pk);
    for (int ky = 0; ky < g.k_h; ++ky) {
      for (int kx = 0; kx < g.k_w; ++kx) {
        // W_k[oi][ci] = weight[oc_set[oi], ch[ci], ky, kx].
        const int64_t off = static_cast<int64_t>(ky) * g.k_w + kx;
        for (int oi = 0; oi < ok; ++oi) {
          const float* src =
              w +
              (static_cast<int64_t>(oc_set[static_cast<size_t>(oi)]) * in_c) *
                  kk +
              off;
          float* dst = w_packed + (off * ok + oi) * ck;
          for (int ci = 0; ci < ck; ++ci) {
            dst[ci] =
                src[static_cast<int64_t>(ch[static_cast<size_t>(ci)]) * kk];
          }
        }
      }
    }
    gemm_nn(static_cast<int>(kk) * ok, pk, ck, 1.f, w_packed, cols, 0.f,
            y_sub, &ws);
    for (int ky = 0; ky < g.k_h; ++ky) {
      for (int kx = 0; kx < g.k_w; ++kx) {
        const float* y_off =
            y_sub + (static_cast<int64_t>(ky) * g.k_w + kx) * ok * pk;
        // Input column (iy, ix) feeds output (iy + pad - ky, ix + pad - kx).
        const int dy = g.pad - ky, dx = g.pad - kx;
        for (int j = 0; j < pk; ++j) {
          const int p = m.positions[static_cast<size_t>(j)];
          const int oy = p / wd + dy;
          const int ox = p % wd + dx;
          if (oy < 0 || oy >= oh || ox < 0 || ox >= ow) continue;
          const int64_t out_idx = static_cast<int64_t>(oy) * ow + ox;
          for (int oi = 0; oi < ok; ++oi) {
            yb[static_cast<int64_t>(oc_set[static_cast<size_t>(oi)]) * pos +
               out_idx] += y_off[static_cast<int64_t>(oi) * pk + j];
          }
        }
      }
    }
    macs = static_cast<int64_t>(ok) * pk * ck * kk;
  }

  if (bias != nullptr) {
    for (int oi = 0; oi < ok; ++oi) {
      const int oc = oc_set[static_cast<size_t>(oi)];
      add_bias_row(yb + static_cast<int64_t>(oc) * pos, pos, bias[oc]);
    }
  }
  ws.rewind(per_sample);
  return macs;
}

// --- mask-grouped batch kernels ---------------------------------------------

void quantize_conv_weights(const float* w, int out_c, int in_c, int kk,
                           Int8ConvWeights& out) {
  const int64_t k = static_cast<int64_t>(in_c) * kk;
  out.row_stride = int8_align4(k);
  out.q.resize(static_cast<size_t>(out_c) * out.row_stride);
  out.scale.resize(static_cast<size_t>(out_c));
  out.wsum.resize(static_cast<size_t>(out_c));
  quantize_weights_rowwise(w, out_c, k, out.q.data(), out.row_stride,
                           out.scale.data(), out.wsum.data());
}

void pack_weight_panel_into(const float* w, int in_c, int kk,
                            std::span<const int> ch, std::span<const int> oc,
                            float* dst_base) {
  // panel[oi][ci*kk + t] = w[oc[oi], ch[ci], t]
  const int ck = static_cast<int>(ch.size());
  const int ok = static_cast<int>(oc.size());
  const int patch_k = ck * kk;
  for (int oi = 0; oi < ok; ++oi) {
    const float* src =
        w + static_cast<int64_t>(oc[static_cast<size_t>(oi)]) * in_c * kk;
    float* dst = dst_base + static_cast<int64_t>(oi) * patch_k;
    for (int ci = 0; ci < ck; ++ci) {
      const float* block =
          src + static_cast<int64_t>(ch[static_cast<size_t>(ci)]) * kk;
      std::copy(block, block + kk, dst + static_cast<int64_t>(ci) * kk);
    }
  }
}

void pack_weight_panel_i8_into(const Int8ConvWeights& qw, int kk,
                               std::span<const int> ch,
                               std::span<const int> oc, int8_t* qdst,
                               int32_t* wsum_dst, float* scale_dst) {
  const int ck = static_cast<int>(ch.size());
  const int ok = static_cast<int>(oc.size());
  const int64_t patch_k = static_cast<int64_t>(ck) * kk;
  const int64_t p4 = int8_align4(patch_k);
  for (int oi = 0; oi < ok; ++oi) {
    const int occ = oc[static_cast<size_t>(oi)];
    const int8_t* src = qw.q.data() + static_cast<int64_t>(occ) *
                                          qw.row_stride;
    int8_t* dst = qdst + static_cast<int64_t>(oi) * p4;
    for (int ci = 0; ci < ck; ++ci) {
      std::memcpy(dst + static_cast<int64_t>(ci) * kk,
                  src + static_cast<int64_t>(ch[static_cast<size_t>(ci)]) * kk,
                  static_cast<size_t>(kk));
    }
    // Zero pad keeps both the dot product and wsum exact regardless of
    // the (biased) activation pad bytes.
    for (int64_t t = patch_k; t < p4; ++t) dst[t] = 0;
    // One pass over the packed row, which vectorizes; summing inside the
    // kk-byte block copies does not.
    int32_t sum = 0;
    for (int64_t t = 0; t < patch_k; ++t) sum += dst[t];
    wsum_dst[oi] = sum;
    scale_dst[oi] = qw.scale[static_cast<size_t>(occ)];
  }
}

namespace {

// Bytes of one quantized input plane, bordered by the conv's padding.
int64_t padded_plane_bytes(const ConvGeom& g) {
  return static_cast<int64_t>(g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad);
}

// Quantizes `count` f32 input planes (plane i at src(i)) into consecutive
// padded u8 planes at ONE scale, the largest |x| over all of them, and
// returns that activation scale.
template <typename PlaneSrc>
float quantize_planes(const PlaneSrc& src, int64_t count, const ConvGeom& g,
                      uint8_t* planes) {
  obs::PhaseScope span(obs::Phase::kQuant);
  const int64_t plane = static_cast<int64_t>(g.in_h) * g.in_w;
  const int64_t qplane = padded_plane_bytes(g);
  float maxabs = 0.f;
  for (int64_t i = 0; i < count; ++i)
    maxabs = std::max(maxabs, max_abs(src(i), plane));
  parallel_for(
      0, count,
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          quantize_plane_u8(src(i), g.in_h, g.in_w, g.pad, maxabs,
                            planes + i * qplane);
        }
      },
      /*grain=*/1);
  return maxabs / 127.f;
}

// Lowers output positions [p0, p0 + tw) of `members` consecutive sets of
// ck quantized planes into one igemm operand of members * tw columns:
// member s fills columns [s * tw, (s + 1) * tw) of every row quad.
void lower_tile_u8(const uint8_t* planes, int members, int ck,
                   const ConvGeom& g, int64_t p0, int64_t tw,
                   uint8_t* qcols) {
  const int64_t quads =
      int8_align4(static_cast<int64_t>(ck) * g.k_h * g.k_w) / 4;
  const int64_t member_bytes = ck * padded_plane_bytes(g);
  const int64_t ld = members * tw;
  parallel_for(
      0, quads,
      [&](int64_t q0, int64_t q1) {
        for (int s = 0; s < members; ++s) {
          lower_u8_quads(planes + s * member_bytes, ck, g, q0, q1, p0,
                         p0 + tw, qcols + s * tw * 4, ld);
        }
      },
      /*grain=*/1);
}

// Register tile of the fused spatial kernel: kSpatialRows filters by
// kSpatialCols gathered columns, gemm_nn's 4 x 16 micro-kernel shape. The
// gathered columns live in zero-padded panels of kSpatialCols columns,
// bp[panel][ci][lane], so one panel row is one pair of 8-lane loads.
constexpr int kSpatialRows = 4;
constexpr int kSpatialCols = 16;

// Scratch shape of one spatial group with `pk` kept positions: member s
// owns the column segment [s * seg, (s + 1) * seg) — its pk kept columns
// followed by one +0.0 slot — and the segments are packed into `panels`
// column panels, so a panel may straddle members.
struct SpatialShape {
  int64_t seg = 0;
  int64_t panels = 0;
  int64_t ld() const { return panels * kSpatialCols; }
};

SpatialShape spatial_shape(int gs, int64_t pk) {
  SpatialShape s;
  s.seg = pk + 1;
  s.panels = (gs * s.seg + kSpatialCols - 1) / kSpatialCols;
  return s;
}

// Products of one 4-filter tile at one kernel offset over every gathered
// column: prod[r][c] = sum over ci ascending of wrow[r][widx[ci]] * B[ci][c],
// accumulated from +0 with mul-then-add — gemm_nn's per-element order, so
// each value equals conv_sample_masked's shift-GEMM product bit for bit.
// The weights are read in place: wrow[r] points at filter r's kernel
// offset in the dense weight tensor and widx[ci] = ch[ci] * kk. The unroll
// pragmas serve the scalar build (16 one-lane vectors per row), where
// gemm_nn's micro-kernel needs them to keep its accumulators in registers.
void spatial_tile_products(const float* const* wrow, const int* widx, int ck,
                           const float* bpanels, int64_t panels, float* prod,
                           int64_t ld) {
  constexpr int kVecs = kSpatialCols / simd::kLanes;
  for (int64_t jp = 0; jp < panels; ++jp) {
    const float* bp = bpanels + jp * ck * kSpatialCols;
    simd::vf acc[kSpatialRows][kVecs];
    for (int r = 0; r < kSpatialRows; ++r) {
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) acc[r][v] = simd::zero();
    }
    for (int ci = 0; ci < ck; ++ci) {
      const float* brow = bp + static_cast<int64_t>(ci) * kSpatialCols;
      simd::vf b[kVecs];
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) {
        b[v] = simd::load(brow + v * simd::kLanes);
      }
      const int wi = widx[ci];
      for (int r = 0; r < kSpatialRows; ++r) {
        const simd::vf av = simd::set1(wrow[r][wi]);
#pragma GCC unroll 16
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = simd::madd(av, b[v], acc[r][v]);
        }
      }
    }
    for (int r = 0; r < kSpatialRows; ++r) {
      float* dst = prod + r * ld + jp * kSpatialCols;
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) {
        simd::store(dst + v * simd::kLanes, acc[r][v]);
      }
    }
  }
}

// dst[e] += src[idx[e]] over one output plane. Outputs no kept column
// feeds at this offset index the member's +0.0 slot, so every lane adds
// and no load is masked.
void gather_add_row(const float* src, const int* idx, int64_t n, float* dst) {
  int64_t e = 0;
  for (; e + simd::kLanes <= n; e += simd::kLanes) {
    simd::store(dst + e,
                simd::add(simd::load(dst + e), simd::gather(src, idx + e)));
  }
  for (; e < n; ++e) dst[e] += src[idx[e]];
}

// Spatial (column) skipping for one mask group: the input-stationary
// shift-GEMM of conv_sample_masked, fused. The members' kept columns are
// gathered once into column panels; then each 4-filter tile, for each
// kernel offset in ascending order, computes its products over every
// member's columns into its own four rows of `prod` and adds them into
// the output planes through the inverse table inv[offset][e] (the kept
// column feeding output e, or the +0.0 slot). Per output element that is
// conv_sample_masked's sequence of scatter additions, plus exact +0.0
// additions for offsets with no feeder: the members' outputs are first
// zero-filled with +0.0, and a sum that starts at +0.0 never becomes -0.0,
// so adding +0.0 changes no bit. Tiles own disjoint output rows, so they
// run in parallel.
int64_t conv_group_spatial(const float* x_base, int64_t in_floats,
                           const ConvGeom& g, const float* w,
                           const float* bias, std::span<const int> ch,
                           std::span<const int> oc_set,
                           std::span<const int> positions,
                           std::span<const int> samples, float* y_base,
                           int64_t out_floats, Workspace& ws) {
  const int in_c = g.in_c, wd = g.in_w;
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t plane = static_cast<int64_t>(g.in_h) * wd;
  const int64_t pos = g.out_positions();
  const int kk = g.k_h * g.k_w;
  AD_CHECK(g.stride == 1 && oh == g.in_h && ow == wd)
      << " spatial runtime mask requires a grid-preserving Conv2d";
  AD_CHECK(positions.front() >= 0 &&
           positions.back() < static_cast<int>(pos))
      << " spatial runtime mask position out of range";
  const int ck = static_cast<int>(ch.size());
  const int ok = static_cast<int>(oc_set.size());
  const int pk = static_cast<int>(positions.size());
  const int gs = static_cast<int>(samples.size());
  const SpatialShape sh = spatial_shape(gs, pk);
  const int64_t ld = sh.ld();
  const int tiles = (ok + kSpatialRows - 1) / kSpatialRows;

  float* bpanels = ws.alloc_floats(sh.panels * ck * kSpatialCols);
  int* widx = ws.alloc<int>(ck);
  int* inv = ws.alloc<int>(kk * pos);
  float* prod =
      ws.alloc_floats(static_cast<int64_t>(tiles) * kSpatialRows * ld);
  const auto out_plane = [&](int s, int oc) {
    return y_base +
           static_cast<int64_t>(samples[static_cast<size_t>(s)]) * out_floats +
           static_cast<int64_t>(oc) * pos;
  };
  {
    // The tiles add into the kept filters' planes and never touch the
    // dropped ones, so every member's output starts at +0.
    obs::PhaseScope span(obs::Phase::kScatter);
    parallel_for(
        0, gs,
        [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            std::memset(out_plane(static_cast<int>(s), 0), 0,
                        static_cast<size_t>(out_floats) * sizeof(float));
          }
        },
        /*grain=*/1);
  }
  {
    obs::PhaseScope span(obs::Phase::kGather);
    // B[ci][s * seg + j] = x_s[ch[ci], positions[j]], then the member's
    // +0.0 column; the last panel's tail past gs * seg is zero too.
    parallel_for(
        0, static_cast<int64_t>(gs) * ck,
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            const int64_t s = i / ck;
            const int ci = static_cast<int>(i % ck);
            const float* src =
                x_base +
                static_cast<int64_t>(samples[static_cast<size_t>(s)]) *
                    in_floats +
                ch[static_cast<size_t>(ci)] * plane;
            const int64_t c_end = s + 1 == gs ? ld : (s + 1) * sh.seg;
            for (int64_t c = s * sh.seg; c < c_end;) {
              const int64_t lane = c % kSpatialCols;
              const int64_t n = std::min(kSpatialCols - lane, c_end - c);
              float* dst = bpanels +
                           ((c / kSpatialCols) * ck + ci) * kSpatialCols + lane;
              const int64_t j = c - s * sh.seg;
              const int64_t kept = std::clamp<int64_t>(pk - j, 0, n);
              if (kept > 0) gather_positions(src, &positions[j], kept, dst);
              std::fill(dst + kept, dst + n, 0.f);
              c += n;
            }
          }
        },
        /*grain=*/1);
    for (int ci = 0; ci < ck; ++ci) widx[ci] = ch[static_cast<size_t>(ci)] * kk;
    // Input column (iy, ix) feeds output (iy + pad - ky, ix + pad - kx).
    std::fill(inv, inv + static_cast<int64_t>(kk) * pos, pk);
    for (int j = 0; j < pk; ++j) {
      const int p = positions[static_cast<size_t>(j)];
      const int iy = p / wd, ix = p % wd;
      for (int ky = 0; ky < g.k_h; ++ky) {
        const int oy = iy + g.pad - ky;
        if (oy < 0 || oy >= oh) continue;
        for (int kx = 0; kx < g.k_w; ++kx) {
          const int ox = ix + g.pad - kx;
          if (ox < 0 || ox >= ow) continue;
          inv[static_cast<int64_t>(ky * g.k_w + kx) * pos + oy * ow + ox] = j;
        }
      }
    }
  }
  {
    obs::PhaseScope span(obs::Phase::kGemm);
    parallel_for(
        0, tiles,
        [&](int64_t t0, int64_t t1) {
          for (int64_t tile = t0; tile < t1; ++tile) {
            const int oi0 = static_cast<int>(tile) * kSpatialRows;
            const int rows = std::min(kSpatialRows, ok - oi0);
            float* tprod = prod + static_cast<int64_t>(oi0) * ld;
            // Rows past a ragged last tile repeat its last filter; their
            // products land in spare rows that are never read.
            const float* wbase[kSpatialRows];
            for (int r = 0; r < kSpatialRows; ++r) {
              wbase[r] = w + static_cast<int64_t>(oc_set[static_cast<size_t>(
                                 oi0 + std::min(r, rows - 1))]) *
                                 in_c * kk;
            }
            for (int t = 0; t < kk; ++t) {
              const float* wrow[kSpatialRows];
              for (int r = 0; r < kSpatialRows; ++r) wrow[r] = wbase[r] + t;
              spatial_tile_products(wrow, widx, ck, bpanels, sh.panels, tprod,
                                    ld);
              const int* inv_t = inv + static_cast<int64_t>(t) * pos;
              for (int r = 0; r < rows; ++r) {
                const int oc = oc_set[static_cast<size_t>(oi0 + r)];
                for (int s = 0; s < gs; ++s) {
                  float* src = tprod + r * ld + s * sh.seg;
                  // The +0.0 column's product is +0.0 for finite weights;
                  // storing it keeps the slot exact for any weight.
                  src[pk] = 0.f;
                  gather_add_row(src, inv_t, pos, out_plane(s, oc));
                }
              }
            }
            if (bias == nullptr) continue;
            for (int r = 0; r < rows; ++r) {
              const int oc = oc_set[static_cast<size_t>(oi0 + r)];
              for (int s = 0; s < gs; ++s) {
                add_bias_row(out_plane(s, oc), pos, bias[oc]);
              }
            }
          }
        },
        /*grain=*/1);
  }
  return static_cast<int64_t>(ok) * pk * ck * kk * gs;
}

// Register tile of the narrow f32 channel kernel, gemm_nn's 4 x 16
// micro-kernel with its operands swapped: kNarrowFilters filters on the
// SIMD lanes by kNarrowCols lowered columns.
constexpr int kNarrowFilters = kGemmPanelCols;
constexpr int kNarrowCols = 4;

// Outputs of one kNarrowFilters-filter tile over kCols lowered columns:
// out[c][l] = sum over kept rows r = ci * kk + t ascending of
// w[filter l, ch[ci], t] * cols[r][c]. The weights are read in place:
// filter l's weight at row r is wr[fidx[l]] with wr = w + ch[ci] * kk + t,
// one SIMD gather per kLanes filters. Each output accumulates from +0 with
// mul-then-add, gemm_nn's per-element order with the product's operands as
// gemm_nn orders them, so it equals gemm_nn's output bit for bit. The
// unroll pragmas serve the scalar build, as in spatial_tile_products.
template <int kCols>
void filter_lane_tile(const float* w, std::span<const int> ch, int kk,
                      const int32_t* fidx, const float* cols, int64_t ld,
                      float* out) {
  constexpr int kVecs = kNarrowFilters / simd::kLanes;
  simd::vf acc[kCols][kVecs];
  for (int c = 0; c < kCols; ++c) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) acc[c][v] = simd::zero();
  }
  const float* brow = cols;
  for (const int c_in : ch) {
    const float* wc = w + static_cast<int64_t>(c_in) * kk;
    for (int t = 0; t < kk; ++t, brow += ld) {
      simd::vf wv[kVecs];
#pragma GCC unroll 16
      for (int v = 0; v < kVecs; ++v) {
        wv[v] = simd::gather(wc + t, fidx + v * simd::kLanes);
      }
      for (int c = 0; c < kCols; ++c) {
        const simd::vf b = simd::set1(brow[c]);
#pragma GCC unroll 16
        for (int v = 0; v < kVecs; ++v) {
          acc[c][v] = simd::madd(wv[v], b, acc[c][v]);
        }
      }
    }
  }
  for (int c = 0; c < kCols; ++c) {
#pragma GCC unroll 16
    for (int v = 0; v < kVecs; ++v) {
      simd::store(out + c * kNarrowFilters + v * simd::kLanes, acc[c][v]);
    }
  }
}

using FilterLaneTileFn = void (*)(const float*, std::span<const int>, int,
                                  const int32_t*, const float*, int64_t,
                                  float*);
// Entry c - 1 runs a block of c columns (the last block may be ragged).
constexpr FilterLaneTileFn kFilterLaneTiles[kNarrowCols] = {
    &filter_lane_tile<1>, &filter_lane_tile<2>, &filter_lane_tile<3>,
    &filter_lane_tile<4>};

// Channel/filter skipping for one mask group, and the keep-all dense step
// (a one-member group with an empty mask). One pipeline for both regimes:
// the kept-filter weight panel (packed only when a channel or filter is
// dropped; full kept sets read the f32 weights or the plan's int8 rows in
// place), in int8 every member's kept planes quantized once at one scale,
// then per tile of output positions lower -> (i)gemm -> store. Members sit
// side by side as column slices of one operand, so the whole group is ONE
// compacted GEMM per tile. The stores write every kept filter's row; the
// dropped filters' rows are zero-filled. An f32 group whose operand is
// narrower than one gemm_nn panel would run on gemm_nn's scalar edge tile;
// it packs no panel and runs the filter-lane kernel instead, which reads
// the weights in place and stores each tile's outputs straight into the
// members' planes.
int64_t conv_group_channels(const float* x_base, int64_t in_floats,
                            const ConvGeom& g, const float* w,
                            const Int8ConvWeights* qw, int out_c,
                            const float* bias, std::span<const int> ch,
                            std::span<const int> oc_set,
                            std::span<const int> samples, float* y_base,
                            int64_t out_floats, Workspace& ws,
                            int64_t tile) {
  const int in_c = g.in_c;
  const int64_t pos = g.out_positions();
  const int kk = g.k_h * g.k_w;
  const int gs = static_cast<int>(samples.size());
  const int ck = static_cast<int>(ch.size());
  const int ok = static_cast<int>(oc_set.size());
  const int patch_k = ck * kk;
  const int64_t p4 = int8_align4(patch_k);
  const bool tiled = tile > 0 && tile < pos;
  const int64_t tile_w = tiled ? tile : pos;
  const int64_t ldt = static_cast<int64_t>(gs) * tile_w;
  const bool narrow = qw == nullptr && ldt < kGemmPanelCols;

  const float* w_panel = w;
  const int8_t* q_panel = nullptr;
  const int32_t* q_wsum = nullptr;
  const float* q_scale = nullptr;
  if (qw != nullptr) {
    AD_CHECK_EQ(qw->row_stride, int8_align4(static_cast<int64_t>(in_c) * kk));
    q_panel = qw->q.data();
    q_wsum = qw->wsum.data();
    q_scale = qw->scale.data();
  }
  // The narrow kernel's gather indices are filter offsets oc * in_c * kk.
  const int64_t filter_floats = static_cast<int64_t>(in_c) * kk;
  AD_CHECK(!narrow || out_c * filter_floats <= INT32_MAX)
      << " filter offsets exceed the gather index range";
  if (!narrow && (ck < in_c || ok < out_c)) {
    obs::PhaseScope span(obs::Phase::kPack);
    if (qw != nullptr) {
      int8_t* qdst = ws.alloc<int8_t>(static_cast<int64_t>(ok) * p4);
      int32_t* wsum = ws.alloc<int32_t>(ok);
      float* scale = ws.alloc_floats(ok);
      pack_weight_panel_i8_into(*qw, kk, ch, oc_set, qdst, wsum, scale);
      q_panel = qdst;
      q_wsum = wsum;
      q_scale = scale;
    } else {
      float* panel = ws.alloc_floats(static_cast<int64_t>(ok) * patch_k);
      pack_weight_panel_into(w, in_c, kk, ch, oc_set, panel);
      w_panel = panel;
    }
  }

  const int64_t plane = static_cast<int64_t>(g.in_h) * g.in_w;
  const auto member_x = [&](int64_t s) {
    return x_base +
           static_cast<int64_t>(samples[static_cast<size_t>(s)]) * in_floats;
  };
  const auto member_y = [&](int64_t s) {
    return y_base +
           static_cast<int64_t>(samples[static_cast<size_t>(s)]) * out_floats;
  };
  float* cols = nullptr;
  uint8_t* planes = nullptr;
  uint8_t* qcols = nullptr;
  if (qw == nullptr) {
    cols = ws.alloc_floats(static_cast<int64_t>(patch_k) * ldt);
  } else {
    planes = ws.alloc<uint8_t>(static_cast<int64_t>(gs) * ck *
                               padded_plane_bytes(g));
    qcols = ws.alloc<uint8_t>(p4 * ldt);
  }
  float* y_sub =
      narrow ? nullptr : ws.alloc_floats(static_cast<int64_t>(ok) * ldt);
  if (ok < out_c) {
    // The scatter stores only the kept filters' rows; zero the dropped
    // ones (oc_set is ascending, so a cursor walks it).
    obs::PhaseScope span(obs::Phase::kScatter);
    parallel_for(
        0, gs,
        [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            float* yb = member_y(s);
            size_t next = 0;
            for (int oc = 0; oc < out_c; ++oc) {
              if (next < oc_set.size() && oc_set[next] == oc) {
                ++next;
                continue;
              }
              std::memset(yb + static_cast<int64_t>(oc) * pos, 0,
                          static_cast<size_t>(pos) * sizeof(float));
            }
          }
        },
        /*grain=*/1);
  }
  // Plane i of the group is kept channel i % ck of member i / ck.
  const float sa =
      qw == nullptr
          ? 0.f
          : quantize_planes(
                [&](int64_t i) {
                  return member_x(i / ck) +
                         ch[static_cast<size_t>(i % ck)] * plane;
                },
                static_cast<int64_t>(gs) * ck, g, planes);

  for (int64_t p0 = 0; p0 < pos; p0 += tile_w) {
    std::optional<obs::PhaseScope> tile_span;
    if (tiled) tile_span.emplace(obs::Phase::kTile);
    const int64_t tw = std::min(tile_w, pos - p0);
    const int64_t ld = static_cast<int64_t>(gs) * tw;
    {
      // Member s fills columns [s * tw, (s + 1) * tw) of every row.
      obs::PhaseScope span(ck == in_c ? obs::Phase::kIm2col
                                      : obs::Phase::kGather);
      if (qw != nullptr) {
        lower_tile_u8(planes, gs, ck, g, p0, tw, qcols);
      } else {
        // One (member, kept channel) pair per item, so a one-member group
        // still lowers its channels in parallel; a chunk lowers each
        // member's run of channels in one call.
        parallel_for(
            0, static_cast<int64_t>(gs) * ck,
            [&](int64_t i0, int64_t i1) {
              for (int64_t i = i0; i < i1;) {
                const int64_t s = i / ck, ci = i % ck;
                const int64_t run = std::min<int64_t>(ck - ci, i1 - i);
                im2col_gather_pos_ld(
                    member_x(s), g,
                    ch.subspan(static_cast<size_t>(ci),
                               static_cast<size_t>(run)),
                    p0, p0 + tw, cols + ci * kk * ld + s * tw, ld);
                i += run;
              }
            },
            /*grain=*/1);
      }
    }
    if (narrow) {
      // Tiles of kNarrowFilters kept filters over the pool, as gemm_nn
      // splits row panels; each tile owns its filters' output rows. Spare
      // lanes of a ragged last tile repeat its last filter and are never
      // stored. A stored value is the wide path's: the product, plus the
      // bias when there is one.
      obs::PhaseScope span(obs::Phase::kGemm);
      parallel_for(
          0, (ok + kNarrowFilters - 1) / kNarrowFilters,
          [&](int64_t f0, int64_t f1) {
            int32_t fidx[kNarrowFilters];
            float outs[kNarrowCols * kNarrowFilters];
            for (int64_t f = f0; f < f1; ++f) {
              const int oi0 = static_cast<int>(f) * kNarrowFilters;
              const int lanes = std::min(kNarrowFilters, ok - oi0);
              for (int l = 0; l < kNarrowFilters; ++l) {
                fidx[l] = static_cast<int32_t>(
                    oc_set[static_cast<size_t>(oi0 + std::min(l, lanes - 1))] *
                    filter_floats);
              }
              for (int64_t c0 = 0; c0 < ld; c0 += kNarrowCols) {
                const int cols_here =
                    static_cast<int>(std::min<int64_t>(kNarrowCols, ld - c0));
                kFilterLaneTiles[cols_here - 1](w, ch, kk, fidx, cols + c0, ld,
                                                outs);
                for (int c = 0; c < cols_here; ++c) {
                  const int64_t col = c0 + c;
                  float* out = member_y(col / tw) + p0 + col % tw;
                  for (int l = 0; l < lanes; ++l) {
                    const int oc = oc_set[static_cast<size_t>(oi0 + l)];
                    const float v = outs[c * kNarrowFilters + l];
                    out[static_cast<int64_t>(oc) * pos] =
                        bias != nullptr ? v + bias[oc] : v;
                  }
                }
              }
            }
          },
          /*grain=*/1);
      continue;
    }
    {
      obs::PhaseScope span(obs::Phase::kGemm);
      if (qw != nullptr) {
        igemm_u8s8_dequant(ok, ld, p4, q_panel, p4, qcols, q_wsum, q_scale,
                           sa, y_sub, ld);
      } else {
        gemm_nn(ok, static_cast<int>(ld), patch_k, 1.f, w_panel, cols, 0.f,
                y_sub, &ws);
      }
    }
    obs::PhaseScope span(obs::Phase::kScatter);
    parallel_for(
        0, gs,
        [&](int64_t s0, int64_t s1) {
          for (int64_t s = s0; s < s1; ++s) {
            float* yb = member_y(s);
            for (int oi = 0; oi < ok; ++oi) {
              const int oc = oc_set[static_cast<size_t>(oi)];
              const float* src =
                  y_sub + static_cast<int64_t>(oi) * ld + s * tw;
              float* out = yb + static_cast<int64_t>(oc) * pos + p0;
              if (bias != nullptr) {
                // Fused copy+bias: the same value per element as
                // copy-then-add.
                scatter_bias_row(src, out, tw, bias[oc]);
              } else {
                std::memcpy(out, src, static_cast<size_t>(tw) * sizeof(float));
              }
            }
          }
        },
        /*grain=*/1);
  }
  return static_cast<int64_t>(ok) * pos * patch_k * gs;
}

}  // namespace

int64_t conv_group_masked(const float* x_base, int64_t in_floats,
                          const ConvGeom& g, const float* w, int out_c,
                          const float* bias, const ConvRuntimeMask& m,
                          std::span<const int> samples,
                          const ConvIdentityIndices& ids, float* y_base,
                          int64_t out_floats, Workspace& ws, int64_t tile,
                          const Int8ConvWeights* qw) {
  AD_CHECK_GT(samples.size(), 0u);
  const std::span<const int> ch =
      m.channels.empty()
          ? std::span<const int>(ids.channels, static_cast<size_t>(g.in_c))
          : std::span<const int>(m.channels);
  const std::span<const int> oc_set =
      m.out_channels.empty()
          ? std::span<const int>(ids.out, static_cast<size_t>(out_c))
          : std::span<const int>(m.out_channels);
  const Workspace::Mark per_group = ws.mark();
  // Groups with spatial positions run the f32 shift-GEMM in both regimes:
  // in int8 a documented mixed-regime fallback, since its offset-by-offset
  // accumulation into the output planes has no int8 formulation that keeps
  // its skip ratio.
  const int64_t macs =
      m.positions.empty()
          ? conv_group_channels(x_base, in_floats, g, w, qw, out_c, bias, ch,
                                oc_set, samples, y_base, out_floats, ws,
                                tile)
          : conv_group_spatial(x_base, in_floats, g, w, bias, ch, oc_set,
                               m.positions, samples, y_base, out_floats, ws);
  ws.rewind(per_group);
  return macs;
}

void shortcut_subsample_into(const float* x, int n, int in_c, int h, int w,
                             int out_c, int stride, float* y) {
  AD_CHECK_GE(out_c, in_c);
  const int oh = (h + stride - 1) / stride;
  const int ow = (w + stride - 1) / stride;
  std::memset(y, 0,
              static_cast<size_t>(n) * out_c * oh * ow * sizeof(float));
  for (int b = 0; b < n; ++b) {
    for (int c = 0; c < in_c; ++c) {
      const float* src = x + (static_cast<int64_t>(b) * in_c + c) * h * w;
      float* dst = y + (static_cast<int64_t>(b) * out_c + c) * oh * ow;
      for (int yy = 0; yy < oh; ++yy) {
        for (int xx = 0; xx < ow; ++xx) {
          dst[static_cast<int64_t>(yy) * ow + xx] =
              src[static_cast<int64_t>(yy) * stride * w + xx * stride];
        }
      }
    }
  }
}

size_t conv_group_masked_scratch_bytes(const ConvGeom& g, int out_c, int gs,
                                       bool int8_regime, int64_t tile,
                                       bool spatial_masks) {
  const int64_t patch = g.patch_rows();
  const int64_t pos = g.out_positions();
  const int64_t kk = static_cast<int64_t>(g.k_h) * g.k_w;
  const bool tiled = tile > 0 && tile < pos;
  // The channel path allocates its buffers at the full-tile group width
  // gs * tile; untiled is one tile of gs * pos.
  const int64_t ldc = static_cast<int64_t>(gs) * (tiled ? tile : pos);
  // Channel/filter path with full index sets, in the one form the regime
  // runs (the int8 path allocates none of the f32 path's buffers). The
  // kept-filter panel is packed only by a group that drops something, so
  // the full weight size bounds it.
  size_t worst = 0;
  if (int8_regime) {
    // Int8: the int8 panel with its wsum and scale, every member's
    // quantized input planes, one u8 operand tile and the dequantized y_sub
    // (no GEMM pack panels).
    worst =
        Workspace::align_up(static_cast<size_t>(out_c) *
                            int8_align4(patch)) +
        Workspace::align_up(static_cast<size_t>(out_c) * sizeof(int32_t)) +
        Workspace::align_up(static_cast<size_t>(out_c) * sizeof(float)) +
        Workspace::align_up(static_cast<size_t>(
            static_cast<int64_t>(gs) * g.in_c * padded_plane_bytes(g))) +
        Workspace::align_up(static_cast<size_t>(int8_align4(patch)) * ldc) +
        Workspace::align_up(static_cast<size_t>(out_c) * ldc *
                            sizeof(float));
  } else if (ldc < kGemmPanelCols) {
    // F32 narrower than one gemm_nn panel: the lowered tile alone (the
    // filter-lane kernel reads the weights in place and stores straight
    // into the outputs).
    worst =
        Workspace::align_up(static_cast<size_t>(patch) * ldc * sizeof(float));
  } else {
    // F32: the panel, the lowered tile, y_sub and the GEMM's panels.
    worst =
        Workspace::align_up(static_cast<size_t>(out_c) * patch *
                            sizeof(float)) +
        Workspace::align_up(static_cast<size_t>(patch) * ldc * sizeof(float)) +
        Workspace::align_up(static_cast<size_t>(out_c) * ldc * sizeof(float)) +
        gemm_nn_scratch_bytes(out_c, static_cast<int>(ldc),
                              static_cast<int>(patch));
  }
  if (spatial_masks && g.stride == 1 && g.out_h() == g.in_h &&
      g.out_w() == g.in_w) {
    // Fused spatial path with every position kept: the gathered column
    // panels, the weight index, the inverse table and the 4-row-tiled
    // product buffer, in allocation order. (Under the int8 regime spatial
    // groups still run this f32 kernel, so it stays in the max.) It never
    // tiles, so its footprint is the full gs * pos width regardless of
    // `tile`.
    const SpatialShape sh = spatial_shape(gs, pos);
    const int64_t tile_rows =
        (out_c + kSpatialRows - 1) / kSpatialRows * kSpatialRows;
    const size_t spatial_path =
        Workspace::align_up(static_cast<size_t>(sh.panels) * g.in_c *
                            kSpatialCols * sizeof(float)) +
        Workspace::align_up(static_cast<size_t>(g.in_c) * sizeof(int)) +
        Workspace::align_up(static_cast<size_t>(kk) * pos * sizeof(int)) +
        Workspace::align_up(static_cast<size_t>(tile_rows) * sh.ld() *
                            sizeof(float));
    worst = std::max(worst, spatial_path);
  }
  return worst;
}

}  // namespace antidote::nn
