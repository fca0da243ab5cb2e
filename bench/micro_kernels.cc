// Kernel-level microbenchmarks (google-benchmark): GEMM variants, im2col,
// dense vs masked convolution across drop ratios, and the attention+top-k
// overhead of a gate — quantifying that the runtime saving of dynamic
// pruning exceeds its bookkeeping cost.
//
// Results are also written as machine-readable JSON (BENCH_kernels.json by
// default; pass --benchmark_out=... to override) so the perf trajectory is
// tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "base/rng.h"
#include "bench_main.h"
#include "core/gate.h"
#include "nn/conv2d.h"
#include "nn/conv_kernels.h"
#include "nn/init.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace {

using namespace antidote;

void BM_GemmNN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm_nn(n, n, n, 1.f, a.data(), b.data(), 0.f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNT(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm_nt(n, n, n, 1.f, a.data(), b.data(), 0.f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256);

// The weight-gradient layout (now parallelized like the other variants).
void BM_GemmTN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm_tn(n, n, n, 1.f, a.data(), b.data(), 0.f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor x = Tensor::randn({c, 32, 32}, rng);
  ConvGeom g{c, 32, 32, 3, 3, 1, 1};
  Tensor cols({static_cast<int>(g.patch_rows()),
               static_cast<int>(g.out_positions())});
  for (auto _ : state) {
    im2col(x.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(64);

// Dense conv forward at VGG-like geometry.
void BM_ConvDense(benchmark::State& state) {
  const int ch = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::Conv2d conv(ch, ch, 3, 1, 1, false);
  nn::init_module(conv, rng);
  Tensor x = Tensor::randn({1, ch, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.last_macs());
}
BENCHMARK(BM_ConvDense)->Arg(32)->Arg(64)->Arg(128);

// Masked conv forward: drop `range(1)` percent of input channels. The
// wall-clock time should fall with the drop ratio — the FLOPs saving is
// real computation skipped, not accounting.
void BM_ConvChannelMasked(benchmark::State& state) {
  const int ch = static_cast<int>(state.range(0));
  const int drop_pct = static_cast<int>(state.range(1));
  Rng rng(4);
  nn::Conv2d conv(ch, ch, 3, 1, 1, false);
  nn::init_module(conv, rng);
  Tensor x = Tensor::randn({1, ch, 16, 16}, rng);
  const int kept = std::max(1, ch - ch * drop_pct / 100);
  std::vector<int> kept_ch(static_cast<size_t>(kept));
  std::iota(kept_ch.begin(), kept_ch.end(), 0);
  for (auto _ : state) {
    nn::ConvRuntimeMask mask;
    mask.channels = kept_ch;
    conv.set_runtime_masks(std::span(&mask, 1));
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.last_macs());
}
BENCHMARK(BM_ConvChannelMasked)
    ->Args({128, 0})
    ->Args({128, 30})
    ->Args({128, 60})
    ->Args({128, 90});

// Masked conv forward: drop `range(1)` percent of spatial columns.
void BM_ConvSpatialMasked(benchmark::State& state) {
  const int ch = static_cast<int>(state.range(0));
  const int drop_pct = static_cast<int>(state.range(1));
  Rng rng(5);
  nn::Conv2d conv(ch, ch, 3, 1, 1, false);
  nn::init_module(conv, rng);
  Tensor x = Tensor::randn({1, ch, 16, 16}, rng);
  const int pos = 256;
  const int kept = std::max(1, pos - pos * drop_pct / 100);
  std::vector<int> kept_pos(static_cast<size_t>(kept));
  std::iota(kept_pos.begin(), kept_pos.end(), 0);
  for (auto _ : state) {
    nn::ConvRuntimeMask mask;
    mask.positions = kept_pos;
    conv.set_runtime_masks(std::span(&mask, 1));
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.last_macs());
}
BENCHMARK(BM_ConvSpatialMasked)
    ->Args({64, 0})
    ->Args({64, 50})
    ->Args({64, 80});

// One spatial mask group at two vgg16-w0.25 shapes — conv1 (16->16 at
// 32x32, 8 kept channels, 717 kept positions) and conv8 (128->128 at 4x4,
// 64 kept channels, 11 kept positions) — with range(1) members. The pair
// times the fused group kernel against the old algorithm, member-by-member
// conv_sample_masked (a stacked-offset GEMM plus a scalar scatter-add).
struct GroupShape {
  int ch, hw, kept_ch, kept_pos;  // kept_pos 0: a channel-path group
};
constexpr GroupShape kSpatialGroupShapes[] = {{16, 32, 8, 717},
                                              {128, 4, 64, 11}};

// `count` ascending distinct indices of [0, n).
std::vector<int> random_subset(int count, int n, Rng& rng) {
  std::vector<int> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(all[static_cast<size_t>(i)],
              all[rng.next_below(static_cast<uint64_t>(i) + 1)]);
  }
  all.resize(static_cast<size_t>(count));
  std::sort(all.begin(), all.end());
  return all;
}

struct GroupRig {
  ConvGeom g;
  std::vector<float> w, x, y;
  std::vector<int> iota, samples;
  nn::ConvRuntimeMask mask;
  Workspace ws;

  GroupRig(const GroupShape& s, int members)
      : g{s.ch, s.hw, s.hw, 3, 3, 1, 1} {
    Rng rng(8);
    w.resize(static_cast<size_t>(s.ch) * g.patch_rows());
    for (float& v : w) v = static_cast<float>(rng.normal());
    x.resize(static_cast<size_t>(members) * in_floats());
    for (float& v : x) v = static_cast<float>(rng.normal());
    y.resize(static_cast<size_t>(members) * in_floats());
    iota.resize(static_cast<size_t>(s.ch));
    std::iota(iota.begin(), iota.end(), 0);
    samples.resize(static_cast<size_t>(members));
    std::iota(samples.begin(), samples.end(), 0);
    mask.channels = random_subset(s.kept_ch, s.ch, rng);
    mask.positions = random_subset(s.kept_pos, s.hw * s.hw, rng);
  }
  int64_t in_floats() const {  // == out_floats: in_c == out_c, same grid
    return static_cast<int64_t>(g.in_c) * g.in_h * g.in_w;
  }
  nn::ConvIdentityIndices ids() const {
    return {iota.data(), iota.data()};
  }
};

void BM_SpatialGroupFused(benchmark::State& state) {
  GroupRig rig(kSpatialGroupShapes[state.range(0)],
               static_cast<int>(state.range(1)));
  int64_t macs = 0;
  for (auto _ : state) {
    std::fill(rig.y.begin(), rig.y.end(), 0.f);
    macs = nn::conv_group_masked(rig.x.data(), rig.in_floats(), rig.g,
                                 rig.w.data(), rig.g.in_c, nullptr, rig.mask,
                                 rig.samples, rig.ids(), rig.y.data(),
                                 rig.in_floats(), rig.ws);
    benchmark::DoNotOptimize(rig.y.data());
  }
  state.SetItemsProcessed(state.iterations() * macs);
}

void BM_SpatialGroupPerSample(benchmark::State& state) {
  GroupRig rig(kSpatialGroupShapes[state.range(0)],
               static_cast<int>(state.range(1)));
  int64_t macs = 0;
  for (auto _ : state) {
    std::fill(rig.y.begin(), rig.y.end(), 0.f);
    macs = 0;
    for (int b : rig.samples) {
      macs += nn::conv_sample_masked(
          rig.x.data() + b * rig.in_floats(), rig.g, rig.w.data(),
          rig.g.in_c, nullptr, rig.mask, rig.ids(),
          rig.y.data() + b * rig.in_floats(), rig.ws);
    }
    benchmark::DoNotOptimize(rig.y.data());
  }
  state.SetItemsProcessed(state.iterations() * macs);
}
BENCHMARK(BM_SpatialGroupFused)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 8});
BENCHMARK(BM_SpatialGroupPerSample)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 8});

// One channel mask group at vgg16-w0.25 conv10's shape (128->128, 64 kept
// channels, every filter) on a range(0) x range(0) grid with range(1)
// members. At 2x2 the 1-3 members lower 4, 8 or 12 columns, narrower than
// one gemm_nn panel, so the filter-lane kernel runs; the 4x4 one-member
// group lowers 16 and takes gemm_nn.
void BM_ChannelGroupNarrow(benchmark::State& state) {
  GroupRig rig({128, static_cast<int>(state.range(0)), 64, 0},
               static_cast<int>(state.range(1)));
  int64_t macs = 0;
  for (auto _ : state) {
    macs = nn::conv_group_masked(rig.x.data(), rig.in_floats(), rig.g,
                                 rig.w.data(), rig.g.in_c, nullptr, rig.mask,
                                 rig.samples, rig.ids(), rig.y.data(),
                                 rig.in_floats(), rig.ws);
    benchmark::DoNotOptimize(rig.y.data());
  }
  state.SetItemsProcessed(state.iterations() * macs);
}
BENCHMARK(BM_ChannelGroupNarrow)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Args({4, 1});

// Full gate forward (attention + top-k + masking): the bookkeeping cost
// dynamic pruning pays per layer. Compare against BM_ConvDense to see it
// is orders of magnitude below the conv it gates.
void BM_GateForward(benchmark::State& state) {
  const int ch = static_cast<int>(state.range(0));
  Rng rng(6);
  core::AttentionGate gate({.channel_drop = 0.5f, .spatial_drop = 0.5f},
                           nullptr, true);
  gate.set_training(false);
  Tensor x = Tensor::randn({1, ch, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = gate.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GateForward)->Arg(64)->Arg(128);

// --- SIMD vs scalar: the non-GEMM hot-path primitives ----------------------
//
// Each pair benches the vectorized kernel against its genuinely-scalar
// reference (autovectorization suppressed) on identical data, so the
// recorded ratio is the lane-width win of the epilogue / gather / scatter
// / pool stages. The two legs are bitwise identical (asserted by
// simd_parity_test); BENCH_kernels.json tracks the ratio across PRs.

constexpr int kEpilogueC = 128;
constexpr int64_t kEpiloguePos = 1024;  // 16x16-ish fused conv output

// Full BN + residual + ReLU epilogue, applied in place per iteration (the
// serving shape: cache-hot GEMM output).
template <bool kSimd>
void epilogue_bench(benchmark::State& state) {
  Rng rng(51);
  Tensor y = Tensor::randn({kEpilogueC, static_cast<int>(kEpiloguePos)}, rng);
  Tensor res = Tensor::randn({kEpilogueC, static_cast<int>(kEpiloguePos)}, rng);
  Tensor mean = Tensor::randn({kEpilogueC}, rng);
  Tensor gamma = Tensor::randn({kEpilogueC}, rng);
  Tensor beta = Tensor::randn({kEpilogueC}, rng);
  std::vector<float> inv_std(kEpilogueC, 1.01f);
  nn::FusedEpilogueParams p;
  p.bn = true;
  p.relu = true;
  p.mean = mean.data();
  p.inv_std = inv_std.data();
  p.gamma = gamma.data();
  p.beta = beta.data();
  for (auto _ : state) {
    if (kSimd) {
      nn::fused_epilogue(y.data(), res.data(), kEpilogueC, kEpiloguePos, p);
    } else {
      nn::fused_epilogue_scalar(y.data(), res.data(), kEpilogueC,
                                kEpiloguePos, p);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kEpilogueC * kEpiloguePos);
}
void BM_EpilogueSimd(benchmark::State& state) { epilogue_bench<true>(state); }
void BM_EpilogueScalar(benchmark::State& state) {
  epilogue_bench<false>(state);
}
BENCHMARK(BM_EpilogueSimd);
BENCHMARK(BM_EpilogueScalar);

// Kept-position gather (the spatial-mask lowering): 64 channel planes,
// half the 32x32 positions kept.
template <bool kSimd>
void gather_bench(benchmark::State& state) {
  Rng rng(52);
  const int planes = 64, hw = 32 * 32, kept = hw / 2;
  Tensor x = Tensor::randn({planes, 32, 32}, rng);
  std::vector<int> idx(static_cast<size_t>(kept));
  for (int j = 0; j < kept; ++j) idx[static_cast<size_t>(j)] = 2 * j;
  std::vector<float> out(static_cast<size_t>(planes) * kept);
  for (auto _ : state) {
    for (int c = 0; c < planes; ++c) {
      const float* plane = x.data() + static_cast<int64_t>(c) * hw;
      float* dst = out.data() + static_cast<int64_t>(c) * kept;
      if (kSimd) {
        nn::gather_positions(plane, idx.data(), kept, dst);
      } else {
        nn::gather_positions_scalar(plane, idx.data(), kept, dst);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * planes * kept);
}
void BM_GatherSimd(benchmark::State& state) { gather_bench<true>(state); }
void BM_GatherScalar(benchmark::State& state) { gather_bench<false>(state); }
BENCHMARK(BM_GatherSimd);
BENCHMARK(BM_GatherScalar);

// Compacted-group output scatter (copy + fused bias) over 64 filter rows.
template <bool kSimd>
void scatter_bench(benchmark::State& state) {
  Rng rng(53);
  const int rows = 64;
  const int64_t pos = 1024;
  Tensor src = Tensor::randn({rows, static_cast<int>(pos)}, rng);
  std::vector<float> dst(static_cast<size_t>(rows) * pos);
  for (auto _ : state) {
    for (int r = 0; r < rows; ++r) {
      const float* s = src.data() + static_cast<int64_t>(r) * pos;
      float* d = dst.data() + static_cast<int64_t>(r) * pos;
      if (kSimd) {
        nn::scatter_bias_row(s, d, pos, 0.31f);
      } else {
        nn::scatter_bias_row_scalar(s, d, pos, 0.31f);
      }
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * pos);
}
void BM_ScatterSimd(benchmark::State& state) { scatter_bench<true>(state); }
void BM_ScatterScalar(benchmark::State& state) {
  scatter_bench<false>(state);
}
BENCHMARK(BM_ScatterSimd);
BENCHMARK(BM_ScatterScalar);

// The plan's 2x2/stride-2 max-pool step, args {batch, channels, side}: an
// imagenet224 shape (vgg16 w0.125's first pool at batch 4) and a cifar one
// (vgg16 w0.25's first pool at batch 8).
template <bool kSimd>
void max_pool_bench(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int c = static_cast<int>(state.range(1));
  const int side = static_cast<int>(state.range(2));
  Rng rng(54);
  Tensor x = Tensor::randn({n, c, side, side}, rng);
  std::vector<float> y(static_cast<size_t>(n) * c * (side / 2) * (side / 2));
  for (auto _ : state) {
    if (kSimd) {
      nn::max_pool_forward_into(x.data(), n, c, side, side, 2, 2, y.data());
    } else {
      nn::max_pool_forward_into_scalar(x.data(), n, c, side, side, 2, 2,
                                       y.data());
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
void BM_MaxPoolSimd(benchmark::State& state) { max_pool_bench<true>(state); }
void BM_MaxPoolScalar(benchmark::State& state) {
  max_pool_bench<false>(state);
}
BENCHMARK(BM_MaxPoolSimd)->Args({4, 8, 224})->Args({8, 16, 32});
BENCHMARK(BM_MaxPoolScalar)->Args({4, 8, 224})->Args({8, 16, 32});

// --- int8 regime kernels ---------------------------------------------------
//
// The quantized hot path's stages at VGG-like geometry: quantizing the
// input planes once into padded biased-u8 planes, lowering them into the
// igemm's VNNI byte layout, and the u8xs8->s32 igemm with dequant folded
// into the store (runtime-dispatched AVX-512 VNNI / AVX2 / scalar vs the
// bitwise-identical scalar reference). The igemm pair's ratio is the int8
// raw-speed win BENCH_kernels.json tracks.

constexpr int kI8OutC = 128;            // VGG-ish filter count
constexpr int kI8InC = 128;
constexpr int kI8Side = 16;             // 16x16 input, 3x3 pad 1
constexpr int64_t kI8Patch = kI8InC * 9;  // in_c * k_h * k_w
constexpr int64_t kI8Pos = kI8Side * kI8Side;

ConvGeom i8_geom() {
  ConvGeom g;
  g.in_c = kI8InC;
  g.in_h = g.in_w = kI8Side;
  g.k_h = g.k_w = 3;
  g.pad = 1;
  return g;
}

constexpr int64_t kI8PlaneBytes = (kI8Side + 2) * (kI8Side + 2);

template <bool kSimd>
void quantize_planes_bench(benchmark::State& state) {
  Rng rng(54);
  Tensor x = Tensor::randn({kI8InC, kI8Side, kI8Side}, rng);
  std::vector<uint8_t> planes(static_cast<size_t>(kI8InC * kI8PlaneBytes));
  for (auto _ : state) {
    const float maxabs = nn::max_abs(x.data(), x.size());
    for (int c = 0; c < kI8InC; ++c) {
      const float* src = x.data() + c * kI8Pos;
      uint8_t* dst = planes.data() + c * kI8PlaneBytes;
      if (kSimd) {
        nn::quantize_plane_u8(src, kI8Side, kI8Side, 1, maxabs, dst);
      } else {
        nn::quantize_plane_u8_scalar(src, kI8Side, kI8Side, 1, maxabs, dst);
      }
    }
    benchmark::DoNotOptimize(planes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
void BM_Int8QuantizePlanes(benchmark::State& state) {
  quantize_planes_bench<true>(state);
}
void BM_Int8QuantizePlanesScalar(benchmark::State& state) {
  quantize_planes_bench<false>(state);
}
BENCHMARK(BM_Int8QuantizePlanes);
BENCHMARK(BM_Int8QuantizePlanesScalar);

// The [k4/4][pos][4] operand lowered from the quantized planes.
void BM_Int8LowerU8(benchmark::State& state) {
  Rng rng(57);
  const ConvGeom g = i8_geom();
  Tensor x = Tensor::randn({kI8InC, kI8Side, kI8Side}, rng);
  std::vector<uint8_t> planes(static_cast<size_t>(kI8InC * kI8PlaneBytes));
  const float maxabs = nn::max_abs(x.data(), x.size());
  for (int c = 0; c < kI8InC; ++c) {
    nn::quantize_plane_u8(x.data() + c * kI8Pos, kI8Side, kI8Side, 1, maxabs,
                          planes.data() + c * kI8PlaneBytes);
  }
  const int64_t k4 = nn::int8_align4(kI8Patch);
  std::vector<uint8_t> qb(static_cast<size_t>(k4) * kI8Pos);
  for (auto _ : state) {
    nn::lower_u8_quads(planes.data(), kI8InC, g, 0, k4 / 4, 0, kI8Pos,
                       qb.data(), kI8Pos);
    benchmark::DoNotOptimize(qb.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kI8Patch * kI8Pos);
}
BENCHMARK(BM_Int8LowerU8);

template <bool kSimd>
void int8_igemm_bench(benchmark::State& state) {
  Rng rng(55);
  const int64_t k4 = nn::int8_align4(kI8Patch);
  Tensor w = Tensor::randn({kI8OutC, static_cast<int>(kI8Patch)}, rng);
  Tensor cols = Tensor::randn(
      {static_cast<int>(kI8Patch), static_cast<int>(kI8Pos)}, rng);
  std::vector<int8_t> qw(static_cast<size_t>(kI8OutC) * k4);
  std::vector<float> wscale(kI8OutC);
  std::vector<int32_t> wsum(kI8OutC);
  nn::quantize_weights_rowwise(w.data(), kI8OutC, kI8Patch, qw.data(), k4,
                               wscale.data(), wsum.data());
  std::vector<uint8_t> qb(static_cast<size_t>(k4) * kI8Pos);
  const float sa = nn::quantize_activations_scalar(
      cols.data(), kI8Patch, kI8Pos, nn::max_abs(cols.data(), cols.size()),
      qb.data());
  std::vector<float> y(static_cast<size_t>(kI8OutC) * kI8Pos);
  for (auto _ : state) {
    if (kSimd) {
      nn::igemm_u8s8_dequant(kI8OutC, kI8Pos, k4, qw.data(), k4, qb.data(),
                             wsum.data(), wscale.data(), sa, y.data(),
                             kI8Pos);
    } else {
      nn::igemm_u8s8_dequant_scalar(kI8OutC, kI8Pos, k4, qw.data(), k4,
                                    qb.data(), wsum.data(), wscale.data(),
                                    sa, y.data(), kI8Pos);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * kI8OutC * kI8Patch *
                          kI8Pos);
}
void BM_Int8Igemm(benchmark::State& state) { int8_igemm_bench<true>(state); }
void BM_Int8IgemmScalar(benchmark::State& state) {
  int8_igemm_bench<false>(state);
}
BENCHMARK(BM_Int8Igemm);
BENCHMARK(BM_Int8IgemmScalar);

// The f32 GEMM at the same shape, so the igemm's win over the f32 dense
// path is read directly off adjacent BENCH_kernels.json entries.
void BM_Int8GemmF32Baseline(benchmark::State& state) {
  Rng rng(56);
  Tensor w = Tensor::randn({kI8OutC, static_cast<int>(kI8Patch)}, rng);
  Tensor cols = Tensor::randn(
      {static_cast<int>(kI8Patch), static_cast<int>(kI8Pos)}, rng);
  std::vector<float> y(static_cast<size_t>(kI8OutC) * kI8Pos);
  for (auto _ : state) {
    gemm_nn(kI8OutC, kI8Pos, kI8Patch, 1.f, w.data(), cols.data(), 0.f,
            y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * kI8OutC * kI8Patch *
                          kI8Pos);
}
BENCHMARK(BM_Int8GemmF32Baseline);

}  // namespace

int main(int argc, char** argv) {
  return antidote::bench::run_benchmarks(argc, argv, "BENCH_kernels.json");
}
