#include "tensor/gemm.h"

#include <algorithm>

#include "base/error.h"
#include "base/parallel.h"
#include "base/simd.h"

namespace antidote {

namespace {

// Register-tile geometry. The micro-kernel keeps a kMR x kNR accumulator
// block in registers (the unroll pragmas below are what actually force the
// promotion — without them GCC leaves the accumulators on the stack and
// the kernel runs 4-8x slower); kNR is a multiple of the vector width so
// the inner loop autovectorizes. kKC bounds the packed K slab so one A
// panel (kMR x kKC) and the active B slab stay cache-resident.
constexpr int kMR = 4;
constexpr int kNR = kGemmPanelCols;
constexpr int kKC = 256;

// Below this many MACs the packing overhead dominates; use the simple
// kernel (identical accumulation order, so the cutover is invisible).
constexpr int64_t kSmallGemm = 32 * 32 * 32;

void scale_rows(float* c, int64_t rows, int64_t cols, float beta) {
  if (beta == 1.f) return;
  const int64_t total = rows * cols;
  if (beta == 0.f) {
    for (int64_t i = 0; i < total; ++i) c[i] = 0.f;
  } else {
    for (int64_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

// Packs B rows [p0, p0+kc) into kNR-wide column panels:
// bp[jp][p][j] = b[p0+p][jp*kNR + j], zero-padded past n. Panels are
// independent, so the packing parallelizes across the pool rather than
// serializing the slab on the calling thread.
void pack_b_panels(const float* b, int n, int p0, int kc, float* bp) {
  const int np = (n + kNR - 1) / kNR;
  parallel_for(
      0, np,
      [&](int64_t jp0, int64_t jp1) {
        for (int64_t jp = jp0; jp < jp1; ++jp) {
          const int j0 = static_cast<int>(jp) * kNR;
          const int jw = std::min(kNR, n - j0);
          float* dst = bp + jp * kc * kNR;
          for (int p = 0; p < kc; ++p) {
            const float* src = b + static_cast<int64_t>(p0 + p) * n + j0;
            for (int j = 0; j < jw; ++j) dst[j] = src[j];
            for (int j = jw; j < kNR; ++j) dst[j] = 0.f;
            dst += kNR;
          }
        }
      },
      /*grain=*/std::max<int64_t>(1, 16384 / std::max(1, kc * kNR)));
}

// Packs an A row panel [i0, i0+mw) x [p0, p0+kc) with alpha folded in:
// ap[p][i] = alpha * a[i0+i][p0+p], zero-padded past m.
void pack_a_panel(const float* a, int lda, float alpha, int i0, int mw,
                  int p0, int kc, float* ap) {
  for (int p = 0; p < kc; ++p) {
    float* dst = ap + static_cast<int64_t>(p) * kMR;
    for (int i = 0; i < mw; ++i) {
      dst[i] = alpha * a[static_cast<int64_t>(i0 + i) * lda + p0 + p];
    }
    for (int i = mw; i < kMR; ++i) dst[i] = 0.f;
  }
}

// C tile [mw x jw] += Apanel * Bpanel over kc packed steps. The tile is
// loaded into registers, accumulated in ascending-p order (the same
// per-element order as the naive kernel) and stored once per K slab.
// The vectorized inner update uses simd::madd — an explicit multiply THEN
// add, never a fused multiply-add — so every element sees exactly the two
// roundings per step the scalar kernel performs and the blocked result
// stays bitwise identical across the SIMD, scalar-fallback and simple
// paths (the grouped-vs-per-sample and plan-vs-module-walk memcmp gates
// mix those paths freely).
void micro_kernel(int kc, const float* ap, const float* bp, float* c,
                  int64_t ldc, int mw, int jw) {
  if (mw == kMR && jw == kNR) {
    if constexpr (simd::kLanes > 1) {
      // kNR is a multiple of every backend's lane width: the 4 x 16 tile
      // is kMR x kVecs vector accumulators, resident in registers across
      // the whole K slab.
      constexpr int kVecs = kNR / simd::kLanes;
      simd::vf acc[kMR][kVecs];
      for (int i = 0; i < kMR; ++i) {
        for (int v = 0; v < kVecs; ++v) {
          acc[i][v] = simd::load(c + i * ldc + v * simd::kLanes);
        }
      }
      for (int p = 0; p < kc; ++p) {
        const float* arow = ap + static_cast<int64_t>(p) * kMR;
        const float* brow = bp + static_cast<int64_t>(p) * kNR;
        simd::vf b[kVecs];
        for (int v = 0; v < kVecs; ++v) {
          b[v] = simd::load(brow + v * simd::kLanes);
        }
        for (int i = 0; i < kMR; ++i) {
          const simd::vf av = simd::set1(arow[i]);
          for (int v = 0; v < kVecs; ++v) {
            acc[i][v] = simd::madd(av, b[v], acc[i][v]);
          }
        }
      }
      for (int i = 0; i < kMR; ++i) {
        for (int v = 0; v < kVecs; ++v) {
          simd::store(c + i * ldc + v * simd::kLanes, acc[i][v]);
        }
      }
    } else {
      // Scalar fallback. One accumulator row per A row, kept in registers
      // across the whole K slab (the unroll pragmas force the promotion);
      // C is read once and written once per slab, so the inner loop is
      // pure multiply-add on register data.
      float a0[kNR], a1[kNR], a2[kNR], a3[kNR];
#pragma GCC unroll 16
      for (int j = 0; j < kNR; ++j) {
        a0[j] = c[0 * ldc + j];
        a1[j] = c[1 * ldc + j];
        a2[j] = c[2 * ldc + j];
        a3[j] = c[3 * ldc + j];
      }
      for (int p = 0; p < kc; ++p) {
        const float* arow = ap + static_cast<int64_t>(p) * kMR;
        const float* brow = bp + static_cast<int64_t>(p) * kNR;
        const float v0 = arow[0], v1 = arow[1], v2 = arow[2], v3 = arow[3];
#pragma GCC unroll 16
        for (int j = 0; j < kNR; ++j) {
          const float bv = brow[j];
          a0[j] += v0 * bv;
          a1[j] += v1 * bv;
          a2[j] += v2 * bv;
          a3[j] += v3 * bv;
        }
      }
#pragma GCC unroll 16
      for (int j = 0; j < kNR; ++j) {
        c[0 * ldc + j] = a0[j];
        c[1 * ldc + j] = a1[j];
        c[2 * ldc + j] = a2[j];
        c[3 * ldc + j] = a3[j];
      }
    }
    return;
  }
  // Edge tile: accumulate directly, same per-element order.
  for (int p = 0; p < kc; ++p) {
    const float* arow = ap + static_cast<int64_t>(p) * kMR;
    const float* brow = bp + static_cast<int64_t>(p) * kNR;
    for (int i = 0; i < mw; ++i) {
      const float av = arow[i];
      float* crow = c + i * ldc;
      for (int j = 0; j < jw; ++j) crow[j] += av * brow[j];
    }
  }
}

// Reference-order kernel for small problems (and the packing cutoff).
void gemm_nn_simple(int m, int n, int k, float alpha, const float* a,
                    const float* b, float beta, float* c) {
  scale_rows(c, m, n, beta);
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (int p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      const float* brow = b + static_cast<int64_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

size_t gemm_nn_scratch_bytes(int m, int n, int k) {
  if (static_cast<int64_t>(m) * n * k <= kSmallGemm) return 0;
  const size_t np = static_cast<size_t>((n + kNR - 1) / kNR);
  const size_t mp = static_cast<size_t>((m + kMR - 1) / kMR);
  // Two raw_alloc calls (bpack, apack), each rounded up to the arena
  // granularity. Panels are sized by the real slab depth, not the kKC
  // ceiling, so small-K problems (grouped masked convs with few kept
  // channels, wide-N compacted batches) don't reserve unused slab room.
  const size_t kc = static_cast<size_t>(std::min(kKC, k));
  return Workspace::align_up(np * kc * kNR * sizeof(float)) +
         Workspace::align_up(mp * kc * kMR * sizeof(float));
}

void gemm_nn(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c, Workspace* ws) {
  if (static_cast<int64_t>(m) * n * k <= kSmallGemm) {
    gemm_nn_simple(m, n, k, alpha, a, b, beta, c);
    return;
  }
  Workspace& w = ws != nullptr ? *ws : thread_local_workspace();
  const Workspace::Mark wm = w.mark();

  const int np = (n + kNR - 1) / kNR;
  const int mp = (m + kMR - 1) / kMR;
  const int kc_cap = std::min(kKC, k);  // real slab depth (see scratch fn)
  float* bpack = w.alloc_floats(static_cast<int64_t>(np) * kc_cap * kNR);
  // Every row panel gets its own packing slice so worker threads never
  // allocate or contend; slices are reused across K slabs.
  float* apack = w.alloc_floats(static_cast<int64_t>(mp) * kc_cap * kMR);

  if (beta != 1.f) {
    parallel_for(
        0, m,
        [&](int64_t i0, int64_t i1) { scale_rows(c + i0 * n, i1 - i0, n, beta); },
        /*grain=*/std::max<int64_t>(1, 4096 / std::max(1, n)));
  }

  for (int p0 = 0; p0 < k; p0 += kKC) {
    const int kc = std::min(kKC, k - p0);
    pack_b_panels(b, n, p0, kc, bpack);
    parallel_for(
        0, mp,
        [&](int64_t ip0, int64_t ip1) {
          for (int64_t ip = ip0; ip < ip1; ++ip) {
            const int i0 = static_cast<int>(ip) * kMR;
            const int mw = std::min(kMR, m - i0);
            float* ap = apack + ip * kc_cap * kMR;
            pack_a_panel(a, k, alpha, i0, mw, p0, kc, ap);
            for (int jp = 0; jp < np; ++jp) {
              const int j0 = jp * kNR;
              const int jw = std::min(kNR, n - j0);
              micro_kernel(kc, ap, bpack + static_cast<int64_t>(jp) * kc * kNR,
                           c + static_cast<int64_t>(i0) * n + j0, n, mw, jw);
            }
          }
        },
        /*grain=*/1);
  }
  w.rewind(wm);
}

void gemm_nt(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c) {
  parallel_for(
      0, m,
      [&](int64_t i0, int64_t i1) {
        scale_rows(c + i0 * n, i1 - i0, n, beta);
        for (int64_t i = i0; i < i1; ++i) {
          float* crow = c + i * n;
          const float* arow = a + i * k;
          // 4-wide j tile: one pass over arow feeds four dot products.
          int j = 0;
          for (; j + 4 <= n; j += 4) {
            const float* b0 = b + static_cast<int64_t>(j) * k;
            const float* b1 = b0 + k;
            const float* b2 = b1 + k;
            const float* b3 = b2 + k;
            double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
            for (int p = 0; p < k; ++p) {
              const double av = arow[p];
              acc0 += av * b0[p];
              acc1 += av * b1[p];
              acc2 += av * b2[p];
              acc3 += av * b3[p];
            }
            crow[j] += alpha * static_cast<float>(acc0);
            crow[j + 1] += alpha * static_cast<float>(acc1);
            crow[j + 2] += alpha * static_cast<float>(acc2);
            crow[j + 3] += alpha * static_cast<float>(acc3);
          }
          for (; j < n; ++j) {
            const float* brow = b + static_cast<int64_t>(j) * k;
            double acc = 0.0;
            for (int p = 0; p < k; ++p) acc += double(arow[p]) * brow[p];
            crow[j] += alpha * static_cast<float>(acc);
          }
        }
      },
      /*grain=*/std::max<int64_t>(
          1, 16384 / std::max<int64_t>(1, static_cast<int64_t>(n) * k)));
}

void gemm_tn(int m, int n, int k, float alpha, const float* a, const float* b,
             float beta, float* c) {
  // a is [K, M]; k stays outermost within each row chunk so both the B row
  // and the C rows are streamed contiguously, and the row chunks run in
  // parallel (this variant dominates the weight-gradient path).
  parallel_for(
      0, m,
      [&](int64_t i0, int64_t i1) {
        scale_rows(c + i0 * n, i1 - i0, n, beta);
        for (int p = 0; p < k; ++p) {
          const float* arow = a + static_cast<int64_t>(p) * m;
          const float* brow = b + static_cast<int64_t>(p) * n;
          for (int64_t i = i0; i < i1; ++i) {
            const float av = alpha * arow[i];
            if (av == 0.f) continue;
            float* crow = c + i * n;
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      /*grain=*/std::max<int64_t>(
          1, 16384 / std::max<int64_t>(1, static_cast<int64_t>(n) * k)));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  AD_CHECK_EQ(a.ndim(), 2);
  AD_CHECK_EQ(b.ndim(), 2);
  AD_CHECK_EQ(a.dim(1), b.dim(0)) << " matmul inner dim";
  Tensor c({a.dim(0), b.dim(1)});
  gemm_nn(a.dim(0), b.dim(1), a.dim(1), 1.f, a.data(), b.data(), 0.f,
          c.data());
  return c;
}

}  // namespace antidote
