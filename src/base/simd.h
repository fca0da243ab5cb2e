// Portable f32 SIMD lane abstraction for the non-GEMM hot path (fused
// epilogue and its attention sums, mask gather/scatter, im2col packing,
// 2x2 max-pool) and the GEMM micro-kernel.
//
// Three backends, selected at COMPILE time:
//   - AVX2 (x86-64):  8 lanes (__m256)   — requires -mavx2 on the TU
//   - NEON (aarch64): 4 lanes (float32x4_t)
//   - scalar:         1 lane  (plain float) — the fallback every other
//     build (including -DANTIDOTE_SIMD=OFF) compiles to
//
// BITWISE CONTRACT. Every operation here is a per-element IEEE-754 op with
// exactly the rounding the scalar expression performs: madd(a, b, c) is a
// multiply THEN an add (two roundings), deliberately NOT a fused
// multiply-add. The CMake setup compiles SIMD translation units without
// -mfma and with -ffp-contract=off, so neither hand-written intrinsics nor
// compiler contraction can introduce single-rounding FMAs. Consequently a
// kernel vectorized with this header produces results bitwise identical to
// its scalar fallback — the property the plan executor's "dense plan ==
// module walk" and "grouped masked == per-sample walk" memcmp gates depend
// on, and what lets ANTIDOTE_SIMD=ON/OFF builds agree bit for bit.
//
// TAIL POLICY. The vector types never read or write past the caller's
// range: kernels iterate `j + kLanes <= n` and finish the ragged tail
// (n % kLanes elements) with the identical scalar expression. No masked
// loads, no overreads — the ASan job runs against the SIMD build to keep
// it that way.
//
// TU-PRIVATE. Include this header from .cc files only (never from public
// headers): the lane width and vector type differ between translation
// units compiled with and without the SIMD flags, so leaking these
// definitions across TU boundaries would be an ODR violation. All SIMD
// TUs are compiled with one flag set (see CMakeLists.txt).
#pragma once

#include <cstdint>

#if defined(ANTIDOTE_SIMD) && ANTIDOTE_SIMD && defined(__AVX2__)
#define ANTIDOTE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(ANTIDOTE_SIMD) && ANTIDOTE_SIMD && defined(__ARM_NEON)
#define ANTIDOTE_SIMD_NEON 1
#include <arm_neon.h>
#endif

// Marks a scalar reference implementation that must stay genuinely scalar
// (parity baselines and the scalar leg of the micro-benchmarks): without
// this the autovectorizer would quietly vectorize the "scalar" loop and
// the scalar-vs-SIMD comparison would measure nothing. Clang has no
// function-level "disable vectorization only" attribute, so it gets
// optnone — a coarser baseline (the scalar leg also loses scalar
// optimizations), but an honestly scalar one.
#if defined(__clang__)
#define ANTIDOTE_NO_VECTORIZE __attribute__((optnone))
#elif defined(__GNUC__)
#define ANTIDOTE_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define ANTIDOTE_NO_VECTORIZE
#endif

namespace antidote::simd {

#if defined(ANTIDOTE_SIMD_AVX2)

constexpr int kLanes = 8;
constexpr const char* kIsaName = "avx2";
using vf = __m256;

inline vf load(const float* p) { return _mm256_loadu_ps(p); }
inline void store(float* p, vf v) { _mm256_storeu_ps(p, v); }
inline vf set1(float x) { return _mm256_set1_ps(x); }
inline vf zero() { return _mm256_setzero_ps(); }
inline vf add(vf a, vf b) { return _mm256_add_ps(a, b); }
inline vf sub(vf a, vf b) { return _mm256_sub_ps(a, b); }
inline vf mul(vf a, vf b) { return _mm256_mul_ps(a, b); }
// a > b ? a : b: maxps returns its second operand when either is NaN or
// both are zeros, so NaN and +-0 pick exactly what the scalar select does.
inline vf max(vf a, vf b) { return _mm256_max_ps(a, b); }
// a*b + c with TWO roundings (see the bitwise contract above).
inline vf madd(vf a, vf b, vf c) { return _mm256_add_ps(_mm256_mul_ps(a, b), c); }
// v[i] = base[idx[i]] — the mask-gather primitive (kept spatial columns).
inline vf gather(const float* base, const int32_t* idx) {
  return _mm256_i32gather_ps(
      base, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), 4);
}
// Loads 2 * kLanes floats and splits them by parity: even[i] = p[2i],
// odd[i] = p[2i + 1] (the left and right columns of 2-wide windows).
inline void load_deinterleave(const float* p, vf& even, vf& odd) {
  const vf a = _mm256_loadu_ps(p);
  const vf b = _mm256_loadu_ps(p + 8);
  // Per 128-bit half: [a0 a2 b0 b2 | a4 a6 b4 b6]; the 64-bit permute
  // then puts the a pairs ahead of the b pairs.
  const vf e = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
  const vf o = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(e),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(o),
                                               _MM_SHUFFLE(3, 1, 2, 0)));
}
// Eight double accumulation chains over a row, chain l summing the
// elements j with j % 8 == l in ascending j (float -> double is exact).
// add(v, j) takes the kLanes elements starting at j, a multiple of kLanes;
// store() writes the chains to acc[0..8) for a scalar tail to continue.
struct Chains8 {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  void add(vf v, int64_t /*j: always a multiple of 8 here*/) {
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  void store(double* acc) const {
    _mm256_storeu_pd(acc, lo);
    _mm256_storeu_pd(acc + 4, hi);
  }
};

#elif defined(ANTIDOTE_SIMD_NEON)

constexpr int kLanes = 4;
constexpr const char* kIsaName = "neon";
using vf = float32x4_t;

inline vf load(const float* p) { return vld1q_f32(p); }
inline void store(float* p, vf v) { vst1q_f32(p, v); }
inline vf set1(float x) { return vdupq_n_f32(x); }
inline vf zero() { return vdupq_n_f32(0.f); }
inline vf add(vf a, vf b) { return vaddq_f32(a, b); }
inline vf sub(vf a, vf b) { return vsubq_f32(a, b); }
inline vf mul(vf a, vf b) { return vmulq_f32(a, b); }
// a > b ? a : b, as compare-and-select: vmaxq_f32 is IEEE maxNum, which
// returns NaN for a NaN operand and orders -0 below +0.
inline vf max(vf a, vf b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
// Explicit mul+add (NOT vfmaq/vmlaq, which may fuse): two roundings.
inline vf madd(vf a, vf b, vf c) { return vaddq_f32(vmulq_f32(a, b), c); }
inline vf gather(const float* base, const int32_t* idx) {
  const float v[4] = {base[idx[0]], base[idx[1]], base[idx[2]],
                      base[idx[3]]};
  return vld1q_f32(v);
}
inline void load_deinterleave(const float* p, vf& even, vf& odd) {
  const float32x4x2_t t = vld2q_f32(p);
  even = t.val[0];
  odd = t.val[1];
}
struct Chains8 {
  float64x2_t c[4] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                      vdupq_n_f64(0.0)};
  void add(vf v, int64_t j) {
    const int h = (j & 4) != 0 ? 2 : 0;  // chains 0-3 or 4-7
    c[h] = vaddq_f64(c[h], vcvt_f64_f32(vget_low_f32(v)));
    c[h + 1] = vaddq_f64(c[h + 1], vcvt_high_f64_f32(v));
  }
  void store(double* acc) const {
    for (int i = 0; i < 4; ++i) vst1q_f64(acc + 2 * i, c[i]);
  }
};

#else  // scalar fallback (ANTIDOTE_SIMD=OFF, or an ISA without a backend)

constexpr int kLanes = 1;
constexpr const char* kIsaName = "scalar";
using vf = float;

inline vf load(const float* p) { return *p; }
inline void store(float* p, vf v) { *p = v; }
inline vf set1(float x) { return x; }
inline vf zero() { return 0.f; }
inline vf add(vf a, vf b) { return a + b; }
inline vf sub(vf a, vf b) { return a - b; }
inline vf mul(vf a, vf b) { return a * b; }
inline vf max(vf a, vf b) { return a > b ? a : b; }
inline vf madd(vf a, vf b, vf c) { return a * b + c; }
inline vf gather(const float* base, const int32_t* idx) {
  return base[idx[0]];
}
inline void load_deinterleave(const float* p, vf& even, vf& odd) {
  even = p[0];
  odd = p[1];
}
struct Chains8 {
  double c[8] = {};
  void add(vf v, int64_t j) { c[j & 7] += v; }
  void store(double* acc) const {
    for (int l = 0; l < 8; ++l) acc[l] = c[l];
  }
};

#endif

// --- int8 lane extension (x86-64 AVX2 TUs only) ----------------------------
//
// The int8 regime's accumulator math is EXACT integer arithmetic, so the
// bitwise contract holds trivially across backends: scalar, AVX2 and
// AVX-512 VNNI all compute the identical int32 dot product, and the single
// dequant expression at the end performs the same two IEEE-754 roundings
// everywhere. The AVX2 helper below is an exact emulation of the VNNI
// `vpdpbusd` instruction — per 32-bit lane, acc += sum over the lane's four
// byte pairs of u8(a) * s8(b) — built from widening shifts + madd_epi16.
// No `maddubs` anywhere: _mm256_maddubs_epi16 saturates its s16 pair sums
// (255*127*2 = 64770 > 32767) which would silently break parity. Here the
// u8 operand is split into even/odd u16 lanes (non-negative, so madd_epi16
// cannot hit its lone -32768*-32768 saturation case) and each pair sum
// <= 65280 fits int32 exactly.
#if defined(ANTIDOTE_SIMD_AVX2)
#define ANTIDOTE_SIMD_I8 1

inline __m256i dpbusd_epi32(__m256i acc, __m256i a_u8, __m256i b_s8) {
  const __m256i a_even = _mm256_and_si256(a_u8, _mm256_set1_epi16(0x00FF));
  const __m256i a_odd = _mm256_srli_epi16(a_u8, 8);
  const __m256i b_even = _mm256_srai_epi16(_mm256_slli_epi16(b_s8, 8), 8);
  const __m256i b_odd = _mm256_srai_epi16(b_s8, 8);
  const __m256i p = _mm256_add_epi32(_mm256_madd_epi16(a_even, b_even),
                                     _mm256_madd_epi16(a_odd, b_odd));
  return _mm256_add_epi32(acc, p);
}

#endif  // ANTIDOTE_SIMD_AVX2

}  // namespace antidote::simd
