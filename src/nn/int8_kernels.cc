// Int8 kernels: SIMD TU (compiled with -mavx2 -ffp-contract=off when
// ANTIDOTE_SIMD=ON; see CMakeLists.txt). The AVX-512 VNNI backend lives
// behind function-level target attributes + a __builtin_cpu_supports
// runtime check so the TU itself never needs -mavx512* flags and the
// binary stays safe on AVX2-only hosts.
#include "nn/int8_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/simd.h"

namespace antidote::nn {

namespace {

// clamp(lrintf(v * inv), -127, 127) — THE quantization expression; every
// backend (including _mm256_cvtps_epi32, which rounds to nearest-even
// exactly like lrintf under the default rounding mode) must match it.
inline int8_t quantize_one(float v, float inv) {
  long q = lrintf(v * inv);
  if (q > 127) q = 127;
  if (q < -127) q = -127;
  return static_cast<int8_t>(q);
}

#if defined(ANTIDOTE_SIMD_I8)
bool vnni_ok() {
  static const bool ok = cpu_supports_vnni();
  return ok;
}
#endif

}  // namespace

bool cpu_supports_vnni() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512vnni") != 0;
#else
  return false;
#endif
}

const char* int8_isa_name() {
#if defined(ANTIDOTE_SIMD_I8)
  return vnni_ok() ? "avx512-vnni" : "avx2";
#else
  return "scalar";
#endif
}

void quantize_weights_rowwise(const float* w, int rows, int64_t k,
                              int8_t* q, int64_t row_stride, float* scale,
                              int32_t* wsum) {
  for (int r = 0; r < rows; ++r) {
    const float* wr = w + static_cast<int64_t>(r) * k;
    float maxabs = 0.f;
    for (int64_t i = 0; i < k; ++i)
      maxabs = std::max(maxabs, std::fabs(wr[i]));
    // All-zero rows quantize to all-zero bytes; scale 1.0 keeps the
    // dequant expression finite.
    const float inv = maxabs > 0.f ? 127.f / maxabs : 0.f;
    scale[r] = maxabs > 0.f ? maxabs / 127.f : 1.f;
    int8_t* qr = q + static_cast<int64_t>(r) * row_stride;
    int32_t sum = 0;
    for (int64_t i = 0; i < k; ++i) {
      qr[i] = quantize_one(wr[i], inv);
      sum += qr[i];
    }
    for (int64_t i = k; i < row_stride; ++i) qr[i] = 0;
    wsum[r] = sum;
  }
}

float max_abs(const float* x, int64_t n) {
  float m = 0.f;
  int64_t i = 0;
#if defined(ANTIDOTE_SIMD_I8)
  const __m256 signmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const auto abs8 = [&](int64_t at) {
    return _mm256_and_ps(_mm256_loadu_ps(x + at), signmask);
  };
  // Four independent chains: one max per cycle instead of one per latency.
  __m256 m0 = _mm256_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(m0, abs8(i));
    m1 = _mm256_max_ps(m1, abs8(i + 8));
    m2 = _mm256_max_ps(m2, abs8(i + 16));
    m3 = _mm256_max_ps(m3, abs8(i + 24));
  }
  __m256 vmax = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  for (; i + 8 <= n; i += 8) vmax = _mm256_max_ps(vmax, abs8(i));
  float lanes[8];
  _mm256_storeu_ps(lanes, vmax);
  for (float l : lanes) m = std::max(m, l);
#endif
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

ANTIDOTE_NO_VECTORIZE
float quantize_activations_scalar(const float* b, int64_t k, int64_t n,
                                  float maxabs, uint8_t* qb) {
  const int64_t quads = int8_align4(k) / 4;
  const float inv = maxabs > 0.f ? 127.f / maxabs : 0.f;
  for (int64_t kq = 0; kq < quads; ++kq) {
    for (int64_t j = 0; j < n; ++j) {
      uint8_t* out = qb + (kq * n + j) * 4;
      for (int t = 0; t < 4; ++t) {
        const int64_t r = kq * 4 + t;
        out[t] = r < k ? static_cast<uint8_t>(quantize_one(b[r * n + j], inv) +
                                              128)
                       : static_cast<uint8_t>(128);
      }
    }
  }
  return maxabs / 127.f;
}

namespace {

// Border rows and columns of a padded plane: the bias byte of 0.0.
void fill_plane_border(int h, int w, int pad, uint8_t* q) {
  if (pad == 0) return;
  const int64_t wp = w + 2 * pad;
  std::memset(q, 128, static_cast<size_t>(pad * wp));
  for (int y = 0; y < h; ++y) {
    uint8_t* row = q + (y + pad) * wp;
    for (int i = 0; i < pad; ++i) row[i] = row[pad + w + i] = 128;
  }
  std::memset(q + (h + pad) * wp, 128, static_cast<size_t>(pad * wp));
}

}  // namespace

ANTIDOTE_NO_VECTORIZE
void quantize_plane_u8_scalar(const float* x, int h, int w, int pad,
                              float maxabs, uint8_t* q) {
  const float inv = maxabs > 0.f ? 127.f / maxabs : 0.f;
  const int64_t wp = w + 2 * pad;
  fill_plane_border(h, w, pad, q);
  for (int y = 0; y < h; ++y) {
    const float* src = x + static_cast<int64_t>(y) * w;
    uint8_t* dst = q + (y + pad) * wp + pad;
    for (int i = 0; i < w; ++i)
      dst[i] = static_cast<uint8_t>(quantize_one(src[i], inv) + 128);
  }
}

void quantize_plane_u8(const float* x, int h, int w, int pad, float maxabs,
                       uint8_t* q) {
#if defined(ANTIDOTE_SIMD_I8)
  const float inv = maxabs > 0.f ? 127.f / maxabs : 0.f;
  const int64_t wp = w + 2 * pad;
  fill_plane_border(h, w, pad, q);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m128i vlo = _mm_set1_epi8(-127);
  const __m128i vbias = _mm_set1_epi8(static_cast<char>(0x80));
  // _mm256_cvtps_epi32 rounds to nearest-even, exactly like lrintf.
  const auto quant8 = [&](const float* p) {
    return _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(p), vinv));
  };
  // The signed saturating packs clip to [-128, 127]; raising -128 to -127
  // completes clamp(q, -127, 127), and the xor with 0x80 adds the bias.
  const auto finish = [&](__m128i p8) {
    return _mm_xor_si128(_mm_max_epi8(p8, vlo), vbias);
  };
  for (int y = 0; y < h; ++y) {
    const float* src = x + static_cast<int64_t>(y) * w;
    uint8_t* dst = q + (y + pad) * wp + pad;
    int i = 0;
    for (; i + 16 <= w; i += 16) {
      const __m256i p16 = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(quant8(src + i), quant8(src + i + 8)), 0xD8);
      const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                         _mm256_extracti128_si256(p16, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), finish(p8));
    }
    if (i + 8 <= w) {
      const __m256i q32 = quant8(src + i);
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q32),
                                          _mm256_extracti128_si256(q32, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                       finish(_mm_packs_epi16(p16, p16)));
      i += 8;
    }
    for (; i < w; ++i) {
      // cvtss2si rounds like lrintf (current mode, nearest-even) but is
      // one instruction instead of a libm call.
      const int64_t v = std::clamp<int64_t>(
          _mm_cvtss_si64(_mm_set_ss(src[i] * inv)), -127, 127);
      dst[i] = static_cast<uint8_t>(v + 128);
    }
  }
#else
  quantize_plane_u8_scalar(x, h, w, pad, maxabs, q);
#endif
}

namespace {

// One output-row run of n columns: word j packs byte t of stream t at
// s_t[j * stride]. kPadRows masks the word by `keep` and ors in `fill`
// (the bias byte in the lanes of pad rows past the patch).
template <bool kPadRows>
void lower_run(const uint8_t* s0, const uint8_t* s1, const uint8_t* s2,
               const uint8_t* s3, int stride, int64_t n, uint32_t keep,
               uint32_t fill, uint8_t* out) {
  int64_t j = 0;
#if defined(ANTIDOTE_SIMD_I8)
  if (stride == 1) {
    // Contiguous streams: byte then word interleaves turn 32 (16, 8)
    // bytes of each of the four rows into 32 (16, 8) packed quads.
    const __m256i vkeep = _mm256_set1_epi32(static_cast<int>(keep));
    const __m256i vfill = _mm256_set1_epi32(static_cast<int>(fill));
    const auto put256 = [&](int64_t at, __m256i v) {
      if constexpr (kPadRows)
        v = _mm256_or_si256(_mm256_and_si256(v, vkeep), vfill);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + at * 4), v);
    };
    const auto put128 = [&](int64_t at, __m128i v) {
      if constexpr (kPadRows) {
        v = _mm_or_si128(_mm_and_si128(v, _mm256_castsi256_si128(vkeep)),
                         _mm256_castsi256_si128(vfill));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + at * 4), v);
    };
    const auto load256 = [&](const uint8_t* p) {
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + j));
    };
    for (; j + 32 <= n; j += 32) {
      const __m256i a = load256(s0), b = load256(s1);
      const __m256i c = load256(s2), d = load256(s3);
      // Per 128-bit lane: lo halves hold columns 0-7 | 16-23, hi halves
      // 8-15 | 24-31; the lane permutes restore column order.
      const __m256i ab_lo = _mm256_unpacklo_epi8(a, b);
      const __m256i ab_hi = _mm256_unpackhi_epi8(a, b);
      const __m256i cd_lo = _mm256_unpacklo_epi8(c, d);
      const __m256i cd_hi = _mm256_unpackhi_epi8(c, d);
      const __m256i w0 = _mm256_unpacklo_epi16(ab_lo, cd_lo);
      const __m256i w1 = _mm256_unpackhi_epi16(ab_lo, cd_lo);
      const __m256i w2 = _mm256_unpacklo_epi16(ab_hi, cd_hi);
      const __m256i w3 = _mm256_unpackhi_epi16(ab_hi, cd_hi);
      put256(j, _mm256_permute2x128_si256(w0, w1, 0x20));
      put256(j + 8, _mm256_permute2x128_si256(w2, w3, 0x20));
      put256(j + 16, _mm256_permute2x128_si256(w0, w1, 0x31));
      put256(j + 24, _mm256_permute2x128_si256(w2, w3, 0x31));
    }
    for (; j + 16 <= n; j += 16) {
      const auto load = [&](const uint8_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + j));
      };
      const __m128i ab_lo = _mm_unpacklo_epi8(load(s0), load(s1));
      const __m128i ab_hi = _mm_unpackhi_epi8(load(s0), load(s1));
      const __m128i cd_lo = _mm_unpacklo_epi8(load(s2), load(s3));
      const __m128i cd_hi = _mm_unpackhi_epi8(load(s2), load(s3));
      put128(j, _mm_unpacklo_epi16(ab_lo, cd_lo));
      put128(j + 4, _mm_unpackhi_epi16(ab_lo, cd_lo));
      put128(j + 8, _mm_unpacklo_epi16(ab_hi, cd_hi));
      put128(j + 12, _mm_unpackhi_epi16(ab_hi, cd_hi));
    }
    for (; j + 8 <= n; j += 8) {
      const auto load = [&](const uint8_t* p) {
        return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + j));
      };
      const __m128i ab = _mm_unpacklo_epi8(load(s0), load(s1));
      const __m128i cd = _mm_unpacklo_epi8(load(s2), load(s3));
      put128(j, _mm_unpacklo_epi16(ab, cd));
      put128(j + 4, _mm_unpackhi_epi16(ab, cd));
    }
  }
#endif
  for (; j < n; ++j) {
    const int64_t i = j * stride;
    uint32_t word = static_cast<uint32_t>(s0[i]) |
                    static_cast<uint32_t>(s1[i]) << 8 |
                    static_cast<uint32_t>(s2[i]) << 16 |
                    static_cast<uint32_t>(s3[i]) << 24;
    if constexpr (kPadRows) word = (word & keep) | fill;
    std::memcpy(out + j * 4, &word, 4);  // little-endian: row t at byte t
  }
}

}  // namespace

void lower_u8_quads(const uint8_t* planes, int ck, const ConvGeom& g,
                    int64_t q0, int64_t q1, int64_t p0, int64_t p1,
                    uint8_t* qb, int64_t ldb) {
  const int kk = g.k_h * g.k_w;
  const int64_t rows = static_cast<int64_t>(ck) * kk;
  const int64_t wp = g.in_w + 2 * g.pad;
  const int64_t plane_bytes = (g.in_h + 2 * g.pad) * wp;
  const int64_t row_step = g.stride * wp;
  const int ow = g.out_w();
  for (int64_t kq = q0; kq < q1; ++kq) {
    // Patch row r = (c, ky, kx) reads the padded plane c at offset
    // (oy*stride + ky, ox*stride + kx): in bounds for every output
    // position, so no edge case remains. Pad rows past the patch alias
    // its last row's stream and are replaced by 128 through keep/fill.
    const uint8_t* src[4] = {};
    uint32_t keep = 0, fill = 0;
    for (int t = 0; t < 4; ++t) {
      const int64_t r = kq * 4 + t;
      const int64_t c = std::min(r, rows - 1) / kk;
      const int64_t rem = std::min(r, rows - 1) % kk;
      src[t] = planes + c * plane_bytes + (rem / g.k_w) * wp + rem % g.k_w;
      if (r < rows) {
        keep |= 0xFFu << (8 * t);
      } else {
        fill |= 0x80u << (8 * t);
      }
    }
    const auto run = fill == 0 ? lower_run<false> : lower_run<true>;
    uint8_t* out = qb + kq * ldb * 4;
    for (int64_t p = p0; p < p1;) {
      const int64_t oy = p / ow;
      const int64_t ox = p - oy * ow;
      const int64_t n = std::min<int64_t>(ow - ox, p1 - p);
      const int64_t off = oy * row_step + ox * g.stride;
      run(src[0] + off, src[1] + off, src[2] + off, src[3] + off, g.stride,
          n, keep, fill, out + (p - p0) * 4);
      p += n;
    }
  }
}

ANTIDOTE_NO_VECTORIZE
void igemm_u8s8_dequant_scalar(int m, int64_t n, int64_t k4,
                               const int8_t* qw, int64_t w_stride,
                               const uint8_t* qb, const int32_t* wsum,
                               const float* wscale, float act_scale,
                               float* y, int64_t ldy) {
  const int64_t quads = k4 / 4;
  for (int mi = 0; mi < m; ++mi) {
    const int8_t* wr = qw + mi * w_stride;
    const int32_t bias = 128 * wsum[mi];
    const float rs = act_scale * wscale[mi];
    float* yr = y + mi * ldy;
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kq = 0; kq < quads; ++kq) {
        const uint8_t* a = qb + (kq * n + j) * 4;
        const int8_t* ww = wr + kq * 4;
        acc += static_cast<int32_t>(a[0]) * ww[0] +
               static_cast<int32_t>(a[1]) * ww[1] +
               static_cast<int32_t>(a[2]) * ww[2] +
               static_cast<int32_t>(a[3]) * ww[3];
      }
      yr[j] = static_cast<float>(acc - bias) * rs;
    }
  }
}

#if defined(ANTIDOTE_SIMD_I8)

namespace {

// Columns [j0, j1) of one weight row, 8/16 per iteration via the exact
// vpdpbusd emulation; ragged column tail falls back to the identical
// scalar integer expression.
void igemm_row_avx2(const int8_t* wr, int64_t n, int64_t quads,
                    const uint8_t* qb, int32_t bias, float rs, float* yr,
                    int64_t j0, int64_t j1) {
  const __m256i vbias = _mm256_set1_epi32(bias);
  const __m256 vrs = _mm256_set1_ps(rs);
  int64_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (int64_t kq = 0; kq < quads; ++kq) {
      int32_t w4;
      std::memcpy(&w4, wr + kq * 4, 4);
      const __m256i vw = _mm256_set1_epi32(w4);
      const uint8_t* a = qb + (kq * n + j) * 4;
      acc0 = simd::dpbusd_epi32(
          acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
          vw);
      acc1 = simd::dpbusd_epi32(
          acc1,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 32)),
          vw);
    }
    _mm256_storeu_ps(
        yr + j,
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(acc0, vbias)),
                      vrs));
    _mm256_storeu_ps(
        yr + j + 8,
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(acc1, vbias)),
                      vrs));
  }
  for (; j + 8 <= j1; j += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (int64_t kq = 0; kq < quads; ++kq) {
      int32_t w4;
      std::memcpy(&w4, wr + kq * 4, 4);
      acc = simd::dpbusd_epi32(
          acc,
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(qb + (kq * n + j) * 4)),
          _mm256_set1_epi32(w4));
    }
    _mm256_storeu_ps(
        yr + j,
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(acc, vbias)),
                      vrs));
  }
  for (; j < j1; ++j) {
    int32_t acc = 0;
    for (int64_t kq = 0; kq < quads; ++kq) {
      const uint8_t* a = qb + (kq * n + j) * 4;
      const int8_t* ww = wr + kq * 4;
      acc += static_cast<int32_t>(a[0]) * ww[0] +
             static_cast<int32_t>(a[1]) * ww[1] +
             static_cast<int32_t>(a[2]) * ww[2] +
             static_cast<int32_t>(a[3]) * ww[3];
    }
    yr[j] = static_cast<float>(acc - bias) * rs;
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define ANTIDOTE_HAVE_VNNI_KERNEL 1
// Runtime-dispatched AVX-512 VNNI backend. The target attribute scopes
// the ISA to this function alone (the TU is compiled with plain -mavx2),
// and callers only reach it after __builtin_cpu_supports("avx512vnni").
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
igemm_row_vnni(const int8_t* wr, int64_t n, int64_t quads,
               const uint8_t* qb, int32_t bias, float rs, float* yr) {
  const __m512i vbias = _mm512_set1_epi32(bias);
  const __m512 vrs = _mm512_set1_ps(rs);
  int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    for (int64_t kq = 0; kq < quads; ++kq) {
      int32_t w4;
      std::memcpy(&w4, wr + kq * 4, 4);
      const __m512i vw = _mm512_set1_epi32(w4);
      const uint8_t* a = qb + (kq * n + j) * 4;
      acc0 = _mm512_dpbusd_epi32(acc0, _mm512_loadu_si512(a), vw);
      acc1 = _mm512_dpbusd_epi32(acc1, _mm512_loadu_si512(a + 64), vw);
      acc2 = _mm512_dpbusd_epi32(acc2, _mm512_loadu_si512(a + 128), vw);
      acc3 = _mm512_dpbusd_epi32(acc3, _mm512_loadu_si512(a + 192), vw);
    }
    _mm512_storeu_ps(
        yr + j,
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc0, vbias)),
                      vrs));
    _mm512_storeu_ps(
        yr + j + 16,
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc1, vbias)),
                      vrs));
    _mm512_storeu_ps(
        yr + j + 32,
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc2, vbias)),
                      vrs));
    _mm512_storeu_ps(
        yr + j + 48,
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc3, vbias)),
                      vrs));
  }
  for (; j + 16 <= n; j += 16) {
    __m512i acc = _mm512_setzero_si512();
    for (int64_t kq = 0; kq < quads; ++kq) {
      int32_t w4;
      std::memcpy(&w4, wr + kq * 4, 4);
      acc = _mm512_dpbusd_epi32(acc,
                                _mm512_loadu_si512(qb + (kq * n + j) * 4),
                                _mm512_set1_epi32(w4));
    }
    _mm512_storeu_ps(
        yr + j,
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(acc, vbias)),
                      vrs));
  }
  if (j < n) igemm_row_avx2(wr, n, quads, qb, bias, rs, yr, j, n);
}
#endif  // __GNUC__ || __clang__

}  // namespace

#endif  // ANTIDOTE_SIMD_I8

void igemm_u8s8_dequant(int m, int64_t n, int64_t k4, const int8_t* qw,
                        int64_t w_stride, const uint8_t* qb,
                        const int32_t* wsum, const float* wscale,
                        float act_scale, float* y, int64_t ldy) {
#if defined(ANTIDOTE_SIMD_I8)
  const int64_t quads = k4 / 4;
#if defined(ANTIDOTE_HAVE_VNNI_KERNEL)
  if (vnni_ok()) {
    for (int mi = 0; mi < m; ++mi) {
      igemm_row_vnni(qw + mi * w_stride, n, quads, qb, 128 * wsum[mi],
                     act_scale * wscale[mi], y + mi * ldy);
    }
    return;
  }
#endif
  for (int mi = 0; mi < m; ++mi) {
    igemm_row_avx2(qw + mi * w_stride, n, quads, qb, 128 * wsum[mi],
                   act_scale * wscale[mi], y + mi * ldy, 0, n);
  }
#else
  igemm_u8s8_dequant_scalar(m, n, k4, qw, w_stride, qb, wsum, wscale,
                            act_scale, y, ldy);
#endif
}

}  // namespace antidote::nn
