// Int8 numeric regime kernels: per-output-channel symmetric weight
// quantization, dynamic activation quantization, the u8 im2col lowering
// into the igemm operand, and the u8xs8 -> s32 blocked micro-kernel with
// dequantization folded into the store (the int32 accumulators never
// round-trip through memory).
//
// Quantization scheme
//   weights      qw[r][i] = clamp(lrintf(w[r][i] / sw[r]), -127, 127),
//                sw[r] = maxabs(row r) / 127   (per output channel)
//   activations  qa[i] = clamp(lrintf(a[i] * (127/maxabs)), -127, 127),
//                sa = maxabs / 127             (dynamic: one scale per
//                mask group per conv step, maxabs over the group's kept
//                input planes), stored biased as u8 = qa + 128 so the
//                AVX-512 VNNI `vpdpbusd` (u8 x s8) instruction applies
//                directly.
//   accumulator  dp[r][j] = sum_k (qa[k][j]+128) * qw[r][k]
//                         = acc[r][j] + 128 * wsum[r]
//                where wsum[r] = sum_k qw[r][k] is precomputed at weight
//                quantization / panel-pack time. Weight rows are ZERO
//                padded to k4 = align4(k) bytes, so the pad bytes add
//                nothing to either dp or wsum regardless of the (biased,
//                = 128) pad activation bytes.
//   dequant      y[r][j] = float(dp - 128*wsum[r]) * (sa * sw[r])
//
// QUANTIZE ONCE, LOWER IN U8. A conv step quantizes each kept input plane
// once, into a biased-u8 plane bordered by `pad` bytes of 128 (the bias
// byte of 0.0), and lowers output-position tiles straight from those
// planes into the igemm operand. The scale covers the whole group's kept
// planes, not one tile, so every tile of a step quantizes at the same
// scale and tiled int8 output is bitwise identical to untiled. When every
// input pixel reaches some patch (every 3x3 pad-1 conv) the plane maxabs
// is the im2col panel's maxabs, so the bytes equal quantizing the f32
// panel itself.
//
// BITWISE CONTRACT. The accumulator is exact integer math (|acc| <=
// k * 255 * 127 < 2^31 for every k this runtime produces), and the
// dequant expression performs the same two IEEE-754 roundings in every
// backend (cvtepi32_ps and the scalar (float) cast both round to
// nearest-even). Scalar, AVX2 (exact vpdpbusd emulation, see
// base/simd.h) and AVX-512 VNNI therefore produce bitwise identical f32
// output; the scalar references here are the parity baselines the int8
// parity test memcmps against, mirroring the f32 lane layer's contract.
// The lowering is pure byte movement, identical in every build.
//
// ACTIVATION LAYOUT. The igemm operand is [k4/4][n][4] — for quad kq and
// column j the four consecutive bytes at qb[(kq*n + j)*4] are rows
// 4kq..4kq+3 of column j (pad rows beyond k hold the bias byte 128). One
// 64/32-byte vector load then covers 16/8 adjacent columns of one k-quad.
//
// The AVX-512 VNNI backend is selected at RUNTIME (function-level target
// attributes + __builtin_cpu_supports) inside the AVX2-compiled TU, so
// non-AVX-512 hosts run the same binary safely.
#pragma once

#include <cstdint>

#include "tensor/im2col.h"

namespace antidote::nn {

// ISA the int8 igemm dispatch resolves to at runtime:
// "avx512-vnni" | "avx2" | "scalar".
const char* int8_isa_name();
// Hardware AVX-512 VNNI availability (reported even in SIMD=OFF builds,
// where the dispatch itself stays scalar).
bool cpu_supports_vnni();

// Rows padded to a multiple of 4 bytes (one vpdpbusd quad).
constexpr int64_t int8_align4(int64_t k) { return (k + 3) & ~int64_t{3}; }

// Per-row (= per output channel) symmetric quantization of the [rows x k]
// f32 matrix `w` into int8 rows of `row_stride` >= int8_align4(k) bytes
// (tail zero-padded). Writes scale[r] = maxabs(row)/127 (1.0 for all-zero
// rows) and wsum[r] = sum of the row's int8 bytes. Deterministic scalar
// code — identical output in SIMD and scalar builds.
void quantize_weights_rowwise(const float* w, int rows, int64_t k,
                              int8_t* q, int64_t row_stride, float* scale,
                              int32_t* wsum);

// Largest |x[i]| over n floats. max is order-free and fabs exact, so the
// vector reduction equals the scalar one bit for bit.
float max_abs(const float* x, int64_t n);

// Scalar reference quantizer: the contiguous [k x n] f32 matrix `b` into
// the biased-u8 operand layout above (qb holds int8_align4(k) * n bytes),
// at the scale of `maxabs` (>= every |b|; 0 quantizes all to the bias
// byte). Returns sa = maxabs / 127. The executor never builds an f32 panel;
// this defines the bytes its u8 lowering must reproduce.
float quantize_activations_scalar(const float* b, int64_t k, int64_t n,
                                  float maxabs, uint8_t* qb);

// Quantizes one h x w f32 plane at `maxabs` into a biased-u8 plane of
// (h + 2*pad) x (w + 2*pad) bytes whose `pad`-wide border holds 128.
void quantize_plane_u8(const float* x, int h, int w, int pad, float maxabs,
                       uint8_t* q);
void quantize_plane_u8_scalar(const float* x, int h, int w, int pad,
                              float maxabs, uint8_t* q);

// u8 lowering: for `planes`, ck consecutive padded planes from
// quantize_plane_u8 under geometry g (in_c is ignored; each plane holds
// (in_h + 2*pad) x (in_w + 2*pad) bytes), writes the row quads [q0, q1)
// of output positions [p0, p1) into the operand layout with leading
// dimension `ldb`: column p - p0 of quad kq lands at qb[(kq*ldb + p-p0)*4].
// Rows past ck*k_h*k_w hold 128. Equals quantize_activations_scalar of the
// f32 im2col panel at the planes' scale, byte for byte.
void lower_u8_quads(const uint8_t* planes, int ck, const ConvGeom& g,
                    int64_t q0, int64_t q1, int64_t p0, int64_t p1,
                    uint8_t* qb, int64_t ldb);

// C[m x n] = dequant((u8 B-layout qb) x (s8 row-major qw)^T): for each of
// the m weight rows, y[mi*ldy + j] = float(acc - 128*wsum[mi]) *
// (act_scale * wscale[mi]). k4 must be a multiple of 4; w_stride is the
// int8 weight row stride (>= k4).
void igemm_u8s8_dequant(int m, int64_t n, int64_t k4, const int8_t* qw,
                        int64_t w_stride, const uint8_t* qb,
                        const int32_t* wsum, const float* wscale,
                        float act_scale, float* y, int64_t ldy);
void igemm_u8s8_dequant_scalar(int m, int64_t n, int64_t k4,
                               const int8_t* qw, int64_t w_stride,
                               const uint8_t* qb, const int32_t* wsum,
                               const float* wscale, float act_scale,
                               float* y, int64_t ldy);

}  // namespace antidote::nn
