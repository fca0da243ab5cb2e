#include "tensor/im2col.h"

#include <cstring>

#include "base/error.h"
#include "base/simd.h"

namespace antidote {

namespace {

// Fills one lowered row — channel plane x kernel offset (kh, kw) — of
// out_positions() values into `dst`. For stride-1 geometry each output row
// maps to a contiguous span of the input row, so the interior is a single
// memcpy bracketed by zeroed padding edges; strided geometry keeps the
// scalar walk. Values (and therefore bits) match the reference loop
// exactly — this is pure data movement.
inline void lower_row(const float* plane, const ConvGeom& g, int kh, int kw,
                      float* dst) {
  const int oh = g.out_h(), ow = g.out_w();
  for (int y = 0; y < oh; ++y) {
    const int iy = y * g.stride - g.pad + kh;
    float* d = dst + static_cast<int64_t>(y) * ow;
    if (iy < 0 || iy >= g.in_h) {
      std::memset(d, 0, static_cast<size_t>(ow) * sizeof(float));
      continue;
    }
    const float* src = plane + static_cast<int64_t>(iy) * g.in_w;
    if (g.stride == 1) {
      // ix = x + kx_off; valid input columns are the contiguous span
      // [x0, x1) of output columns.
      const int kx_off = kw - g.pad;
      const int x0 = kx_off < 0 ? -kx_off : 0;
      int x1 = g.in_w - kx_off;
      if (x1 > ow) x1 = ow;
      if (x1 < x0) x1 = x0;
      if (x0 > 0) std::memset(d, 0, static_cast<size_t>(x0) * sizeof(float));
      if (x1 > x0) {
        std::memcpy(d + x0, src + kx_off + x0,
                    static_cast<size_t>(x1 - x0) * sizeof(float));
      }
      if (x1 < ow) {
        std::memset(d + x1, 0, static_cast<size_t>(ow - x1) * sizeof(float));
      }
    } else {
      for (int x = 0; x < ow; ++x) {
        const int ix = x * g.stride - g.pad + kw;
        d[x] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.f;
      }
    }
  }
}

// Fills positions [p0, p1) of one lowered row into dst[0 .. p1-p0).
// Produces the same bytes as the matching slice of lower_row: the
// stride-1 fast path copies from the identical source span, clamped to
// the tile's column window, and the padding edges are zeroed with the
// same semantics.
inline void lower_row_span(const float* plane, const ConvGeom& g, int kh,
                           int kw, int64_t p0, int64_t p1, float* dst) {
  const int ow = g.out_w();
  const int y0 = static_cast<int>(p0 / ow);
  const int y1 = static_cast<int>((p1 - 1) / ow);  // inclusive
  for (int y = y0; y <= y1; ++y) {
    const int64_t row_begin = static_cast<int64_t>(y) * ow;
    const int xa =
        static_cast<int>((p0 > row_begin ? p0 : row_begin) - row_begin);
    const int xb = static_cast<int>(
        (p1 < row_begin + ow ? p1 : row_begin + ow) - row_begin);
    float* d = dst + (row_begin + xa - p0);
    const int iy = y * g.stride - g.pad + kh;
    if (iy < 0 || iy >= g.in_h) {
      std::memset(d, 0, static_cast<size_t>(xb - xa) * sizeof(float));
      continue;
    }
    const float* src = plane + static_cast<int64_t>(iy) * g.in_w;
    if (g.stride == 1) {
      // Valid input columns are the contiguous output-column span
      // [x0, x1); clamp it to the tile window [xa, xb).
      const int kx_off = kw - g.pad;
      const int x0 = kx_off < 0 ? -kx_off : 0;
      int x1 = g.in_w - kx_off;
      if (x1 > ow) x1 = ow;
      int ca = x0 > xa ? x0 : xa;
      if (ca > xb) ca = xb;
      int cb = x1 < xb ? x1 : xb;
      if (cb < ca) cb = ca;
      if (ca > xa) {
        std::memset(d, 0, static_cast<size_t>(ca - xa) * sizeof(float));
      }
      if (cb > ca) {
        std::memcpy(d + (ca - xa), src + kx_off + ca,
                    static_cast<size_t>(cb - ca) * sizeof(float));
      }
      if (xb > cb) {
        std::memset(d + (cb - xa), 0,
                    static_cast<size_t>(xb - cb) * sizeof(float));
      }
    } else {
      for (int x = xa; x < xb; ++x) {
        const int ix = x * g.stride - g.pad + kw;
        d[x - xa] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.f;
      }
    }
  }
}

}  // namespace

void ConvGeom::validate() const {
  AD_CHECK_GT(in_c, 0);
  AD_CHECK_GT(in_h, 0);
  AD_CHECK_GT(in_w, 0);
  AD_CHECK_GT(k_h, 0);
  AD_CHECK_GT(k_w, 0);
  AD_CHECK_GT(stride, 0);
  AD_CHECK_GE(pad, 0);
  AD_CHECK_GT(out_h(), 0) << " conv output height <= 0";
  AD_CHECK_GT(out_w(), 0) << " conv output width <= 0";
}

void im2col(const float* input, const ConvGeom& g, float* cols) {
  im2col_range(input, g, 0, g.in_c, cols);
}

void im2col_range(const float* input, const ConvGeom& g, int c0, int c1,
                  float* cols) {
  AD_CHECK(0 <= c0 && c0 <= c1 && c1 <= g.in_c) << " im2col channel range";
  const int64_t n_cols = g.out_positions();
  int64_t row = static_cast<int64_t>(c0) * g.k_h * g.k_w;
  for (int c = c0; c < c1; ++c) {
    const float* plane = input + static_cast<int64_t>(c) * g.in_h * g.in_w;
    for (int kh = 0; kh < g.k_h; ++kh) {
      for (int kw = 0; kw < g.k_w; ++kw, ++row) {
        lower_row(plane, g, kh, kw, cols + row * n_cols);
      }
    }
  }
}

void im2col_gather_pos_ld(const float* input, const ConvGeom& g,
                          std::span<const int> channels, int64_t p0,
                          int64_t p1, float* cols, int64_t ld) {
  AD_CHECK(0 <= p0 && p0 < p1 && p1 <= g.out_positions())
      << " im2col position range";
  AD_CHECK_GE(ld, p1 - p0);
  int64_t row = 0;
  for (int c : channels) {
    AD_CHECK(c >= 0 && c < g.in_c) << " gathered channel " << c;
    const float* plane = input + static_cast<int64_t>(c) * g.in_h * g.in_w;
    for (int kh = 0; kh < g.k_h; ++kh) {
      for (int kw = 0; kw < g.k_w; ++kw, ++row) {
        lower_row_span(plane, g, kh, kw, p0, p1, cols + row * ld);
      }
    }
  }
}

ANTIDOTE_NO_VECTORIZE
void im2col_range_scalar(const float* input, const ConvGeom& g, int c0,
                         int c1, float* cols) {
  AD_CHECK(0 <= c0 && c0 <= c1 && c1 <= g.in_c) << " im2col channel range";
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t n_cols = static_cast<int64_t>(oh) * ow;
  int64_t row = static_cast<int64_t>(c0) * g.k_h * g.k_w;
  for (int c = c0; c < c1; ++c) {
    const float* plane = input + static_cast<int64_t>(c) * g.in_h * g.in_w;
    for (int kh = 0; kh < g.k_h; ++kh) {
      for (int kw = 0; kw < g.k_w; ++kw, ++row) {
        float* out_row = cols + row * n_cols;
        for (int y = 0; y < oh; ++y) {
          const int iy = y * g.stride - g.pad + kh;
          float* dst = out_row + static_cast<int64_t>(y) * ow;
          if (iy < 0 || iy >= g.in_h) {
            for (int x = 0; x < ow; ++x) dst[x] = 0.f;
            continue;
          }
          const float* src = plane + static_cast<int64_t>(iy) * g.in_w;
          for (int x = 0; x < ow; ++x) {
            const int ix = x * g.stride - g.pad + kw;
            dst[x] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.f;
          }
        }
      }
    }
  }
}

void im2col_gather(const float* input, const ConvGeom& g,
                   std::span<const int> channels, float* cols) {
  const int64_t n_cols = g.out_positions();
  int64_t row = 0;
  for (int c : channels) {
    AD_CHECK(c >= 0 && c < g.in_c) << " gathered channel " << c;
    const float* plane = input + static_cast<int64_t>(c) * g.in_h * g.in_w;
    for (int kh = 0; kh < g.k_h; ++kh) {
      for (int kw = 0; kw < g.k_w; ++kw, ++row) {
        lower_row(plane, g, kh, kw, cols + row * n_cols);
      }
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* input_grad) {
  const int oh = g.out_h(), ow = g.out_w();
  const int64_t n_cols = static_cast<int64_t>(oh) * ow;
  int64_t row = 0;
  for (int c = 0; c < g.in_c; ++c) {
    float* plane = input_grad + static_cast<int64_t>(c) * g.in_h * g.in_w;
    for (int kh = 0; kh < g.k_h; ++kh) {
      for (int kw = 0; kw < g.k_w; ++kw, ++row) {
        const float* src_row = cols + row * n_cols;
        for (int y = 0; y < oh; ++y) {
          const int iy = y * g.stride - g.pad + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = plane + static_cast<int64_t>(iy) * g.in_w;
          const float* src = src_row + static_cast<int64_t>(y) * ow;
          for (int x = 0; x < ow; ++x) {
            const int ix = x * g.stride - g.pad + kw;
            if (ix >= 0 && ix < g.in_w) dst[ix] += src[x];
          }
        }
      }
    }
  }
}

}  // namespace antidote
