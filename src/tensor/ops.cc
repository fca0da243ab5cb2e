#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/error.h"

namespace antidote::ops {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  AD_CHECK(a.same_shape(b)) << " " << op << ": shape mismatch "
                            << a.shape_str() << " vs " << b.shape_str();
}
}  // namespace

void add_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void sub_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] -= pb[i];
}

void mul_(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul_");
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] *= pb[i];
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  for (int64_t i = 0; i < a.size(); ++i) pa[i] *= s;
}

void axpy_(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy_");
  float* py = y.data();
  const float* px = x.data();
  for (int64_t i = 0; i < y.size(); ++i) py[i] += alpha * px[i];
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  add_(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  sub_(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  mul_(out, b);
  return out;
}

Tensor relu(const Tensor& x) {
  Tensor out = x.clone();
  float* p = out.data();
  for (int64_t i = 0; i < out.size(); ++i) p[i] = p[i] > 0.f ? p[i] : 0.f;
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  check_same_shape(dy, x, "relu_backward");
  Tensor dx(dy.shape());
  float* pdx = dx.data();
  const float* pdy = dy.data();
  const float* px = x.data();
  for (int64_t i = 0; i < dx.size(); ++i) {
    pdx[i] = px[i] > 0.f ? pdy[i] : 0.f;
  }
  return dx;
}

float sum(const Tensor& x) {
  const float* p = x.data();
  double acc = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& x) {
  AD_CHECK_GT(x.size(), 0);
  return sum(x) / static_cast<float>(x.size());
}

float max_value(const Tensor& x) {
  AD_CHECK_GT(x.size(), 0);
  const float* p = x.data();
  float m = p[0];
  for (int64_t i = 1; i < x.size(); ++i) m = std::max(m, p[i]);
  return m;
}

float min_value(const Tensor& x) {
  AD_CHECK_GT(x.size(), 0);
  const float* p = x.data();
  float m = p[0];
  for (int64_t i = 1; i < x.size(); ++i) m = std::min(m, p[i]);
  return m;
}

float l2_norm(const Tensor& x) {
  const float* p = x.data();
  double acc = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) acc += double(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

float l1_norm(const Tensor& x) {
  const float* p = x.data();
  double acc = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) acc += std::abs(double(p[i]));
  return static_cast<float>(acc);
}

float mean_abs(const Tensor& x) {
  AD_CHECK_GT(x.size(), 0);
  return l1_norm(x) / static_cast<float>(x.size());
}

void channel_mean_nchw_into(const Tensor& x, float* out) {
  AD_CHECK_EQ(x.ndim(), 4) << " channel_mean_nchw expects NCHW";
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t hw = static_cast<int64_t>(h) * w;
  const float* px = x.data();
  for (int i = 0; i < n * c; ++i) {
    const float* plane = px + static_cast<int64_t>(i) * hw;
    // Eight independent double chains (chain l sums elements l, l+8, ...;
    // the tail continues from chain 0) hide the add latency that one
    // serial chain pays per element. They combine in one fixed tree, so
    // every build sums in the same order.
    double acc[8] = {};
    int64_t j = 0;
    for (; j + 8 <= hw; j += 8) {
      for (int l = 0; l < 8; ++l) acc[l] += plane[j + l];
    }
    for (int l = 0; j < hw; ++j, ++l) acc[l] += plane[j];
    const double sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                       ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    out[i] = static_cast<float>(sum / static_cast<double>(hw));
  }
}

Tensor channel_mean_nchw(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4) << " channel_mean_nchw expects NCHW";
  Tensor out({x.dim(0), x.dim(1)});
  channel_mean_nchw_into(x, out.data());
  return out;
}

Tensor spatial_mean_nchw(const Tensor& x) {
  AD_CHECK_EQ(x.ndim(), 4) << " spatial_mean_nchw expects NCHW";
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t hw = static_cast<int64_t>(h) * w;
  Tensor out({n, h, w});
  const float* px = x.data();
  for (int b = 0; b < n; ++b) {
    float* out_plane = out.data() + static_cast<int64_t>(b) * hw;
    for (int64_t j = 0; j < hw; ++j) out_plane[j] = 0.f;
    for (int ch = 0; ch < c; ++ch) {
      const float* plane = px + (static_cast<int64_t>(b) * c + ch) * hw;
      for (int64_t j = 0; j < hw; ++j) out_plane[j] += plane[j];
    }
    const float inv = 1.f / static_cast<float>(c);
    for (int64_t j = 0; j < hw; ++j) out_plane[j] *= inv;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& logits) {
  AD_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), k = logits.dim(1);
  std::vector<int> out(static_cast<size_t>(n));
  const float* p = logits.data();
  for (int i = 0; i < n; ++i) {
    const float* row = p + static_cast<int64_t>(i) * k;
    int best = 0;
    for (int j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

// The allocating variant is a thin wrapper over the _into one so there is
// exactly one selection algorithm.
std::vector<int> topk_indices(std::span<const float> values, int k) {
  std::vector<int> scratch, out;
  topk_indices_into(values, k, scratch, out);
  return out;
}

void topk_indices_into(std::span<const float> values, int k,
                       std::vector<int>& scratch, std::vector<int>& out) {
  AD_CHECK(k >= 0 && k <= static_cast<int>(values.size()))
      << " topk k=" << k << " n=" << values.size();
  scratch.resize(values.size());
  std::iota(scratch.begin(), scratch.end(), 0);
  auto greater = [&](int a, int b) {
    if (values[static_cast<size_t>(a)] != values[static_cast<size_t>(b)]) {
      return values[static_cast<size_t>(a)] > values[static_cast<size_t>(b)];
    }
    return a < b;  // deterministic tie-break
  };
  // nth_element (O(n)) + sort of the k prefix beats partial_sort's
  // O(n log k); the comparator is a strict total order, so the selected
  // set — and after the prefix sort, the exact output — is unique.
  if (k > 0 && k < static_cast<int>(scratch.size())) {
    std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                     scratch.end(), greater);
  }
  std::sort(scratch.begin(), scratch.begin() + k, greater);
  out.assign(scratch.begin(), scratch.begin() + k);
}

Tensor softmax_rows(const Tensor& logits) {
  AD_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  const float* p = logits.data();
  float* po = out.data();
  for (int i = 0; i < n; ++i) {
    const float* row = p + static_cast<int64_t>(i) * k;
    float* orow = po + static_cast<int64_t>(i) * k;
    float m = row[0];
    for (int j = 1; j < k; ++j) m = std::max(m, row[j]);
    double denom = 0.0;
    for (int j = 0; j < k; ++j) {
      orow[j] = std::exp(row[j] - m);
      denom += orow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int j = 0; j < k; ++j) orow[j] *= inv;
  }
  return out;
}

double accuracy(const Tensor& logits, std::span<const int> labels) {
  AD_CHECK_EQ(logits.dim(0), static_cast<int>(labels.size()));
  const std::vector<int> pred = argmax_rows(logits);
  int correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(labels.size());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  const float* pa = a.data();
  const float* pb = b.data();
  float m = 0.f;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(pa[i] - pb[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    const float tol = atol + rtol * std::abs(pb[i]);
    if (std::abs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace antidote::ops
