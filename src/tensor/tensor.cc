#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <sstream>

#include "base/error.h"

namespace antidote {

Shape::Shape(std::initializer_list<int> dims) {
  AD_CHECK_LE(dims.size(), static_cast<size_t>(kMaxRank)) << " tensor rank";
  for (int d : dims) dims_[rank_++] = d;
}

Shape::Shape(const std::vector<int>& dims) {
  AD_CHECK_LE(dims.size(), static_cast<size_t>(kMaxRank)) << " tensor rank";
  for (int d : dims) dims_[rank_++] = d;
}

void Shape::push_back(int d) {
  AD_CHECK_LT(rank_, kMaxRank) << " tensor rank";
  dims_[rank_++] = d;
}

std::vector<int> Shape::to_vector() const {
  return std::vector<int>(begin(), end());
}

bool operator==(const Shape& a, const Shape& b) {
  return a.rank_ == b.rank_ && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const Shape& a, const std::vector<int>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const std::vector<int>& a, const Shape& b) { return b == a; }

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  os << "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) os << ",";
    os << s[i];
  }
  return os << "]";
}

namespace {
int64_t checked_size(const Shape& shape) {
  int64_t n = 1;
  for (int d : shape) {
    AD_CHECK_GT(d, 0) << " bad tensor dim";
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(Shape shape) : shape_(shape) {
  size_ = checked_size(shape_);
  data_ = std::shared_ptr<float[]>(new float[static_cast<size_t>(size_)]());
}

Tensor Tensor::zeros(Shape shape) { return Tensor(shape); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::ones(Shape shape) { return full(shape, 1.f); }

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(shape);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(shape);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) p[i] = rng.uniform_float(lo, hi);
  return t;
}

Tensor Tensor::from_values(Shape shape, std::initializer_list<float> values) {
  Tensor t(shape);
  AD_CHECK_EQ(static_cast<int64_t>(values.size()), t.size());
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  Tensor t(shape);
  AD_CHECK_EQ(static_cast<int64_t>(values.size()), t.size());
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::borrow(float* data, Shape shape) {
  Tensor t;
  t.shape_ = shape;
  t.size_ = checked_size(t.shape_);
  // Aliasing constructor with an empty owner: shares no control block, so
  // this performs no heap allocation and never frees `data`.
  t.data_ = std::shared_ptr<float[]>(std::shared_ptr<void>(), data);
  return t;
}

int Tensor::dim(int i) const {
  const int n = ndim();
  if (i < 0) i += n;
  AD_CHECK(i >= 0 && i < n) << " dim index " << i << " for ndim " << n;
  return shape_[static_cast<size_t>(i)];
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << shape_;
  return os.str();
}

float& Tensor::operator[](int64_t i) {
  AD_CHECK(i >= 0 && i < size_) << " index " << i << " size " << size_;
  return data_.get()[i];
}

float Tensor::operator[](int64_t i) const {
  AD_CHECK(i >= 0 && i < size_) << " index " << i << " size " << size_;
  return data_.get()[i];
}

namespace {
int64_t flat_index(const Shape& shape, std::initializer_list<int> idx) {
  AD_CHECK_EQ(idx.size(), shape.size());
  int64_t flat = 0;
  size_t d = 0;
  for (int i : idx) {
    AD_CHECK(i >= 0 && i < shape[d])
        << " index " << i << " out of range for dim " << d << " size "
        << shape[d];
    flat = flat * shape[d] + i;
    ++d;
  }
  return flat;
}
}  // namespace

float& Tensor::at(std::initializer_list<int> idx) {
  return data_.get()[flat_index(shape_, idx)];
}

float Tensor::at(std::initializer_list<int> idx) const {
  return data_.get()[flat_index(shape_, idx)];
}

Tensor Tensor::reshape(Shape new_shape) const {
  int64_t known = 1;
  int wildcard = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      AD_CHECK_EQ(wildcard, -1) << " multiple -1 dims in reshape";
      wildcard = static_cast<int>(i);
    } else {
      AD_CHECK_GT(new_shape[i], 0);
      known *= new_shape[i];
    }
  }
  if (wildcard >= 0) {
    AD_CHECK(known > 0 && size_ % known == 0)
        << " cannot infer -1 dim: size " << size_ << " known " << known;
    new_shape[static_cast<size_t>(wildcard)] = static_cast<int>(size_ / known);
    known = size_;
  }
  AD_CHECK_EQ(known, size_) << " reshape " << shape_str() << " element count";
  Tensor view;
  view.shape_ = new_shape;
  view.size_ = size_;
  view.data_ = data_;
  return view;
}

Tensor Tensor::first_rows(int rows) const {
  AD_CHECK(ndim() > 0 && rows > 0 && rows <= shape_[0])
      << " first_rows(" << rows << ") of " << shape_str();
  Tensor view;
  view.shape_ = shape_;
  view.shape_[0] = rows;
  view.size_ = size_ / shape_[0] * rows;
  view.data_ = data_;
  return view;
}

Tensor Tensor::clone() const {
  Tensor copy;
  copy.shape_ = shape_;
  copy.size_ = size_;
  if (size_ > 0) {
    copy.data_ = std::shared_ptr<float[]>(new float[static_cast<size_t>(size_)]);
    std::memcpy(copy.data_.get(), data_.get(),
                static_cast<size_t>(size_) * sizeof(float));
  }
  return copy;
}

void Tensor::fill(float value) {
  float* p = data_.get();
  for (int64_t i = 0; i < size_; ++i) p[i] = value;
}

void Tensor::copy_from(const Tensor& src) {
  AD_CHECK_EQ(src.size(), size_) << " copy_from size mismatch";
  if (size_ > 0) {
    std::memcpy(data_.get(), src.data(),
                static_cast<size_t>(size_) * sizeof(float));
  }
}

}  // namespace antidote
