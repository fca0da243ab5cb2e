// Dense float32 tensor with row-major contiguous storage.
//
// Design choices (kept deliberately simple for a CNN workload):
//  - Always contiguous; `reshape` returns a view sharing the buffer.
//  - Copying a Tensor is a shallow (buffer-sharing) copy; use clone() for a
//    deep copy. This mirrors the semantics of mainstream frameworks and
//    makes passing tensors through layers cheap.
//  - float32 only: everything in the paper is float32 CNN math.
//  - The shape is stored inline (no heap allocation): constructing, copying
//    and reshaping tensors never touches the allocator except for the data
//    buffer itself. Together with Tensor::borrow this is what lets the
//    inference hot path run allocation-free out of a workspace arena.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"

namespace antidote {

// Inline fixed-capacity dimension list. Mimics the subset of the
// std::vector<int> interface the codebase uses for shapes, so call sites
// (and tests comparing against std::vector) keep working, but lives
// entirely on the stack.
class Shape {
 public:
  static constexpr int kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<int> dims);
  // Implicit by design: legacy call sites pass std::vector<int> shapes.
  Shape(const std::vector<int>& dims);  // NOLINT(google-explicit-constructor)

  size_t size() const { return static_cast<size_t>(rank_); }
  bool empty() const { return rank_ == 0; }
  int operator[](size_t i) const { return dims_[i]; }
  int& operator[](size_t i) { return dims_[i]; }
  const int* begin() const { return dims_; }
  const int* end() const { return dims_ + rank_; }
  void push_back(int d);
  void clear() { rank_ = 0; }
  std::vector<int> to_vector() const;

  friend bool operator==(const Shape& a, const Shape& b);

 private:
  int dims_[kMaxRank] = {};
  int rank_ = 0;
};

bool operator==(const Shape& a, const std::vector<int>& b);
bool operator==(const std::vector<int>& a, const Shape& b);
std::ostream& operator<<(std::ostream& os, const Shape& s);

class Tensor {
 public:
  // Empty tensor (size 0, no dims).
  Tensor() = default;

  // Zero-initialized tensor of the given shape. All dims must be positive.
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape);
  // I.i.d. N(mean, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.f,
                      float stddev = 1.f);
  // I.i.d. U[lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);
  // 1-d tensor from explicit values (handy in tests).
  static Tensor from_values(Shape shape, std::initializer_list<float> values);
  static Tensor from_vector(Shape shape, const std::vector<float>& values);

  // Non-owning view over externally managed memory (e.g. a Workspace
  // arena). The caller guarantees `data` holds shape-many floats and stays
  // valid for the lifetime of the returned tensor and every view/shallow
  // copy of it. Performs no heap allocation.
  static Tensor borrow(float* data, Shape shape);

  // --- shape ---
  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  // Dimension i; negative i counts from the end (-1 = last).
  int dim(int i) const;
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_str() const;

  // --- data access ---
  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  float& operator[](int64_t i);
  float operator[](int64_t i) const;

  // Multi-dim accessors (bounds-checked; for tests and slow paths).
  float& at(std::initializer_list<int> idx);
  float at(std::initializer_list<int> idx) const;

  // Fast unchecked 4-d accessor for NCHW hot loops.
  float& at4(int n, int c, int h, int w) {
    return data_.get()[((static_cast<int64_t>(n) * shape_[1] + c) * shape_[2] + h) *
                           shape_[3] +
                       w];
  }
  float at4(int n, int c, int h, int w) const {
    return data_.get()[((static_cast<int64_t>(n) * shape_[1] + c) * shape_[2] + h) *
                           shape_[3] +
                       w];
  }

  // --- shape manipulation ---
  // View with a new shape; one dim may be -1 (inferred). Shares storage.
  Tensor reshape(Shape new_shape) const;
  // View of the first `rows` entries along dim 0 (0 < rows <= dim(0)).
  // Shares storage.
  Tensor first_rows(int rows) const;
  // Deep copy.
  Tensor clone() const;

  // --- mutation ---
  void fill(float value);
  void zero() { fill(0.f); }
  // Copies values from src (shapes must match element count).
  void copy_from(const Tensor& src);

  // True if both tensors share the same buffer.
  bool shares_storage(const Tensor& other) const {
    return data_ == other.data_;
  }

 private:
  Shape shape_;
  int64_t size_ = 0;
  std::shared_ptr<float[]> data_;
};

}  // namespace antidote
